"""Time set-up in a fresh process: import the CLI, then resolve scene and strategies.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD_JSON

``WORKLOAD_JSON`` is either ``{"simulate": {...build_run_config keywords}}``
or ``{"manifest": "<simulate output>/manifest.json"}``, whose scene
``evaluate --traces`` resolves. Prints one JSON line:
``{"import_s": ..., "resolve_s": ...}``. Interpreter start-up is not counted;
everything from the first package import on is.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import logit_anchor.cli  # noqa: F401  (what a user's command imports)

    t1 = time.perf_counter()
    from logit_anchor.config import build_run_config, load_json_file
    from logit_anchor.simulator import scene_from_dict

    if "simulate" in spec:
        build_run_config(**spec["simulate"])
    else:
        scene_from_dict(load_json_file(spec["manifest"])["scene_spec"])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - T0, "resolve_s": t2 - t1}))


if __name__ == "__main__":
    main()
