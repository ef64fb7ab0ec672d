"""Benchmark of the logit-anchor CLI: end-to-end figures, or per-layer with --trace 1.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload simulate-mix --seed 1 --seconds 10 --trace 0

Workloads and metrics are described in ``LAYERS.md``. Each
workload is prepared and then measured in fresh child processes, with
``LOGIT_ANCHOR_SEED`` removed from their environment and BLAS/OpenMP pinned
to one thread. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric by name and unit, with quartiles and sample counts.
Exits non-zero, without that line, if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
# The whole run must end within 180 s.
DEADLINE_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    # It overrides --seeds, so a user's shell could change the workload.
    env.pop("LOGIT_ANCHOR_SEED", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run one child to completion; its stdout, or SystemExit on any failure.

    The child gets its own process group, so that on a timeout or a signal
    the set-up probes it may have started are killed with it.
    """
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise SystemExit("error: out of time before the workload could run")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {argv[0]} did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv[0]} exited with code {proc.returncode}")
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "logit_anchor" / "__init__.py").is_file():
        print(f"error: no logit_anchor package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    try:
        run_child(["prepare", *common], deadline)
        out = run_child(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    finally:
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
    lines = out.strip().splitlines()
    if not lines:
        print("error: the workload printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, d in result["detail"].items():
        print(f"  {name:<16} median {d['median']:.6g} {d['unit']}  "
              f"q1 {d['q1']:.6g}  q3 {d['q3']:.6g}  n {d['n']}")
    if not args.trace:
        print(f"  {'failed_ratio':<16} {result['failed'] / result['attempted']:.6g} ratio  "
              f"({result['failed']} of {result['attempted']} invocations)")
    else:
        for name, m in result["metrics"].items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
        print(f"  spans: {work / 'spans.jsonl'}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
