"""Check that the benchmark is steady: run it over many seeds and compare spreads to bounds.

Usage (from the root of a checkout):
  python3 perfbench/check.py --seeds 1:11

It makes two passes over the seeds. For each seed it runs every workload
once with tracing off, one workload after the other, so that drift in host
load spreads over all workloads instead of landing on one. For each
end-to-end metric it prints the distance between the first and third
quartile of each pass's per-seed values as a share of their median, against
the metric's bound from BENCHMARK.json, and how far the second pass's median
moved from the first in the worse direction. Raw results go to
``.perfbench_work/check.json``. Exits 1 if any check is out of bound.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=900)
    finally:
        if proc.poll() is None:
            proc.terminate()  # run.py then stops its own children
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return -change if better == "higher" else change


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1:11", help="lo:hi, a range of workload seeds")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lo, _, hi = args.seeds.partition(":")
    seeds = range(int(lo), int(hi))
    metrics = spec["end_to_end"]

    values = {(s, w, m["name"]): [] for s in range(SETS) for w in NAMES for m in metrics}
    raw = []
    for set_index in range(SETS):
        for seed in seeds:
            for w in NAMES:
                result = run_once(w, seed, spec["run_seconds"])
                raw.append({"set": set_index, "workload": w, "seed": seed, **result})
                for m in metrics:
                    values[set_index, w, m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {set_index} seed {seed} {w}: "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics), flush=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    (ROOT / ".perfbench_work" / "check.json").write_text(json.dumps(raw, indent=1))

    ok = True
    for w in NAMES:
        for m in metrics:
            sets = [values[i, w, m["name"]] for i in range(SETS)]
            line = f"{w:<14} {m['name']:<12} median {statistics.median(sets[0]):.6g} {m['unit']}  spread"
            for one in sets:
                line += f" {spread(one):.3f}"
                if spread(one) > m["bound"]:
                    ok = False
                    line += " OUT OF BOUND"
            line += f" (bound {m['bound']}, third {m['bound'] / 3:.3f})"
            drift = worse_by(statistics.median(sets[0]), statistics.median(sets[1]), m["better"])
            line += f"  second median worse by {drift:+.3f}"
            if drift > m["bound"]:
                ok = False
                line += " OUT OF BOUND"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
