"""Check that this checkout's outputs are byte-identical to those of a git revision.

Exports ``REV``'s ``src/`` with ``git archive`` into a temporary directory,
runs the same CLI commands once with each tree's ``src/`` on ``PYTHONPATH``
(``LOGIT_ANCHOR_SEED`` unset), and compares every file the commands write and
every command's stdout byte for byte. Each command runs in its own tree's
output directory with relative paths, so no output holds a path that differs
between the trees. The commands:

- W1: ``simulate --seeds 0:200 --format json``;
- ``evaluate --traces`` on W1's output;
- a long run of all six kinds: ``simulate --scene strong-decay`` with greedy and
  icd beside the sampled lanes, 40 seeds up to 280 steps, ``--temperature 0.7``
  and ``--full-dist``, whose rows retire in the middle of the provider's jitter
  tapes and the decode loop's uniform blocks;
- ``evaluate --traces`` on that long run, so the trace reader reads 280-step
  traces that hold ``dist`` fields, with greedy and icd lanes among them;
- the default ``sweep`` and the default ``ablate``;
- ``evaluate`` on the golden corpus (each tree's own ``data/`` files);
- ``golden_slash``: that ``evaluate`` again with a trailing ``/`` on each of its
  three corpus paths, which ``Path`` reads as the files themselves.

Prints each file that differs (or exists on one side only) and exits 1 if any
does, else 0. Run from the repository root:

    python tools/same_outputs.py HEAD~1
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, CLI arguments): each command's stdout is kept as <name>.stdout. "{data}" is
# the tree's golden corpus directory.
COMMANDS = (
    ("w1", ["simulate", "--seeds", "0:200", "--format", "json", "--out", "w1"]),
    ("w1_evaluate", ["evaluate", "--traces", "w1", "--out", "w1_evaluate"]),
    ("long", ["simulate", "--scene", "strong-decay",
              "--strategies", "baseline:beta=0.1;greedy;vcd;icd;m3id;flb", "--seeds", "0:40",
              "--max-steps", "280", "--temperature", "0.7", "--full-dist", "--out", "long"]),
    ("long_evaluate", ["evaluate", "--traces", "long", "--out", "long_evaluate"]),
    ("sweep", ["sweep", "--out", "sweep"]),
    ("ablate", ["ablate", "--out", "ablate"]),
    ("golden", ["evaluate", "--captions", "{data}/golden_captions.jsonl",
                "--annotations", "{data}/golden_annotations.json",
                "--lexicon", "{data}/golden_lexicon.json", "--out", "golden"]),
    ("golden_slash", ["evaluate", "--captions", "{data}/golden_captions.jsonl/",
                      "--annotations", "{data}/golden_annotations.json/",
                      "--lexicon", "{data}/golden_lexicon.json/", "--out", "golden_slash"]),
)


def export_src(rev: str, dest: Path) -> Path:
    """``rev``'s ``src/`` written under ``dest``; the path of that ``src/``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_commands(src: Path, out: Path, commands=COMMANDS) -> None:
    """Run ``commands`` with ``src`` on PYTHONPATH, inside ``out``; a command that fails
    raises, naming the tree, the command and its stderr."""
    env = {key: value for key, value in os.environ.items() if key != "LOGIT_ANCHOR_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    data = str(src / "logit_anchor" / "data")
    out.mkdir(parents=True)
    for name, args in commands:
        argv = [sys.executable, "-m", "logit_anchor", *(a.replace("{data}", data) for a in args)]
        done = subprocess.run(argv, cwd=out, env=env, capture_output=True)
        if done.returncode:
            raise RuntimeError(f"{src}: {' '.join(args)} exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')}")
        (out / f"{name}.stdout").write_bytes(done.stdout)


def differing(a: Path, b: Path) -> list[str]:
    """The files under ``a`` and ``b``, by relative path, that differ or exist in one only."""
    files = [{str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(name for name in files[0] | files[1]
                  if name not in files[0] & files[1]
                  or not filecmp.cmp(a / name, b / name, shallow=False))


def compare(src_a: Path, src_b: Path, commands=COMMANDS) -> list[str]:
    """The outputs of ``commands`` that differ between the trees ``src_a`` and ``src_b``."""
    with tempfile.TemporaryDirectory() as tmp:
        for side, src in (("a", src_a), ("b", src_b)):
            run_commands(src, Path(tmp) / side, commands)
        return differing(Path(tmp) / "a", Path(tmp) / "b")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        diff = compare(export_src(argv[0], Path(tmp)), ROOT / "src")
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(diff)} output file(s) differ from {argv[0]}" if diff
          else f"every output is byte-identical to {argv[0]}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
