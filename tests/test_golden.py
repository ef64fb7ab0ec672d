"""Golden outputs: every file five ``simulate`` runs, a ``sweep``, an ``ablate`` and
an ``evaluate`` of the bundled corpus write, pinned by sha256.

The simulate runs cover the default strategies plus a masked flb, a
temperature below 1 with ``--full-dist``, gt and hal sets that are not 8
nouns long, and the degraded views at strengths other than their defaults
(ICD's blend of the penalty lane with its permuted copy only shows below
strength 1). The strong-decay run decodes all six kinds, with a beta on
baseline and greedy, at a temperature cold enough that probabilities
underflow to zero outside the candidate mask and the kept sets differ in
size across rows. The sweep and ablate runs pin reports scored from runs that
write no trace, through ``hal_noun_rate`` and the CHAIR adapter; the
evaluate run pins the corpus side, read from caption files. Any change
to an output byte of these runs, stdout included, fails here rather than
only under a manual ``diff -r``. To re-pin after a deliberate
output change, run this file as a script:
``PYTHONPATH=src python tests/test_golden.py``. It prints whether each run's
hashes are new, unchanged or changed, and for a changed run which files
changed, so adding a run never re-pins the others unnoticed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from logit_anchor import cli
from logit_anchor.cli import main
from logit_anchor.config import SEED_ENV_VAR
from logit_anchor.simulator import preset, scene_to_dict

PINNED = Path(__file__).parent / "data" / "golden_outputs.json"
CORPUS = Path(cli.__file__).parent / "data"

BASE = [
    "simulate", "--seeds", "0:8", "--max-steps", "40",
    "--strategies", "baseline;vcd;icd;m3id;flb;flb:mask=nouns",
]
RUNS = {
    "default": BASE,
    "full_dist": BASE + ["--temperature", "0.7", "--full-dist"],
    "uneven_sets": None,  # BASE on a scene whose gt and hal sets hold 3 and 13 nouns
    "strengths": [
        "simulate", "--seeds", "0:8", "--max-steps", "40",
        "--strategies", "icd:strength=0.35;icd:strength=0;vcd:strength=0.2;m3id",
        "--temperature", "0.7", "--full-dist",
    ],
    "sweep": [
        "sweep", "--seeds", "0:8", "--max-steps", "40", "--gammas", "0.1,0.5",
        "--lams", "0.05", "--schedules", "increasing,decreasing",
    ],
    "ablate": ["ablate", "--seeds", "0:20", "--max-steps", "40"],
    "strong_decay": [
        "simulate", "--scene", "strong-decay", "--seeds", "0:8", "--max-steps", "40",
        "--strategies", "baseline;baseline:beta=0.1;greedy;greedy:beta=0.3;vcd;icd;m3id;flb",
        "--temperature", "0.02",
    ],
    "corpus": [
        "evaluate", "--captions", str(CORPUS / "golden_captions.jsonl"),
        "--annotations", str(CORPUS / "golden_annotations.json"),
        "--lexicon", str(CORPUS / "golden_lexicon.json"),
    ],
}
SIMULATE_RUNS = [name for name, argv in RUNS.items() if argv is None or argv[0] == "simulate"]


def uneven_scene() -> dict:
    """The default scene with five of its gt nouns moved to the hal set."""
    scene = scene_to_dict(preset("default"))
    moved = scene["gt_objects"][3:]
    scene["gt_objects"] = scene["gt_objects"][:3]
    scene["hal_objects"] = moved + scene["hal_objects"]
    return scene


def run_hashes(name: str, root: Path) -> dict[str, str]:
    """sha256 of each file run ``name`` writes under ``root``, and of its stdout."""
    argv = RUNS[name]
    if argv is None:
        scene_path = root / "scene.json"
        scene_path.write_text(json.dumps(uneven_scene()), encoding="utf-8")
        argv = BASE + ["--scene", str(scene_path)]
    out = root / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(out)]) == 0
    hashes = {"<stdout>": stdout.getvalue().replace(str(out), "<out>").encode("utf-8")}
    hashes.update((p.relative_to(out).as_posix(), p.read_bytes())
                  for p in out.rglob("*") if p.is_file())
    return {key: hashlib.sha256(data).hexdigest() for key, data in sorted(hashes.items())}


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_pinned_hashes(name, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    assert run_hashes(name, tmp_path) == pinned


@pytest.mark.parametrize("name", SIMULATE_RUNS)
def test_rescoring_the_traces_reproduces_the_reports(name, tmp_path, monkeypatch):
    """``evaluate --traces`` on each run's output writes its reports byte for byte;
    the --full-dist traces hold a ``dist`` field that the reader skips."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    run_hashes(name, tmp_path)
    out, rescored = tmp_path / name, tmp_path / "rescored"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evaluate", "--traces", str(out), "--out", str(rescored)]) == 0
    written = sorted(p.name for p in out.glob("*") if p.name != "manifest.json" and p.is_file())
    assert written == ["curves.csv", "report.csv", "report.json"]
    for file_name in written:
        assert (rescored / file_name).read_bytes() == (out / file_name).read_bytes(), file_name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: run_hashes(name, Path(tmp)) for name in RUNS}
    old = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    for name, pinned in hashes.items():
        if name not in old:
            print(f"{name}: new", file=sys.stderr)
        elif old[name] == pinned:
            print(f"{name}: unchanged", file=sys.stderr)
        else:
            changed = sorted(k for k in pinned.keys() | old[name].keys()
                             if pinned.get(k) != old[name].get(k))
            print(f"{name}: changed ({', '.join(changed)})", file=sys.stderr)
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, hashes.values()))} hashes -> {PINNED}", file=sys.stderr)
