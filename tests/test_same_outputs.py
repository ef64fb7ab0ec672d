"""``tools/same_outputs.py``: the byte-for-byte comparison of two source trees' outputs."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# A short stand-in for the tool's commands: a small simulate, and the golden corpus.
COMMANDS = (
    ("sim", ["simulate", "--strategies", "baseline;flb", "--seeds", "0:3", "--max-steps", "30",
             "--out", "sim"]),
    next(command for command in same_outputs.COMMANDS if command[0] == "golden"),
)


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_identical_trees_show_no_difference(tmp_path):
    assert same_outputs.compare(_copy_src(tmp_path / "a"), _copy_src(tmp_path / "b"),
                                COMMANDS) == []


def test_changed_default_bin_width_is_reported_at_report_json(tmp_path):
    changed = _copy_src(tmp_path / "b")
    config = changed / "logit_anchor" / "config.py"
    text = config.read_text(encoding="utf-8")
    assert text.count("DEFAULT_BIN_WIDTH = 20\n") == 1
    config.write_text(text.replace("DEFAULT_BIN_WIDTH = 20\n", "DEFAULT_BIN_WIDTH = 7\n"),
                      encoding="utf-8")
    diff = same_outputs.compare(_copy_src(tmp_path / "a"), changed, COMMANDS)
    assert "sim/report.json" in diff
    assert not [name for name in diff if name.startswith("golden")]


def test_a_file_on_one_side_only_differs(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "d").mkdir(parents=True)
        (tmp_path / side / "d" / "same.txt").write_bytes(b"x")
    (tmp_path / "b" / "d" / "extra.txt").write_bytes(b"")
    assert same_outputs.differing(tmp_path / "a", tmp_path / "b") == ["d/extra.txt"]
