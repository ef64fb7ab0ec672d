"""Every demo runs on small inputs, and every exported name resolves."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

import logit_anchor

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DECODING = ("--runs", "4", "--max-steps", "20")
ARGS = {
    "ablation_masks.py": DECODING,
    "bench_cost_model.py": (
        "--runs", "3", "--pad-us", "20", "--max-steps", "20", "--min-tokens", "1",
    ),
    "compare_strategies.py": DECODING,
    "entropy_after_articles.py": DECODING,
    "positional_decay.py": DECODING,
    "score_golden_corpus.py": ("--verbose",),
    "weight_schedules.py": (),
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_demo_runs(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *ARGS[name]])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def test_star_import_resolves_every_export():
    namespace: dict = {}
    exec("from logit_anchor import *", namespace)
    assert set(logit_anchor.__all__) <= set(namespace)
