"""The benchmark's view of the package: ``perfbench/replay.py`` and ``perfbench/worker.py``.

Both are imported read-only from their directory and driven as the
benchmark drives them (its ``--trace 1`` route), so a refactor that breaks
what they call, or the attribute paths they read off a recorded step, fails
here. Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from logit_anchor import cli
from logit_anchor.strategies import CONTRASTIVE_KINDS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ARGS = {"scene": "default", "seeds": "0:4", "max_steps": 20}  # the five default strategies


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``replay`` and ``worker`` modules.

    perfbench imports its siblings by bare name, so they load with its
    directory on ``sys.path``; then ``sys.path`` is put back and the
    siblings leave ``sys.modules``, so no later bare import finds them. No
    bytecode is cached under ``perfbench/``.
    """
    names = ("reference", "replay", "workloads", "worker")  # worker imports reference
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        replay = importlib.import_module("replay")
        worker = importlib.import_module("worker")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name in names:
            sys.modules.pop(name, None)
    return replay, worker


def test_replay_and_worker_see_the_cli_outputs(perfbench, tmp_path, monkeypatch):
    replay, worker = perfbench
    monkeypatch.delenv("LOGIT_ANCHOR_SEED", raising=False)
    cli_out = tmp_path / "cli"
    assert cli.main([
        "simulate", "--seeds", ARGS["seeds"], "--max-steps", str(ARGS["max_steps"]),
        "--jobs", "1", "--format", "json", "--out", str(cli_out),
    ]) == 0
    cli_report = (cli_out / "report.json").read_bytes()

    tracer = replay.Tracer()
    data, records = replay.simulate(tracer, dict(ARGS), tmp_path / "replay")
    assert data == cli_report
    assert replay.evaluate(replay.Tracer(), cli_out, tmp_path / "rescored") == cli_report
    assert worker.record_bytes(records) > 0

    # The call-count law, in the records and in the traced provider calls.
    spans: dict[str, int] = {}
    for span in tracer.spans:
        if span[replay.NAME] == "simulator":
            label = span[replay.RUN_ID].rpartition("#")[0]
            spans[label] = spans.get(label, 0) + 1
    assert len(records) == 5 * 4
    steps: dict[str, int] = {}
    for record in records:
        law = 2 if record.strategy.partition("(")[0] in CONTRASTIVE_KINDS else 1
        assert set(record.provider_calls) == {law}
        assert [step.provider_calls for step in record.steps] == list(record.provider_calls)
        steps[record.strategy] = steps.get(record.strategy, 0) + law * len(record.steps)
    assert spans == steps
