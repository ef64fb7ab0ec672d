"""The benchmark's view of the package: ``perfbench/replay.py`` and ``perfbench/worker.py``.

Both are imported read-only from their directory and driven as the
benchmark drives them (its ``--trace 1`` route), so a refactor that breaks
what they call, or the attribute paths they read off a recorded step, fails
here. Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

import oracle
from logit_anchor import cli
from logit_anchor.metrics import TraceLexicon
from logit_anchor.simulator import scene_to_dict
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


# The strong_decay golden run (tests/test_golden.py), and a run on a scene with
# capitalised nouns, cognition objects among them.
SCORED_RUNS = {
    "strong_decay": [
        "--scene", "strong-decay", "--seeds", "0:8", "--max-steps", "40",
        "--strategies", "baseline;baseline:beta=0.1;greedy;greedy:beta=0.3;vcd;icd;m3id;flb",
        "--temperature", "0.02",
    ],
    "capitalised": [
        "--scene", None, "--seeds", "0:12", "--max-steps", "40",
        "--strategies", "baseline;vcd;flb;flb:mask=nouns",
    ],
}


@pytest.mark.parametrize("name", list(SCORED_RUNS))
def test_replay_scores_the_cli_report_byte_for_byte(perfbench, tmp_path, monkeypatch, name):
    """The benchmark scores through its own frozen copy of the string-scan path and
    counts any byte apart from the CLI's ``report.json`` as a failed invocation."""
    replay, _ = perfbench
    monkeypatch.delenv("LOGIT_ANCHOR_SEED", raising=False)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene_to_dict(oracle.capitalised_scene())))
    argv = [str(scene_path) if arg is None else arg for arg in SCORED_RUNS[name]]
    out = tmp_path / "sim"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", *argv, "--format", "json", "--out", str(out)]) == 0
    settings, scene, stats_by_label = cli.read_trace_dir(out)
    lexicon = TraceLexicon.from_scene(scene)
    scored = replay.report_bytes(cli._trace_report(settings, stats_by_label, lexicon, scene))
    replayed = replay.trace_report(replay.Tracer(), stats_by_label, lexicon, scene,
                                   settings["bin_width"])
    assert replay.report_bytes({**settings, **replayed}) == scored
    assert scored == (out / "report.json").read_bytes()
