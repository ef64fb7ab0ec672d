"""Traced replay of a CLI command through the package's public functions.

The replay does the same work as ``logit_anchor.cli.main`` for ``simulate``
and ``evaluate --traces``, but calls each layer itself, so that a span can be
recorded around every call into a module: ``config`` (resolving the scene
and strategies), ``strategies`` (``runner.run_strategy`` minus the provider
calls inside it), ``simulator`` (each provider call, through the public
``wrap=`` hook), ``metrics.write_trace``, ``metrics.read_trace`` and
``metrics.score``. What is left of the command's root ``cli`` span (report
assembly, JSON writing, directories) is the CLI's residual.

The replay writes ``report.json`` exactly as the CLI does; the benchmark
compares the two byte for byte, which shows that the trace timed the same
program. It calls no private ``cli`` helper.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from logit_anchor.cli import sanitize_label
from logit_anchor.config import DEFAULT_BIN_WIDTH, build_run_config, load_json_file
from logit_anchor.metrics import (
    TraceLexicon,
    article_stats,
    corpus_metrics,
    entropy_stats,
    hal_noun_rate,
    positional_curves,
    read_trace,
    sentence_initial_stats,
    simulated_corpus,
    write_trace,
)
from logit_anchor.runner import run_strategy
from logit_anchor.simulator import scene_from_dict, scene_to_dict

# Span fields, in the order each span list holds them.
NAME, CALL, START, END, PARENT, RUN_ID = range(6)
SPAN_FIELDS = ("name", "call", "start_ns", "end_ns", "parent", "run_id")


class Tracer:
    """Spans kept in memory: [name, call, start_ns, end_ns, parent, run_id].

    ``parent`` is the index of the enclosing span, or -1 for a root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, call: str, run_id: str | None = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, call, perf_counter_ns(), 0, parent, run_id])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str, call: str, run_id: str | None = None):
        index = self.begin(name, call, run_id)
        try:
            yield
        finally:
            self.end(index)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def wall_ns(self) -> int:
        """Total duration of the root spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")


class TimedProvider:
    """Forwards the provider protocol, with a ``simulator`` span per call."""

    def __init__(self, inner, tracer: Tracer, run_id: str):
        self._inner = inner
        self._tracer = tracer
        self._run_id = run_id
        self._call = f"{type(inner).__name__}.logits"

    @property
    def vocab(self):
        return self._inner.vocab

    @property
    def eos_id(self):
        return self._inner.eos_id

    @property
    def calls(self):
        return self._inner.calls

    def logits(self, history, t, rng=None):
        index = self._tracer.begin("simulator", self._call, self._run_id)
        try:
            return self._inner.logits(history, t, rng)
        finally:
            self._tracer.end(index)


def report_bytes(report: dict) -> bytes:
    """``report.json`` as the CLI writes it."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _score(tracer: Tracer, call: str, fn, *args):
    with tracer.span("metrics.score", call):
        return fn(*args)


def trace_report(tracer: Tracer, stats_by_label: dict, lexicon, scene, bin_width: int) -> dict:
    """The per-strategy report block of ``simulate`` and ``evaluate --traces``."""
    strategies = {}
    curves = {}
    for label, runs in stats_by_label.items():
        captions, annotations, identity = _score(
            tracer, "simulated_corpus", simulated_corpus,
            runs, lexicon, scene.gt_objects, scene.cognition_objects,
        )
        corpus = _score(tracer, "corpus_metrics", corpus_metrics, captions, annotations, identity)
        tokens = sum(len(run.steps) for run in runs)
        calls = sum(step.provider_calls for run in runs for step in run.steps)
        initial = _score(tracer, "sentence_initial_stats", sentence_initial_stats, runs)
        entropy = _score(tracer, "entropy_stats", entropy_stats, runs, lexicon)
        strategies[label] = {
            "corpus": corpus.to_dict(),
            "traces": {
                "tokens": tokens,
                "provider_calls_per_token": calls / tokens if tokens else 0.0,
                "hal_noun_rate": _score(tracer, "hal_noun_rate", hal_noun_rate, runs, lexicon),
                "sentence_initial_the": {
                    "fraction": initial.the_fraction,
                    "count": initial.the_count,
                    "runs": initial.n_runs,
                },
                "entropy": {
                    name: {"mean": cell.mean_entropy, "count": cell.count}
                    for name, cell in entropy.items()
                },
                "article": _score(tracer, "article_stats", article_stats, runs, lexicon).to_dict(),
            },
        }
        curves[label] = [
            {"lo": b.lo, "hi": b.hi, "gt_mass": b.gt_mass,
             "hal_mass": b.hal_mass, "slots": b.slots}
            for b in _score(tracer, "positional_curves", positional_curves, runs, lexicon, bin_width)
        ]
    return {"strategies": strategies, "curves": curves}


def simulate(tracer: Tracer, args: dict, out: Path):
    """Replay ``simulate --format json`` with flags ``args``; returns (report, records)."""
    # The work is a function of its own, so that freeing its locals falls
    # inside the root span.
    with tracer.span("cli", "simulate"):
        return _simulate(tracer, args, out)


def _simulate(tracer: Tracer, args: dict, out: Path):
    with tracer.span("config", "build_run_config"):
        cfg = build_run_config(**args)
    records = []
    for strategy in cfg.strategies:
        label = strategy.label()
        for seed in cfg.seeds:
            run_id = f"{label}#{seed}"

            def wrap(provider, run_id=run_id):
                return TimedProvider(provider, tracer, run_id)

            with tracer.span("strategies", "run_strategy", run_id):
                records.append(run_strategy(
                    cfg.scene, strategy, seed=seed, max_steps=cfg.max_steps,
                    temperature=cfg.temperature, prompt_id=cfg.scene_name, wrap=wrap,
                ))
    with tracer.span("metrics.score", "TraceLexicon.from_scene"):
        lexicon = TraceLexicon.from_scene(cfg.scene)
    trace_root = out / "traces"
    trace_root.mkdir(parents=True, exist_ok=True)
    stats_by_label = {s.label(): [] for s in cfg.strategies}
    for record in records:
        strategy_dir = trace_root / sanitize_label(record.strategy)
        strategy_dir.mkdir(parents=True, exist_ok=True)
        with tracer.span("metrics.write_trace", "write_trace", f"{record.strategy}#{record.seed}"):
            stats = write_trace(strategy_dir / f"{record.seed}.jsonl", record, lexicon)
        stats_by_label[record.strategy].append(stats)
    report = {
        "scene": cfg.scene_name,
        "scene_spec": scene_to_dict(cfg.scene),
        "seeds": list(cfg.seeds),
        "max_steps": cfg.max_steps,
        "temperature": cfg.temperature,
        "bin_width": cfg.bin_width,
        **trace_report(tracer, stats_by_label, lexicon, cfg.scene, cfg.bin_width),
    }
    manifest = {
        "command": "simulate",
        "scene": cfg.scene_name,
        "scene_spec": scene_to_dict(cfg.scene),
        "strategies": list(stats_by_label),
        "seeds": list(cfg.seeds),
        "max_steps": cfg.max_steps,
        "temperature": cfg.temperature,
        "bin_width": cfg.bin_width,
        "full_dist": False,
    }
    (out / "manifest.json").write_bytes(report_bytes(manifest))
    data = report_bytes(report)
    (out / "report.json").write_bytes(data)
    return data, records


def evaluate(tracer: Tracer, traces_dir: Path, out: Path) -> bytes:
    """Replay ``evaluate --traces traces_dir --format json``; returns the report."""
    with tracer.span("cli", "evaluate"):
        return _evaluate(tracer, traces_dir, out)


def _evaluate(tracer: Tracer, traces_dir: Path, out: Path) -> bytes:
    with tracer.span("config", "load_manifest"):
        manifest = load_json_file(traces_dir / "manifest.json")
        scene = scene_from_dict(manifest["scene_spec"])
    stats_by_label = {}
    for label in manifest["strategies"]:
        files = sorted(
            (traces_dir / "traces" / sanitize_label(label)).glob("*.jsonl"),
            key=lambda p: int(p.stem),
        )
        runs = []
        for path in files:
            with tracer.span("metrics.read_trace", "read_trace", f"{label}#{path.stem}"):
                runs.append(read_trace(path))
        stats_by_label[label] = runs
    with tracer.span("metrics.score", "TraceLexicon.from_scene"):
        lexicon = TraceLexicon.from_scene(scene)
    bin_width = int(manifest.get("bin_width", DEFAULT_BIN_WIDTH))
    report = {
        "scene": manifest.get("scene", "custom"),
        "scene_spec": scene_to_dict(scene),
        "seeds": manifest.get("seeds", []),
        "max_steps": manifest.get("max_steps"),
        "temperature": manifest.get("temperature"),
        "bin_width": bin_width,
        **trace_report(tracer, stats_by_label, lexicon, scene, bin_width),
    }
    out.mkdir(parents=True, exist_ok=True)
    data = report_bytes(report)
    (out / "report.json").write_bytes(data)
    return data
