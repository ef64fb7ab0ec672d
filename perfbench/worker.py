"""Run one workload inside a fresh process; ``run.py`` starts it.

Usage:
  python3 worker.py prepare --workload W --seed N --work DIR
  python3 worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1

``prepare`` writes the workload's inputs. ``measure`` drives
``logit_anchor.cli.main`` in this process, one repetition after another,
until ``--seconds`` have passed; a warm-up repetition comes first and is not
timed. Before and after each repetition it times the host-speed reference
(``reference.py``); between repetitions it collects garbage and, now and
then, times set-up in a fresh process (``setup_probe.py``), bracketed by
the reference too. With
``--trace 1`` it alternates each CLI repetition with a traced replay
(``replay.py``) and reports per-layer figures instead. It prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import logit_anchor  # noqa: E402
from logit_anchor.cli import main as cli_main  # noqa: E402
from logit_anchor.config import build_run_config  # noqa: E402
from logit_anchor.metrics import TraceLexicon, summarize_record  # noqa: E402
from logit_anchor.runner import run_many  # noqa: E402
from logit_anchor.strategies import CONTRASTIVE_KINDS  # noqa: E402

import replay  # noqa: E402
from reference import REFERENCE_S, ReferenceTimer  # noqa: E402
from workloads import LONG_MAX_STEPS, LONG_SEEDS, Workload  # noqa: E402

MIN_REPS = 3
# Set-up samples per run, spread evenly over it.
PROBES = 11
PROBE_TIMEOUT_S = 60
# Share of a replay call, timed from outside, that its root spans may leave out.
UNTRACED_SHARE = 0.01


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Session:
    """One workload's measurement: invocations, checks and samples."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.argv_out = workload.work / "out"
        self.attempted = 0
        self.failed: set[int] = set()
        self.first_report: bytes | None = None
        self.probes: list[dict] = []
        cfg = build_run_config(**workload.simulate_args())
        self.calls_per_step = {
            s.label(): 2.0 if s.kind in CONTRASTIVE_KINDS else 1.0 for s in cfg.strategies
        }
        self._devnull = open(os.devnull, "w")

    def close(self):
        self._devnull.close()

    def fail(self, what: str) -> None:
        """Count the current invocation as failed."""
        self.failed.add(self.attempted)
        print(f"check failed: {what}", file=sys.stderr)

    def invoke_cli(self) -> tuple[float, bytes | None]:
        """One CLI repetition: wall seconds and its report, checked."""
        shutil.rmtree(self.argv_out, ignore_errors=True)
        gc.collect()
        argv = self.w.argv(self.argv_out)
        with contextlib.redirect_stdout(self._devnull):
            t0 = perf_counter()
            code = cli_main(argv)
            wall = perf_counter() - t0
        self.attempted += 1
        if code != 0:
            self.fail(f"repetition {self.attempted}: exit code {code}")
            return wall, None
        data = (self.argv_out / "report.json").read_bytes()
        if self.first_report is None:
            problem = self.check_report(data)
            if problem:
                self.fail(f"repetition {self.attempted}: {problem}")
                return wall, None
            self.first_report = data
        elif data != self.first_report:
            self.fail(f"repetition {self.attempted}: report.json differs from the first")
            return wall, None
        return wall, data

    def check_report(self, data: bytes) -> str | None:
        """Checks that need no other output of this run."""
        report = json.loads(data)
        blocks = report["strategies"]
        if set(blocks) != set(self.calls_per_step):
            return f"report strategies {sorted(blocks)} are not the workload's"
        for label, block in blocks.items():
            got = block["traces"]["provider_calls_per_token"]
            if got != self.calls_per_step[label]:
                return f"{label}: provider_calls_per_token {got} != {self.calls_per_step[label]}"
            if self.w.name == "simulate-long" and block["traces"]["tokens"] != LONG_SEEDS * LONG_MAX_STEPS:
                return f"{label}: a run ended before the {LONG_MAX_STEPS}-step cap"
        if self.w.name == "rescore":
            if data != (self.w.source_dir / "report.json").read_bytes():
                return "report.json differs from that of the simulate run that wrote the traces"
        return None

    def steps(self) -> int:
        report = json.loads(self.first_report)
        return sum(b["traces"]["tokens"] for b in report["strategies"].values())

    def probe(self, time_reference=None) -> None:
        """Time set-up once in a fresh process.

        With a reference timer, the reference is timed just before and just
        after, and the sample gets the ``scale`` to the reference host speed.
        """
        before = time_reference() if time_reference else None
        if self.w.name == "rescore":
            spec = {"manifest": str(self.w.source_dir / "manifest.json")}
        else:
            spec = {"simulate": self.w.simulate_args()}
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(spec)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if time_reference:
            sample["scale"] = REFERENCE_S / ((before + time_reference()) / 2)
        self.probes.append(sample)

    def probe_if_due(self, done: float, time_reference=None) -> bool:
        """Take a set-up sample if fewer than ``done`` of PROBES are taken."""
        if len(self.probes) < PROBES * done:
            self.probe(time_reference)
            return True
        return False

    def finish_probes(self, time_reference=None) -> None:
        while len(self.probes) < PROBES:
            self.probe(time_reference)

    def replay(self, tracer: replay.Tracer):
        """One traced replay of the measured command; returns its records."""
        out = self.w.work / "replay"
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        t0 = perf_counter_ns()
        if self.w.name == "rescore":
            data, records = replay.evaluate(tracer, self.w.source_dir, out), []
        else:
            data, records = replay.simulate(tracer, self.w.simulate_args(), out)
        outside_ns = perf_counter_ns() - t0
        if data != self.first_report:
            self.fail(f"replay {self.attempted}: report.json differs from the CLI's")
        # Layer self times add up to the root spans by construction; this
        # checks that the root spans cover the call as timed from outside.
        untraced_ns = outside_ns - tracer.wall_ns()
        if not 0 <= untraced_ns <= outside_ns * UNTRACED_SHARE:
            self.fail(f"replay {self.attempted}: spans cover {tracer.wall_ns()} ns "
                      f"of the {outside_ns} ns call")
        self.check_call_law(tracer, records)
        return records

    def check_call_law(self, tracer: replay.Tracer, records) -> None:
        calls: dict[str, int] = {}
        for s in tracer.spans:
            if s[replay.NAME] == "simulator":
                label = s[replay.RUN_ID].rpartition("#")[0]
                calls[label] = calls.get(label, 0) + 1
        steps: dict[str, int] = {}
        for r in records:
            steps[r.strategy] = steps.get(r.strategy, 0) + len(r.steps)
        for label, n in steps.items():
            if calls.get(label, 0) != n * self.calls_per_step[label]:
                self.fail(f"{label}: {calls.get(label, 0)} provider calls over {n} steps")

    def setup_metrics(self) -> dict:
        """Raw set-up times; ``setup_s`` is scaled where the samples have a scale."""
        raw = [p["import_s"] + p["resolve_s"] for p in self.probes]
        return {
            "import_s": quartiles([p["import_s"] for p in self.probes]),
            "resolve_s": quartiles([p["resolve_s"] for p in self.probes]),
            "wall_setup_s": quartiles(raw),
            "setup_s": quartiles([t * p.get("scale", 1.0) for t, p in zip(raw, self.probes)]),
        }


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the figures printed beside them."""
    time_reference = ReferenceTimer()
    try:
        session.invoke_cli()  # warm-up
        session.probe()
        session.probes.clear()
        # Each repetition is scaled by the mean of the reference times just
        # before and just after it, which brackets it in time.
        before = time_reference()
        rates, wall_rates, references = [], [], []
        reps = 0
        start = perf_counter()
        while reps < MIN_REPS or perf_counter() - start < seconds:
            reps += 1
            wall, data = session.invoke_cli()
            after = time_reference()
            references.append(after)
            if data is not None:
                wall_rates.append(session.steps() / wall)
                rates.append(wall_rates[-1] * (before + after) / 2 / REFERENCE_S)
            probed = session.probe_if_due((perf_counter() - start) / seconds, time_reference)
            before = time_reference() if probed else after
        session.finish_probes(time_reference)
    finally:
        time_reference.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if session.first_report is not None:
        session.replay(replay.Tracer())  # output check only; after the RSS reading
    setup = session.setup_metrics()
    metrics = {
        "steps_per_s": {**quartiles(rates or [0.0]), "unit": "1/s"},
        "setup_s": {**setup["setup_s"], "unit": "s"},
        "peak_rss_mb": {**quartiles([peak_mb]), "unit": "MB"},
    }
    printed = {
        "wall_steps_per_s": {**quartiles(wall_rates or [0.0]), "unit": "1/s"},
        "wall_setup_s": {**setup["wall_setup_s"], "unit": "s"},
        "reference_s": {**quartiles(references), "unit": "s"},
    }
    return metrics, printed


def record_bytes(records) -> int:
    """Bytes of the numpy arrays the returned GenerationRecords hold (computed)."""
    seen: dict[int, int] = {}
    for record in records:
        for step in record.steps:
            for arr in (step.raw_logits.scores, step.raw_logits.mask,
                        step.adjusted_logits.scores, step.adjusted_logits.mask,
                        step.dist.probs):
                seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def layer_metrics(session: Session, tracer: replay.Tracer, records, overheads) -> dict:
    own = tracer.self_ns()
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    run_ms = []
    wall_s = tracer.wall_ns() / 1e9
    for s, ns in zip(tracer.spans, own):
        name = s[replay.NAME]
        self_s[name] = self_s.get(name, 0.0) + ns / 1e9
        count[name] = count.get(name, 0) + 1
        if name == "strategies":
            run_ms.append((s[replay.END] - s[replay.START]) / 1e6)
    steps = sum(len(r.steps) for r in records)
    calls = count.get("simulator", 0)
    sim_s = self_s.get("simulator", 0.0)
    strat_s = self_s.get("strategies", 0.0)
    read_s = self_s.get("metrics.read_trace", 0.0)
    score_s = self_s.get("metrics.score", 0.0)

    run_many_s = summarize_s = trace_bytes = 0.0
    if records:
        cfg = build_run_config(**session.w.simulate_args())
        t0 = perf_counter()
        again = run_many(cfg.scene, cfg.strategies, cfg.seeds, max_steps=cfg.max_steps,
                         temperature=cfg.temperature, prompt_id=cfg.scene_name, jobs=1)
        run_many_s = perf_counter() - t0
        if [r.token_ids for r in again] != [r.token_ids for r in records]:
            session.fail("run_many decoded other tokens than run_strategy")
        del again
        lexicon = TraceLexicon.from_scene(cfg.scene)
        t0 = perf_counter()
        for r in records:
            summarize_record(r, lexicon)
        summarize_s = perf_counter() - t0
        trace_bytes = sum(p.stat().st_size for p in (session.w.work / "replay" / "traces").rglob("*.jsonl"))

    def per(a, b):
        return a / b if b else 0.0

    setup = session.setup_metrics()
    values = {
        "simulator.calls": (calls, "count"),
        "simulator.calls_per_step": (per(calls, steps), "calls/step"),
        "simulator.self_s": (sim_s, "s"),
        "simulator.us_per_call": (per(sim_s, calls) * 1e6, "us"),
        "simulator.decode_share": (per(sim_s, sim_s + strat_s), "ratio"),
        "strategies.self_s": (strat_s, "s"),
        "strategies.us_per_step": (per(strat_s, steps) * 1e6, "us"),
        "runner.run_ms_p50": (statistics.median(run_ms) if run_ms else 0.0, "ms"),
        "runner.run_ms_p90": (statistics.quantiles(run_ms, n=10)[-1] if len(run_ms) > 1 else 0.0, "ms"),
        "runner.run_many_s": (run_many_s, "s"),
        "core.record_bytes_per_step": (per(record_bytes(records), steps), "bytes/step"),
        "metrics.summarize_s": (summarize_s, "s"),
        "metrics.write_trace_s": (self_s.get("metrics.write_trace", 0.0), "s"),
        "metrics.trace_bytes_per_step": (per(trace_bytes, steps), "bytes/step"),
        "metrics.read_trace_s": (read_s, "s"),
        "metrics.score_s": (score_s, "s"),
        "metrics.read_score_share": (per(read_s + score_s, wall_s), "ratio"),
        "config.import_s": (setup["import_s"]["median"], "s"),
        "config.resolve_s": (setup["resolve_s"]["median"], "s"),
        "config.self_s": (self_s.get("config", 0.0), "s"),
        "cli.residual_s": (self_s.get("cli", 0.0), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_ratio": (statistics.median(overheads), "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def measure_layers(session: Session, seconds: float) -> dict:
    session.invoke_cli()  # warm-up, CLI and replay
    session.replay(replay.Tracer())
    session.probe()
    session.probes.clear()
    cli_walls, runs = [], []
    records = []
    start = perf_counter()
    while len(runs) < MIN_REPS or perf_counter() - start < seconds:
        # The pair's order alternates, so that neither side always runs
        # first or always follows a set-up probe.
        replay_first = len(runs) % 2 == 1
        tracer = replay.Tracer()
        if replay_first:
            records = session.replay(tracer)
        wall, _ = session.invoke_cli()
        if not replay_first:
            records = session.replay(tracer)
        cli_walls.append(wall)
        runs.append((tracer.wall_ns() / 1e9, tracer))
        session.probe_if_due((perf_counter() - start) / seconds)
    session.finish_probes()
    # Each replay over the CLI repetition paired with it, so that slow
    # stretches of the shared host fall on both sides of a ratio.
    overheads = [wall / cli_wall for (wall, _), cli_wall in zip(runs, cli_walls)]
    # The median replay, so its layer times still add up to its own wall time.
    _, tracer = sorted(runs, key=lambda run: run[0])[(len(runs) - 1) // 2]
    tracer.write(session.w.work / "spans.jsonl")
    return layer_metrics(session, tracer, records, overheads)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if Path(logit_anchor.__file__).resolve().parent != (SRC / "logit_anchor").resolve():
        print(f"error: imported logit_anchor from {logit_anchor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = Workload(args.workload, args.seed, Path(args.work))
    if args.mode == "prepare":
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            workload.prepare(cli_main)
        return 0
    session = Session(workload)
    try:
        if args.trace:
            metrics, detail = measure_layers(session, args.seconds), {}
        else:
            detail, printed = measure_end_to_end(session, args.seconds)
            metrics = {name: {"value": d["median"], "unit": d["unit"]} for name, d in detail.items()}
            detail.update(printed)
    finally:
        session.close()
    print(json.dumps({
        "attempted": session.attempted,
        "failed": len(session.failed),
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
