"""Command-line interface.

Subcommands: simulate, evaluate, sweep, bench, ablate. All file outputs are
deterministic for a fixed configuration: reports are JSON with sorted keys
(plus CSV mirrors), traces are JSONL, and nothing timestamped or
machine-specific is ever written, so repeated invocations produce identical
bytes regardless of --jobs.

Exit codes: 0 success, 2 configuration error, 3 input-data error,
4 internal invariant violation, 141 (128 + SIGPIPE, as for a program the
signal ends) when stdout is closed before the summary is printed, as in
``logit-anchor simulate ... | head -1``. Every command writes its files
before it prints, so the files of such a run are complete; nothing more is
printed and no traceback is shown.

``--jobs`` is accepted for compatibility and must be >= 1; it has no
effect. Decoding runs in one process: all seeds of a strategy are decoded
together as rows of one batch.

Config input (files, flags, seeds, the seed env override) is resolved in
``config``. Scoring is done here, once: ``_score`` scores one strategy label's
runs for simulate and ``evaluate --traces`` (via ``_trace_report``), sweep
and ablate; ``_run_and_score`` is the one ``run_many`` over a strategy list
that sweep and ablate share, so those commands only build strategies and rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from itertools import product
from pathlib import Path
from typing import NamedTuple

from .bench import CostModel, run_bench
from .config import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_MAX_STEPS,
    DEFAULT_SEEDS,
    DEFAULT_TEMPERATURE,
    build_run_config,
    load_config_file,
    load_json_file,
    parse_strategies,
    read_float,
    read_float_list,
    read_int,
    read_names,
    resolve_scene,
    resolve_seeds,
    setting,
)
from .data import load_captions_jsonl
from .errors import ConfigError, InputError, LogitAnchorError
from .metrics import (
    Annotation,
    MetricsReport,
    ObjectLexicon,
    SentenceInitialStats,
    TraceLexicon,
    article_stats,
    corpus_metrics,
    entropy_stats,
    hal_noun_rate,
    positional_curves,
    read_trace,
    sentence_initial_stats,
    simulated_corpus,
    summarize_record,
    write_trace,
)
from .runner import run_many
from .simulator import scene_from_dict, scene_to_dict
from .strategies import FlbConfig, Strategy
from .weighting import WeightSchedule

REPORT_COLUMNS = (
    "strategy", "chair_i", "chair_s", "cover", "cog", "recall", "object_score",
    "hal_noun_rate", "sentence_initial_the", "provider_calls_per_token", "tokens",
)
CURVE_COLUMNS = ("strategy", "lo", "hi", "gt_mass", "hal_mass", "slots")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    """One line per row dict: its values under the ``header`` columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[column] for column in header] for row in rows)


def _formats(args) -> set[str]:
    return {args.format} if args.format else {"csv", "json"}


def _write_report(args, name: str, payload, header, rows) -> Path:
    """``name``.json holds ``payload``, ``name``.csv the rows; --format picks."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats = _formats(args)
    if "json" in formats:
        _write_json(out / f"{name}.json", payload)
    if "csv" in formats:
        _write_csv(out / f"{name}.csv", header, rows)
    return out


def sanitize_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._,()=-]", "_", label)


class _Score(NamedTuple):
    """What every command reports for one strategy label's runs."""

    corpus: MetricsReport
    hal_noun_rate: float
    initial: SentenceInitialStats


def _score(runs, lexicon, scene) -> _Score:
    """Score one label's runs as a corpus of captions of ``scene``."""
    captions, annotations, identity = simulated_corpus(
        runs, lexicon, scene.gt_objects, scene.cognition_objects
    )
    return _Score(
        corpus_metrics(captions, annotations, identity),
        hal_noun_rate(runs, lexicon),
        sentence_initial_stats(runs),
    )


def _run_and_score(scene, scene_name, strategies, seeds, *, jobs, **run_kwargs):
    """One ``run_many`` over ``strategies``, summarized, scored per label."""
    lexicon = TraceLexicon.from_scene(scene)
    runs_by_label = {strategy.label(): [] for strategy in strategies}
    records = run_many(scene, strategies, seeds, prompt_id=scene_name, jobs=jobs, **run_kwargs)
    for record in records:
        runs_by_label[record.strategy].append(summarize_record(record, lexicon))
    return {label: _score(runs, lexicon, scene) for label, runs in runs_by_label.items()}


def _metric_row(score: _Score) -> dict:
    """The metric columns of a sweep or ablate row."""
    corpus = score.corpus
    return {
        "chair_i": corpus.chair_i,
        "chair_s": corpus.chair_s,
        "cover": corpus.cover,
        "cog": corpus.cog,
        "object_score": corpus.object_score,
        "hal_noun_rate": score.hal_noun_rate,
    }


def _flb(schedule: WeightSchedule, beta: float, mask: str) -> Strategy:
    return Strategy(kind="flb", flb=FlbConfig(schedule=schedule, beta=beta, l0_mask=mask))


def _trace_report(stats_by_label, lexicon, scene, bin_width):
    """The per-strategy report block shared by simulate and evaluate --traces."""
    strategies = {}
    curves = {}
    for label, runs in stats_by_label.items():
        score = _score(runs, lexicon, scene)
        tokens = sum(len(run.steps) for run in runs)
        calls = sum(step.provider_calls for run in runs for step in run.steps)
        initial = score.initial
        strategies[label] = {
            "corpus": score.corpus.to_dict(),
            "traces": {
                "tokens": tokens,
                "provider_calls_per_token": calls / tokens if tokens else 0.0,
                "hal_noun_rate": score.hal_noun_rate,
                "sentence_initial_the": {
                    "fraction": initial.the_fraction,
                    "count": initial.the_count,
                    "runs": initial.n_runs,
                },
                "entropy": {
                    name: {"mean": cell.mean_entropy, "count": cell.count}
                    for name, cell in entropy_stats(runs, lexicon).items()
                },
                "article": article_stats(runs, lexicon).to_dict(),
            },
        }
        curves[label] = [
            {"lo": b.lo, "hi": b.hi, "gt_mass": b.gt_mass,
             "hal_mass": b.hal_mass, "slots": b.slots}
            for b in positional_curves(runs, lexicon, bin_width)
        ]
    return {"strategies": strategies, "curves": curves}


def _report_rows(report):
    """One row dict per strategy, in label order, holding the REPORT_COLUMNS."""
    rows = []
    for label in sorted(report["strategies"]):
        corpus = report["strategies"][label]["corpus"]
        traces = report["strategies"][label]["traces"]
        initial = traces["sentence_initial_the"]["fraction"]
        rows.append({"strategy": label, **corpus, **traces, "sentence_initial_the": initial})
    return rows


def _write_trace_report(args, report) -> None:
    """report.json and report.csv, plus curves.csv, in --out."""
    out = _write_report(args, "report", report, REPORT_COLUMNS, _report_rows(report))
    if "csv" in _formats(args):
        curves = [
            {"strategy": label, **b}
            for label in sorted(report["curves"]) for b in report["curves"][label]
        ]
        _write_csv(out / "curves.csv", CURVE_COLUMNS, curves)


def _print_strategy_summary(report) -> None:
    for row in _report_rows(report):
        print(
            f"{row['strategy']:<56} chair_i={row['chair_i']:.4f} "
            f"cover={row['cover']:.4f} score={row['object_score']:.4f} "
            f"hal_rate={row['hal_noun_rate']:.4f}"
        )


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = build_run_config(
        config_path=args.config,
        scene=args.scene,
        strategies=args.strategies,
        seeds=args.seeds,
        max_steps=args.max_steps,
        temperature=args.temperature,
        bin_width=args.bin_width,
    )
    records = run_many(
        cfg.scene, cfg.strategies, cfg.seeds,
        max_steps=cfg.max_steps, temperature=cfg.temperature,
        prompt_id=cfg.scene_name, jobs=args.jobs,
    )
    lexicon = TraceLexicon.from_scene(cfg.scene)
    out = Path(args.out)
    trace_root = out / "traces"
    trace_root.mkdir(parents=True, exist_ok=True)

    labels = [s.label() for s in cfg.strategies]
    stats_by_label = {label: [] for label in labels}
    for record in records:
        strategy_dir = trace_root / sanitize_label(record.strategy)
        strategy_dir.mkdir(parents=True, exist_ok=True)
        stats = write_trace(
            strategy_dir / f"{record.seed}.jsonl",
            record, lexicon, full_dist=args.full_dist,
        )
        stats_by_label[record.strategy].append(stats)

    shared = {  # the fields report.json and manifest.json have in common
        "scene": cfg.scene_name,
        "scene_spec": scene_to_dict(cfg.scene),
        "seeds": list(cfg.seeds),
        "max_steps": cfg.max_steps,
        "temperature": cfg.temperature,
        "bin_width": cfg.bin_width,
    }
    report = {**shared, **_trace_report(stats_by_label, lexicon, cfg.scene, cfg.bin_width)}
    manifest = {
        **shared, "command": "simulate", "strategies": labels,
        "full_dist": bool(args.full_dist),
    }
    _write_json(out / "manifest.json", manifest)
    _write_trace_report(args, report)
    print(f"simulated {len(records)} runs over {len(cfg.seeds)} seeds -> {out}")
    _print_strategy_summary(report)
    return 0


# -- evaluate ---------------------------------------------------------------------


def _load_input_json(path):
    """A JSON input file; one that cannot be read or parsed is an input error."""
    try:
        return load_json_file(path)
    except ConfigError as exc:
        raise InputError(str(exc)) from exc


def _load_annotations_file(path: str) -> list[Annotation]:
    data = _load_input_json(path)
    if not isinstance(data, list):
        raise InputError(f"{path}: annotations must be a JSON array")
    try:
        return [Annotation.from_dict(item) for item in data]
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _evaluate_corpus(args) -> int:
    missing = [
        flag for flag, value in (
            ("--captions", args.captions),
            ("--annotations", args.annotations),
            ("--lexicon", args.lexicon),
        ) if value is None
    ]
    if missing:
        raise ConfigError(
            "evaluate needs --traces, or all of --captions/--annotations/--lexicon "
            f"(missing {', '.join(missing)})"
        )
    captions_path = Path(args.captions)
    try:
        captions_text = captions_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {captions_path}: {exc}") from exc
    captions = load_captions_jsonl(captions_text, source=str(captions_path))
    annotations = _load_annotations_file(args.annotations)
    lexicon_data = _load_input_json(args.lexicon)
    try:
        lexicon = ObjectLexicon.from_dict(lexicon_data)
    except (ConfigError, InputError) as exc:
        raise InputError(f"{args.lexicon}: {exc}") from exc

    report_obj = corpus_metrics(captions, annotations, lexicon)
    for warning in report_obj.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = {"corpus": report_obj.to_dict()}
    if args.out:
        _write_report(
            args, "report", report,
            ("chair_i", "chair_s", "cover", "cog", "recall", "object_score",
             "captions", "matched", "mentions", "hallucinated",
             "gt", "covered", "hal_captions", "cognition_hits"),
            [{**report["corpus"], **report["corpus"]["counts"]}],
        )
    print(
        f"captions={report_obj.n_matched}/{report_obj.n_captions} "
        f"chair_i={report_obj.chair_i:.4f} chair_s={report_obj.chair_s:.4f} "
        f"cover={report_obj.cover:.4f} cog={report_obj.cog:.4f} "
        f"object_score={report_obj.object_score:.4f}"
    )
    return 0


def _trace_seed(path: Path) -> int:
    """The seed a trace file is named after; any other name is an input error."""
    try:
        return int(path.stem)
    except ValueError:
        raise InputError(f"{path}: not a trace file (expected <seed>.jsonl)") from None


def read_trace_dir(traces_dir: Path):
    """Load a simulate output directory: manifest, scene, grouped run stats.

    A manifest that cannot be read, is not a JSON object, lacks ``scene_spec``
    or ``strategies``, or holds a bad scene, label list or ``bin_width`` is an
    input error (exit 3) naming the file and the key; so is a file under
    ``traces/<label>/`` not named ``<seed>.jsonl``, or whose header holds
    another seed. The returned manifest
    holds ``bin_width`` as read (the default when absent).
    """
    manifest_path = traces_dir / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"{traces_dir}: no manifest.json; not a simulate output")
    manifest = _load_input_json(manifest_path)
    try:
        if not isinstance(manifest, dict):
            raise ConfigError(f"must be a JSON object, got {type(manifest).__name__}")
        missing = sorted({"scene_spec", "strategies"} - set(manifest))
        if missing:
            raise ConfigError(f"missing key {missing[0]!r}")
        scene = scene_from_dict(manifest["scene_spec"])
        labels = read_names(manifest["strategies"], "strategies")
        bin_width = read_int(manifest.get("bin_width", DEFAULT_BIN_WIDTH), "bin_width")
        if bin_width < 1:
            raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
        manifest = {**manifest, "bin_width": bin_width}
    except ConfigError as exc:
        raise InputError(f"{manifest_path}: {exc}") from exc
    stats_by_label = {}
    for label in labels:
        strategy_dir = traces_dir / "traces" / sanitize_label(label)
        if not strategy_dir.is_dir():
            raise InputError(f"{traces_dir}: missing trace directory for {label!r}")
        files = sorted(strategy_dir.glob("*.jsonl"), key=_trace_seed)
        if not files:
            raise InputError(f"{traces_dir}: no traces for {label!r}")
        stats_by_label[label] = [read_trace(path) for path in files]
        for path, run in zip(files, stats_by_label[label]):
            if run.seed != _trace_seed(path):
                raise InputError(f"{path}: header seed {run.seed} does not match the file name")
    return manifest, scene, stats_by_label


def _evaluate_traces(args) -> int:
    manifest, scene, stats_by_label = read_trace_dir(Path(args.traces))
    lexicon = TraceLexicon.from_scene(scene)
    bin_width = manifest["bin_width"]  # read and checked by read_trace_dir
    report = {
        "scene": manifest.get("scene", "custom"),
        "scene_spec": scene_to_dict(scene),
        "seeds": manifest.get("seeds", []),
        "max_steps": manifest.get("max_steps"),
        "temperature": manifest.get("temperature"),
        "bin_width": bin_width,
        **_trace_report(stats_by_label, lexicon, scene, bin_width),
    }
    if args.out:
        _write_trace_report(args, report)
    n_runs = sum(len(v) for v in stats_by_label.values())
    print(f"evaluated {n_runs} stored runs from {args.traces}")
    _print_strategy_summary(report)
    return 0


def cmd_evaluate(args) -> int:
    if args.traces:
        return _evaluate_traces(args)
    return _evaluate_corpus(args)


# -- sweep ------------------------------------------------------------------------


_SWEEP_KEYS = {
    "scene", "gammas", "lams", "betas", "schedules", "mask",
    "seeds", "max_steps", "temperature",
}


def cmd_sweep(args) -> int:
    file_cfg = load_config_file(args.config, _SWEEP_KEYS)
    scene, scene_name = resolve_scene(setting(args.scene, file_cfg, "scene", None))
    schedules = setting(args.schedules, file_cfg, "schedules", "increasing", read_names)
    gammas = setting(args.gammas, file_cfg, "gammas", "0.1,0.3,0.5,0.7", read_float_list)
    lams = setting(args.lams, file_cfg, "lams", "0.01,0.05,0.1", read_float_list)
    betas = setting(args.betas, file_cfg, "betas", "0.1", read_float_list)
    mask = setting(args.mask, file_cfg, "mask", "full")
    seeds = resolve_seeds(args.seeds, file_cfg, DEFAULT_SEEDS)
    max_steps = setting(args.max_steps, file_cfg, "max_steps", DEFAULT_MAX_STEPS, read_int)
    temperature = setting(
        args.temperature, file_cfg, "temperature", DEFAULT_TEMPERATURE, read_float
    )

    cells = [
        (schedule_kind, gamma, lam, beta,
         _flb(WeightSchedule(schedule_kind, gamma, lam), beta, mask))
        for schedule_kind, gamma, lam, beta in product(schedules, gammas, lams, betas)
    ]
    # One run over the whole grid: a repeated grid value repeats a label,
    # which run_many rejects.
    scores = _run_and_score(
        scene, scene_name, [cell[-1] for cell in cells], seeds,
        max_steps=max_steps, temperature=temperature, jobs=args.jobs,
    )
    rows = [
        {"schedule": schedule_kind, "gamma": gamma, "lam": lam, "beta": beta,
         "label": strategy.label(), **_metric_row(scores[strategy.label()])}
        for schedule_kind, gamma, lam, beta, strategy in cells
    ]
    rows.sort(key=lambda r: (-r["object_score"], r["chair_i"], r["label"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
        row["best"] = rank == 1

    result = {
        "scene": scene_name,
        "seeds": list(seeds),
        "max_steps": max_steps,
        "temperature": temperature,
        "mask": mask,
        "rows": rows,
    }
    header = ("rank", "best", "schedule", "gamma", "lam", "beta",
              "chair_i", "chair_s", "cover", "cog", "object_score",
              "hal_noun_rate", "label")
    out = _write_report(args, "sweep", result, header, rows)
    print(f"swept {len(rows)} cells over {len(seeds)} seeds -> {out}")
    for row in rows[: min(5, len(rows))]:
        marker = "*" if row["best"] else " "
        print(
            f"{marker} rank={row['rank']:<3} {row['schedule']:<10} "
            f"gamma={row['gamma']:<5g} lam={row['lam']:<5g} beta={row['beta']:<5g} "
            f"score={row['object_score']:.4f}"
        )
    return 0


# -- bench ------------------------------------------------------------------------


def cmd_bench(args) -> int:
    scene, scene_name = resolve_scene(args.scene)
    strategies = parse_strategies(
        args.strategies if args.strategies is not None
        else "baseline;greedy;vcd;icd;m3id;flb"
    )
    seeds = resolve_seeds(args.seeds, {}, tuple(range(40)))
    cost_model = CostModel.parse(args.cost_model)
    report = run_bench(
        scene, strategies, seeds, cost_model,
        max_steps=args.max_steps, min_tokens=args.min_tokens,
    )
    payload = {"scene": scene_name, "seeds": list(seeds), **report.to_dict()}
    header = ("strategy", "runs", "tokens_measured", "provider_calls",
              "provider_calls_per_token", "wall_ms_per_token",
              "overhead_ms_per_token")
    out = _write_report(args, "bench", payload, header, payload["rows"])
    print(f"bench ({cost_model.kind}, pad={cost_model.pad_us:g}us) -> {out}")
    for row in report.rows:
        print(
            f"{row.strategy:<56} calls/token={row.provider_calls_per_token:.3f} "
            f"wall_ms/token={row.wall_ms_per_token:.4f} tokens={row.tokens_measured}"
        )
    return 0


# -- ablate -----------------------------------------------------------------------


def cmd_ablate(args) -> int:
    scene, scene_name = resolve_scene(args.scene)
    seeds = resolve_seeds(args.seeds, {}, tuple(range(100)))
    schedule = WeightSchedule("increasing", args.gamma, args.lam)
    variants = {"baseline": Strategy(kind="baseline")}
    for mask in ("nouns_only", "the_only", "full"):
        variants[mask] = _flb(schedule, args.beta, mask)
    scores = _run_and_score(
        scene, scene_name, list(variants.values()), seeds,
        max_steps=args.max_steps, jobs=args.jobs,
    )
    rows = []
    for variant, strategy in variants.items():
        score = scores[strategy.label()]
        rows.append({
            "variant": variant,
            "label": strategy.label(),
            **_metric_row(score),
            "sentence_initial_the": score.initial.the_fraction,
        })
    payload = {
        "scene": scene_name,
        "seeds": list(seeds),
        "max_steps": args.max_steps,
        "gamma": args.gamma,
        "lam": args.lam,
        "beta": args.beta,
        "rows": rows,
    }
    header = ("variant", "chair_i", "chair_s", "cover", "cog", "object_score",
              "hal_noun_rate", "sentence_initial_the", "label")
    out = _write_report(args, "ablate", payload, header, rows)
    print(f"ablation over {len(seeds)} seeds -> {out}")
    for row in rows:
        print(
            f"{row['variant']:<12} hal_rate={row['hal_noun_rate']:.4f} "
            f"chair_i={row['chair_i']:.4f} the_start={row['sentence_initial_the']:.4f}"
        )
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logit-anchor",
        description="Decoding-strategy engine and hallucination benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p, default_out):
        p.add_argument("--out", default=default_out, help="output directory")
        p.add_argument("--format", choices=("csv", "json"),
                       help="restrict report format (default: both)")

    p = sub.add_parser("simulate", help="run strategies on a scene, write traces and reports")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--scene", help="preset name or scene JSON path")
    p.add_argument("--strategies",
                   help="semicolon-separated strategy descriptors, "
                        "e.g. 'baseline;vcd;flb:gamma=0.3,lambda=0.05'")
    p.add_argument("--seeds", help="comma-separated seeds; ranges like 0:50 allowed")
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--temperature", type=float)
    p.add_argument("--bin-width", type=int, dest="bin_width")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; has no effect")
    p.add_argument("--full-dist", action="store_true", dest="full_dist",
                   help="store full per-step distributions in traces")
    common_output(p, "out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score captions against annotations, or re-score stored traces")
    p.add_argument("--captions", help="captions JSONL ({'id','text'} per line)")
    p.add_argument("--annotations", help="annotations JSON array")
    p.add_argument("--lexicon", help="object lexicon JSON")
    p.add_argument("--traces", help="a simulate output directory to re-score")
    p.add_argument("--out", help="output directory (optional)")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid-search boost schedules")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--scene")
    p.add_argument("--gammas", help="comma-separated gamma values")
    p.add_argument("--lams", help="comma-separated lambda values")
    p.add_argument("--betas", help="comma-separated beta values")
    p.add_argument("--schedules", help="comma-separated schedule kinds")
    p.add_argument("--mask", choices=("full", "nouns_only", "the_only"))
    p.add_argument("--seeds")
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--temperature", type=float)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; has no effect")
    common_output(p, "sweep_out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="account provider calls and wall time per strategy")
    p.add_argument("--scene")
    p.add_argument("--strategies", help="semicolon-separated strategy descriptors")
    p.add_argument("--seeds")
    p.add_argument("--cost-model", default="cheap", dest="cost_model",
                   help="'cheap' or 'padded:<microseconds>'")
    p.add_argument("--min-tokens", type=int, default=1000, dest="min_tokens")
    p.add_argument("--max-steps", type=int, default=60, dest="max_steps")
    common_output(p, "bench_out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="compare first-logit contribution masks")
    p.add_argument("--scene")
    p.add_argument("--seeds")
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--lam", "--lambda", type=float, default=0.05, dest="lam")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--max-steps", type=int, default=60, dest="max_steps")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; has no effect")
    common_output(p, "ablate_out")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at /dev/null so that the flush
        # at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LogitAnchorError as exc:  # ContractError, ExclusionError, any future subclass
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
