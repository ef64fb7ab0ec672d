"""Command-line interface.

Subcommands: simulate, evaluate, sweep, bench, ablate. All file outputs are
deterministic for a fixed configuration: reports are JSON with sorted keys
(plus CSV mirrors), traces are JSONL, and nothing timestamped or
machine-specific is ever written, so repeated invocations produce identical
bytes regardless of simulate's --jobs.

Exit codes: 0 success, 2 configuration error, 3 input-data error,
4 internal invariant violation, 141 (128 + SIGPIPE, as for a program the
signal ends) when stdout is closed before the summary is printed, as in
``logit-anchor simulate ... | head -1``. Every command writes its files
before it prints, so the files of such a run are complete; nothing more is
printed and no traceback is shown.

simulate's ``--jobs`` is accepted for compatibility and must be >= 1; it has
no effect. Decoding runs in one process: every (strategy, seed) run of a
command's ``run_many`` is a row of one batch.

Config input (files, flags, seeds, the seed env override) is resolved in
``config``. Scoring is done here, once: ``_score`` scores one strategy label's
runs into the block ``report.json`` holds for it, for simulate and
``evaluate --traces`` (via ``_trace_report``, the one builder of
``report.json``), sweep and ablate; ``_flat`` lays a block out as one row for
every command's rows. ``_run_and_score`` is the one ``run_many`` over a
strategy list that sweep and ablate share, so those commands only build
strategies and rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields
from itertools import product
from pathlib import Path

from .config import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_MAX_STEPS,
    DEFAULT_SEEDS,
    DEFAULT_TEMPERATURE,
    SIMULATE_KEYS,
    build_run_config,
    check_run_settings,
    config_scene,
    load_config_file,
    naming,
    parse_alias,
    parse_cost_model,
    parse_floats,
    parse_json,
    parse_names,
    parse_number,
    parse_strategy,
    read_float,
    read_input_text,
    read_int,
    read_keys,
    read_seeds,
    read_string,
    read_string_list,
    resolve_scene,
    resolve_seeds,
    setting,
)
from .errors import ConfigError, InputError, LogitAnchorError
from .metrics import (
    CorpusCounts,
    CurveBin,
    MetricsReport,
    TraceLexicon,
    article_stats,
    corpus_metrics,
    entropy_stats,
    hal_noun_rate,
    load_corpus,
    positional_curves,
    read_trace,
    sentence_initial_stats,
    simulated_metrics,
    summarize_record,
    write_trace,
)
from .runner import BenchRow, check_labels, run_bench, run_many
from .simulator import scene_from_dict, scene_to_dict
from .strategies import (
    CONTRASTIVE_KINDS, DEFAULT_GAMMA, DEFAULT_LAM, FLB, SETTINGS, STRATEGY_KINDS, Strategy,
    WeightSchedule,
)

REPORT_COLUMNS = (
    "strategy", "chair_i", "chair_s", "cover", "cog", "recall", "object_score",
    "hal_noun_rate", "sentence_initial_the", "provider_calls_per_token", "tokens",
)
SWEEP_COLUMNS = (
    "rank", "best", "schedule", "gamma", "lam", "beta", "chair_i", "chair_s", "cover", "cog",
    "object_score", "hal_noun_rate", "label",
)
ABLATE_COLUMNS = (
    "variant", "chair_i", "chair_s", "cover", "cog", "object_score", "hal_noun_rate",
    "sentence_initial_the", "label",
)


def _fields(record, *skip) -> tuple[str, ...]:
    """The field names of dataclass ``record``, in order, less ``skip``."""
    return tuple(f.name for f in fields(record) if f.name not in skip)


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


def _out_dir(path) -> Path:
    """The --out directory ``path``, checked before any work by making it and removing what
    was made (the writers make it again); one that is empty or cannot be made is a ConfigError."""
    if not path:  # Path("") is the working directory
        raise ConfigError("--out: '' is empty, not an output directory")
    out = Path(path)
    try:
        made = [p for p in (out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
        for p in made:
            p.rmdir()
    except OSError as exc:
        raise ConfigError(
            f"--out {path}: cannot be the output directory ({exc.strerror})"
        ) from None
    return out


def _write_report(args, out: Path, name: str, payload, header, rows) -> None:
    """``name``.json holds ``payload``, ``name``.csv the rows; --format picks."""
    out.mkdir(parents=True, exist_ok=True)
    formats = _formats(args)
    if "json" in formats:
        _write_json(out / f"{name}.json", payload)
    if "csv" in formats:
        _write_csv(out / f"{name}.csv", header, rows)


def sanitize_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._,()=-]", "_", label)


def _score(runs, lexicon, scene) -> dict:
    """Score one label's runs as a corpus of captions of ``scene``: the label's
    block of ``report.json``, less the trace readouts only that report holds."""
    corpus = simulated_metrics(runs, lexicon, scene.cognition_objects)
    initial = sentence_initial_stats(runs)
    return {
        "corpus": corpus.to_dict(),
        "traces": {
            "hal_noun_rate": hal_noun_rate(runs, lexicon),
            "sentence_initial_the": {
                "fraction": initial.the_fraction,
                "count": initial.the_count,
                "runs": initial.n_runs,
            },
        },
    }


def _flat(block) -> dict:
    """A label's block as one row: its corpus and trace fields side by side, with
    the sentence-initial "The" share as its fraction."""
    traces = block["traces"]
    return {**block["corpus"], **traces,
            "sentence_initial_the": traces["sentence_initial_the"]["fraction"]}


def _metric_row(block, header) -> dict:
    """The metric columns of a sweep or ablate row: those of ``header`` in the block."""
    return {key: value for key, value in _flat(block).items() if key in header}


def _run_and_score(scene, scene_name, strategies, seeds, **run_kwargs):
    """One ``run_many`` over ``strategies``, summarized, scored per label."""
    lexicon = TraceLexicon.from_scene(scene)
    runs_by_label = {strategy.label(): [] for strategy in strategies}
    records = run_many(scene, strategies, seeds, prompt_id=scene_name, **run_kwargs)
    for record in records:
        runs_by_label[record.strategy].append(summarize_record(record, lexicon))
    return {label: _score(runs, lexicon, scene) for label, runs in runs_by_label.items()}


def _settings(scene_name, scene, seeds, max_steps, temperature, bin_width) -> dict:
    """The six keys ``report.json`` and ``manifest.json`` open with."""
    return {"scene": scene_name, "scene_spec": scene_to_dict(scene), "seeds": list(seeds),
            "max_steps": max_steps, "temperature": temperature, "bin_width": bin_width}


def _trace_report(settings, stats_by_label, lexicon, scene):
    """``report.json`` of simulate and evaluate --traces: the run's ``settings``
    and each label's block and positional curves."""
    strategies = {}
    curves = {}
    for label, runs in stats_by_label.items():
        strategies[label] = block = _score(runs, lexicon, scene)
        tokens = sum(len(run.chosen) for run in runs)
        calls = sum(sum(run.provider_calls) for run in runs)
        block["traces"].update(
            tokens=tokens,
            provider_calls_per_token=calls / tokens if tokens else 0.0,
            entropy={
                name: {"mean": cell.mean_entropy, "count": cell.count}
                for name, cell in entropy_stats(runs, lexicon).items()
            },
            article=article_stats(runs, lexicon).to_dict(),
        )
        curves[label] = [
            asdict(b) for b in positional_curves(runs, lexicon, settings["bin_width"])
        ]
    return {**settings, "strategies": strategies, "curves": curves}


def _report_rows(report):
    """One row dict per strategy, in label order, holding the REPORT_COLUMNS."""
    return [{"strategy": label, **_flat(report["strategies"][label])}
            for label in sorted(report["strategies"])]


def _write_trace_report(args, out: Path, report) -> None:
    """report.json and report.csv, plus curves.csv, in ``out``."""
    _write_report(args, out, "report", report, REPORT_COLUMNS, _report_rows(report))
    if "csv" in _formats(args):
        curves = [
            {"strategy": label, **b}
            for label in sorted(report["curves"]) for b in report["curves"][label]
        ]
        _write_csv(out / "curves.csv", ("strategy", *_fields(CurveBin)), curves)


def _print_strategy_summary(report) -> None:
    for row in _report_rows(report):
        print(
            f"{row['strategy']:<56} chair_i={row['chair_i']:.4f} "
            f"cover={row['cover']:.4f} score={row['object_score']:.4f} "
            f"hal_rate={row['hal_noun_rate']:.4f}"
        )


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = build_run_config(config_path=args.config,
                           **{key: getattr(args, key) for key in SIMULATE_KEYS})
    out = _out_dir(args.out)
    held = [name for name in ("manifest.json", "traces") if (out / name).exists()]
    if held:  # evaluate --traces would read that run's traces as this run's
        raise ConfigError(f"--out {args.out}: holds {' and '.join(held)} of an earlier run")
    records = run_many(
        cfg.scene, cfg.strategies, cfg.seeds,
        max_steps=cfg.max_steps, temperature=cfg.temperature,
        prompt_id=cfg.scene_name, jobs=args.jobs, record=args.full_dist,
    )
    lexicon = TraceLexicon.from_scene(cfg.scene)
    trace_root = out / "traces"

    labels = [s.label() for s in cfg.strategies]
    stats_by_label = {label: [] for label in labels}
    for label in labels:
        (trace_root / sanitize_label(label)).mkdir(parents=True, exist_ok=True)
    for record in records:
        stats = write_trace(
            trace_root / sanitize_label(record.strategy) / f"{record.seed}.jsonl",
            record, lexicon, full_dist=args.full_dist,
        )
        stats_by_label[record.strategy].append(stats)

    settings = _settings(cfg.scene_name, cfg.scene, cfg.seeds, cfg.max_steps,
                         cfg.temperature, cfg.bin_width)
    report = _trace_report(settings, stats_by_label, lexicon, cfg.scene)
    manifest = {
        **settings, "command": "simulate", "strategies": labels,
        "full_dist": bool(args.full_dist),
    }
    _write_trace_report(args, out, report)
    _write_json(out / "manifest.json", manifest)
    print(f"simulated {len(records)} runs over {len(cfg.seeds)} seeds -> {out}")
    _print_strategy_summary(report)
    return 0


# -- evaluate ---------------------------------------------------------------------


def _evaluate_corpus(args, out: Path | None) -> int:
    captions, annotations, lexicon = load_corpus(args.captions, args.annotations, args.lexicon)

    report_obj = corpus_metrics(captions, annotations, lexicon)
    for warning in report_obj.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = {"corpus": report_obj.to_dict()}
    if out:
        header = (*_fields(MetricsReport, "counts", "warnings"), *_fields(CorpusCounts))
        _write_report(args, out, "report", report, header,
                      [{**report["corpus"], **report["corpus"]["counts"]}])
    print(
        f"captions={report_obj.counts.matched}/{report_obj.counts.captions} "
        f"chair_i={report_obj.chair_i:.4f} chair_s={report_obj.chair_s:.4f} "
        f"cover={report_obj.cover:.4f} cog={report_obj.cog:.4f} "
        f"object_score={report_obj.object_score:.4f}"
    )
    return 0


def read_trace_dir(traces_dir: Path):
    """Load a simulate output directory: its settings, scene, grouped run stats.

    A manifest that cannot be read, is not a JSON object, holds a key simulate
    does not write, lacks ``scene``, ``scene_spec``, ``strategies``, ``seeds``,
    ``max_steps`` or ``temperature``, or holds a bad value or JSON type for one of
    them or for ``bin_width``, is an input error (exit 3) naming the file and the
    key: ``config.read_keys`` and ``config.check_run_settings`` check it as they
    check a config file. So is a label whose kind (the part before any "(") is
    no strategy kind, a missing ``traces/<label>/`` directory, a label's trace
    files not being exactly ``<seed>.jsonl`` for the manifest's seeds (naming
    the file and the seed), and a trace whose header holds another seed, label or
    scene name (``prompt_id``), or whose steps choose a token id outside the
    scene's vocabulary, name another token, hold more entropy than a
    distribution over that vocabulary can have, or count other provider calls
    than the label's kind makes per step: 2 for vcd, icd and m3id, 1 for any
    other. As the decode loop retires a run only at its EOS or at
    ``max_steps``, so is a trace with an EOS before its last step (naming the
    step), more steps than ``max_steps``, or fewer without ending at EOS. The
    returned settings are the ``report.json`` header: ``scene``, ``scene_spec``
    (the parsed scene's), ``seeds``, ``max_steps``, ``temperature`` and
    ``bin_width`` (the default when absent), as read; each label's runs are in
    seed order.
    """
    manifest_path = traces_dir / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"{traces_dir}: no manifest.json; not a simulate output")
    manifest = parse_json(read_input_text(manifest_path), manifest_path)
    with naming(manifest_path, InputError):
        # simulate also writes command and full_dist, for the reader; neither is read back.
        read_keys(manifest, (*SIMULATE_KEYS, "scene_spec", "command", "full_dist"), "manifest",
                  required=("scene", "scene_spec", "strategies", "seeds", "max_steps",
                            "temperature"))
        if type(manifest["scene_spec"]) is not dict:
            raise ConfigError(f"scene_spec: {manifest['scene_spec']!r} is not an object")
        scene = scene_from_dict(manifest["scene_spec"])
        labels = read_string_list(manifest["strategies"], "strategies")
        scene_name = read_string(manifest["scene"], "scene")
        seeds = read_seeds(manifest["seeds"])
        max_steps = read_int(manifest["max_steps"], "max_steps")
        temperature = read_float(manifest["temperature"], "temperature")
        bin_width = read_int(manifest.get("bin_width", DEFAULT_BIN_WIDTH), "bin_width")
        check_labels(labels)
        check_run_settings(max_steps, temperature, bin_width)
        for label in labels:
            if label.partition("(")[0] not in STRATEGY_KINDS:
                raise ConfigError(f"strategies: {label!r} names no strategy kind")
        settings = _settings(scene_name, scene, seeds, max_steps, temperature, bin_width)
    surface = dict(enumerate(scene.vocabulary.tokens))  # None for an id outside it
    # No distribution over the scene's tokens has more entropy than the uniform one.
    max_entropy = math.log(scene.vocabulary.size) + 1e-9
    eos_id = scene.eos_id
    stats_by_label = {}
    for label in labels:
        strategy_dir = traces_dir / "traces" / sanitize_label(label)
        if not strategy_dir.is_dir():
            raise InputError(f"{traces_dir}: missing trace directory for {label!r}")
        kind = label.partition("(")[0]
        calls = 2 if kind in CONTRASTIVE_KINDS else 1  # the call-count law
        files = {seed: strategy_dir / f"{seed}.jsonl" for seed in sorted(seeds)}
        extra = sorted(set(strategy_dir.glob("*.jsonl")) - set(files.values()))
        if extra:
            raise InputError(f"{extra[0]}: not the trace of a manifest seed")
        stats_by_label[label] = runs = []
        for seed, path in files.items():
            if not path.is_file():
                raise InputError(f"{path}: missing; the manifest lists seed {seed}")
            run = read_trace(path)
            runs.append(run)
            if run.seed != seed:
                raise InputError(f"{path}: header seed {run.seed} does not match the file name")
            if run.strategy != label:
                raise InputError(f"{path}: header strategy {run.strategy!r} is not {label!r}")
            if run.prompt_id != scene_name:  # simulate writes both from the scene's name
                raise InputError(f"{path}: header prompt_id {run.prompt_id!r} is not the "
                                 f"manifest's scene {scene_name!r}")
            n_steps = len(run.chosen)
            if eos_id in run.chosen[:-1]:
                raise InputError(f"{path}: step {run.chosen.index(eos_id)}: chosen: {eos_id} is "
                                 f"EOS, but the run goes on after it")
            if n_steps > max_steps:
                raise InputError(f"{path}: {n_steps} steps, more than the manifest's "
                                 f"max_steps {max_steps}")
            if n_steps < max_steps and run.chosen[-1:] != (eos_id,):
                raise InputError(f"{path}: {n_steps} steps end without EOS before the "
                                 f"manifest's max_steps {max_steps}")
            if (tuple(map(surface.get, run.chosen)) != run.tokens
                    or max(run.entropy, default=0.0) > max_entropy
                    or run.provider_calls.count(calls) != len(run.provider_calls)):
                columns = zip(run.chosen, run.tokens, run.entropy, run.provider_calls)
                for t, (chosen, token, entropy, step_calls) in enumerate(columns):
                    if surface.get(chosen) != token:
                        raise InputError(f"{path}: step {t}: chosen: {chosen}, "
                                         f"token: {token!r}: not one token of the scene")
                    if entropy > max_entropy:
                        raise InputError(f"{path}: step {t}: entropy: {entropy!r} exceeds "
                                         f"ln({scene.vocabulary.size}), the uniform maximum")
                    if step_calls != calls:
                        raise InputError(f"{path}: step {t}: provider_calls: {step_calls}, "
                                         f"but {kind} makes {calls} per step")
    return settings, scene, stats_by_label


def _evaluate_traces(args, out: Path | None) -> int:
    settings, scene, stats_by_label = read_trace_dir(Path(args.traces))
    report = _trace_report(settings, stats_by_label, TraceLexicon.from_scene(scene), scene)
    if out:
        _write_trace_report(args, out, report)
    n_runs = sum(len(v) for v in stats_by_label.values())
    print(f"evaluated {n_runs} stored runs from {args.traces}")
    _print_strategy_summary(report)
    return 0


def cmd_evaluate(args) -> int:
    corpus = {f"--{key}": getattr(args, key) for key in ("captions", "annotations", "lexicon")}
    given = [flag for flag, value in corpus.items() if value is not None]
    if args.traces == "":  # Path("") is the working directory
        raise ConfigError("--traces: '' is empty, not a simulate output directory")
    if args.traces and given:
        raise ConfigError(f"--traces re-scores a simulate output; {', '.join(given)} "
                          "cannot be given with it")
    if not args.traces and len(given) < len(corpus):
        raise ConfigError(
            "evaluate needs --traces, or all of --captions/--annotations/--lexicon "
            f"(missing {', '.join(flag for flag in corpus if flag not in given)})"
        )
    out = None if args.out is None else _out_dir(args.out)
    return (_evaluate_traces if args.traces else _evaluate_corpus)(args, out)


# -- sweep ------------------------------------------------------------------------


_SWEEP_KEYS = {
    "scene", "gammas", "lams", "betas", "schedules", "mask",
    "seeds", "max_steps", "temperature",
}


def cmd_sweep(args) -> int:
    file_cfg = load_config_file(args.config, _SWEEP_KEYS)
    scene, scene_name = config_scene(args.scene, file_cfg, args.config)
    grid = {}
    for key, default, parse in (
        ("schedules", ("increasing",), parse_names),
        ("gammas", (0.1, 0.3, 0.5, 0.7), parse_floats),
        ("lams", (0.01, 0.05, 0.1), parse_floats),
        ("betas", (0.1,), parse_floats),
    ):
        grid[key] = setting(getattr(args, key), file_cfg, key, default, parse)
        if not grid[key]:
            where = "" if getattr(args, key) is not None else f"{args.config}: "
            raise ConfigError(f"{where}{key}: empty list")
    grid["schedules"] = tuple(parse_alias(s, "schedules", "schedule") for s in grid["schedules"])
    mask = setting(args.mask, file_cfg, "mask", SETTINGS[FLB]["l0_mask"])
    mask = parse_alias(mask, "mask", "mask")
    seeds = resolve_seeds(args.seeds, file_cfg, DEFAULT_SEEDS)
    max_steps = setting(args.max_steps, file_cfg, "max_steps", DEFAULT_MAX_STEPS)
    temperature = setting(args.temperature, file_cfg, "temperature", DEFAULT_TEMPERATURE)

    cells = [
        (schedule_kind, gamma, lam, beta,
         Strategy(kind=FLB, schedule=WeightSchedule(schedule_kind, gamma, lam),
                  beta=beta, l0_mask=mask))
        for schedule_kind, gamma, lam, beta in product(*grid.values())
    ]
    out = _out_dir(args.out)
    # One run over the whole grid: a repeated grid value repeats a label,
    # which run_many rejects.
    scores = _run_and_score(
        scene, scene_name, [cell[-1] for cell in cells], seeds,
        max_steps=max_steps, temperature=temperature,
    )
    rows = [
        {"schedule": schedule_kind, "gamma": gamma, "lam": lam, "beta": beta,
         "label": strategy.label(), **_metric_row(scores[strategy.label()], SWEEP_COLUMNS)}
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
    _write_report(args, out, "sweep", result, SWEEP_COLUMNS, rows)
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
    strategies = tuple(map(parse_strategy, parse_names(args.strategies, "strategies", ";")))
    seeds = resolve_seeds(args.seeds, {}, tuple(range(40)))
    cost_model = parse_cost_model(args.cost_model)
    out = _out_dir(args.out)
    report = run_bench(
        scene, strategies, seeds, cost_model,
        max_steps=args.max_steps, min_tokens=args.min_tokens,
    )
    payload = {"scene": scene_name, "seeds": list(seeds), **report.to_dict()}
    _write_report(args, out, "bench", payload, _fields(BenchRow), payload["rows"])
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
    schedule = WeightSchedule(gamma=args.gamma, lam=args.lam)
    variants = {"baseline": Strategy(kind="baseline")}
    for mask in ("nouns_only", "the_only", "full"):
        variants[mask] = Strategy(kind=FLB, schedule=schedule, beta=args.beta, l0_mask=mask)
    out = _out_dir(args.out)
    scores = _run_and_score(
        scene, scene_name, list(variants.values()), seeds, max_steps=args.max_steps
    )
    rows = [
        {"variant": variant, "label": strategy.label(),
         **_metric_row(scores[strategy.label()], ABLATE_COLUMNS)}
        for variant, strategy in variants.items()
    ]
    payload = {
        "scene": scene_name,
        "seeds": list(seeds),
        "max_steps": args.max_steps,
        "gamma": args.gamma,
        "lam": args.lam,
        "beta": args.beta,
        "rows": rows,
    }
    _write_report(args, out, "ablate", payload, ABLATE_COLUMNS, rows)
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

    def run_flags(p, max_steps=None):
        """The flags of every decoding command; None leaves a setting to the config file."""
        p.add_argument("--scene", help="preset name or scene JSON path")
        p.add_argument("--seeds", help="comma-separated seeds; ranges like 0:50 allowed")
        p.add_argument("--max-steps", default=max_steps, dest="max_steps")

    p = sub.add_parser("simulate", help="run strategies on a scene, write traces and reports")
    p.add_argument("--config", help="JSON config file")
    run_flags(p)
    p.add_argument("--strategies",
                   help="semicolon-separated strategy descriptors, "
                        "e.g. 'baseline;vcd;flb:gamma=0.3,lambda=0.05'")
    p.add_argument("--temperature")
    p.add_argument("--bin-width", dest="bin_width")
    p.add_argument("--jobs", default=1,
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
    run_flags(p)
    p.add_argument("--gammas", help="comma-separated gamma values")
    p.add_argument("--lams", help="comma-separated lambda values")
    p.add_argument("--betas", help="comma-separated beta values")
    p.add_argument("--schedules", help="comma-separated schedule kinds")
    p.add_argument("--mask", help="first-logit mask: full, nouns_only or the_only")
    p.add_argument("--temperature")
    common_output(p, "sweep_out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="account provider calls and wall time per strategy")
    run_flags(p, DEFAULT_MAX_STEPS)
    p.add_argument("--strategies", default="baseline;greedy;vcd;icd;m3id;flb",
                   help="semicolon-separated strategy descriptors")
    p.add_argument("--cost-model", default="cheap", dest="cost_model",
                   help="'cheap' or 'padded:<microseconds>'")
    p.add_argument("--min-tokens", default=1000, dest="min_tokens")
    common_output(p, "bench_out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="compare first-logit contribution masks")
    run_flags(p, DEFAULT_MAX_STEPS)
    p.add_argument("--gamma", default=DEFAULT_GAMMA)
    p.add_argument("--lam", "--lambda", default=DEFAULT_LAM, dest="lam")
    p.add_argument("--beta", default=SETTINGS[FLB]["beta"])
    common_output(p, "ablate_out")
    p.set_defaults(func=cmd_ablate)

    return parser


# The numeric flags, by dest, each read from its text by ``config.parse_number``.
NUMBER_FLAGS = {"max_steps": int, "temperature": float, "bin_width": int, "jobs": int,
                "min_tokens": int, "gamma": float, "lam": float, "beta": float}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, kind in NUMBER_FLAGS.items():
            if isinstance(getattr(args, key, None), str):  # a flag given, not a default value
                setattr(args, key, parse_number(getattr(args, key), key, kind))
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
    except LogitAnchorError as exc:  # ContractError or any future subclass
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
