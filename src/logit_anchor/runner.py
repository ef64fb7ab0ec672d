"""Bind strategy descriptors to scene providers, execute runs and time them.

``run_many`` runs every (strategy, seed) pair of a command; ``run_strategy``
runs one and records it, optionally through a provider wrapper; ``run_bench``
times runs, one seed at a time through its cost model, without recording.
``_decode`` is the one path under all three. Each call decodes its runs
in one process and one thread: every (strategy, seed) pair goes through one
``strategies.decode`` call, as a row of one lockstep batch, through fresh
providers: one ``SyntheticProvider`` for the scene, whose one pass per step
serves every row, and for each contrastive strategy a second one on its
degraded view, which serves that strategy's rows. Each row has its own
seed-derived random streams, so a run's record is the same whichever runs
share its batch, and a single run is the one-row batch. Records keep
each step's ``StepTrace`` (plain records of the raw and adjusted logits,
the candidate mask and the distribution) from ``run_strategy``, and from
``run_many`` only with ``record=True``; their summary columns are always there.
The bench counts provider calls exactly; its wall-clock medians mean something
only under the padded cost model, whose every provider call busy-waits as a model
forward pass would take time (the cheap model measures raw overhead).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .core import GenerationRecord
from .errors import ConfigError, InputError
from .simulator import NegativeVariantSpec, SceneSpec, SyntheticProvider
from .strategies import (
    CONTRASTIVE_KINDS, DEFAULT_MAX_STEPS, DEFAULT_TEMPERATURE, NEGATIVE_KIND_FOR, Strategy, decode,
)

ProviderWrap = Callable[[object], object]

CHEAP = "cheap"
PADDED = "padded"
MAX_PAD_US = 1e6  # one second per provider call: no bench run could finish at more


@dataclass(frozen=True)
class CostModel:
    """How much each provider call should cost."""

    kind: str = CHEAP
    pad_us: float = 0.0

    def __post_init__(self):
        if self.kind not in (CHEAP, PADDED):
            raise ConfigError(f"unknown cost model {self.kind!r}")
        if self.kind == PADDED and not 0 < self.pad_us <= MAX_PAD_US:  # False for nan
            raise ConfigError(
                f"padded cost model needs 0 < pad_us <= {MAX_PAD_US:g}, got {self.pad_us!r}"
            )
        if self.kind == CHEAP and self.pad_us:
            raise ConfigError("cheap cost model takes no padding")


class PaddedProvider:
    """Forwards a provider's ``logit_rows`` arrays unchanged, busy-waiting a fixed time per row.

    ``logit_rows(histories, t, rngs)`` passes the rows' ``Generator``s through
    to the wrapped provider, so a padded run draws exactly what a bare one
    does, and a call for n rows waits n pads, as n one-row calls would.
    Busy-waiting (not sleeping) keeps sub-millisecond pads accurate.
    """

    def __init__(self, inner, pad_us: float):
        self.inner = inner
        self.pad_s = pad_us * 1e-6

    @property
    def vocab(self):
        return self.inner.vocab

    @property
    def eos_id(self):
        return self.inner.eos_id

    @property
    def calls(self):
        return self.inner.calls

    def logit_rows(self, histories, t, rngs):
        deadline = time.perf_counter() + self.pad_s * len(histories)
        result = self.inner.logit_rows(histories, t, rngs)
        while time.perf_counter() < deadline:
            pass
        return result


@dataclass(frozen=True)
class BenchRow:
    strategy: str
    runs: int
    tokens_measured: int
    provider_calls: int
    provider_calls_per_token: float
    wall_ms_per_token: float
    overhead_ms_per_token: float


@dataclass(frozen=True)
class BenchReport:
    cost_model: CostModel
    max_steps: int
    rows: tuple[BenchRow, ...]

    def row(self, strategy_label: str) -> BenchRow:
        for row in self.rows:
            if row.strategy == strategy_label:
                return row
        raise InputError(f"no bench row for strategy {strategy_label!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _decode(
    scene: SceneSpec,
    strategies: Sequence[Strategy],
    seeds: Sequence[int],
    wrap: ProviderWrap | None = None,
    **kwargs,
) -> list[GenerationRecord]:
    """Decode every (strategy, seed) run through fresh providers, each mapped by ``wrap``."""
    wrap = wrap or (lambda provider: provider)
    negatives = [
        wrap(SyntheticProvider(scene, NegativeVariantSpec(NEGATIVE_KIND_FOR[s.kind], s.strength)))
        if s.kind in CONTRASTIVE_KINDS else None
        for s in strategies
    ]
    return decode(
        strategies, wrap(SyntheticProvider(scene)), seeds, negatives=negatives,
        gt_ids=scene.gt_ids, hal_ids=scene.hal_ids, **kwargs,
    )


def run_strategy(
    scene: SceneSpec,
    strategy: Strategy,
    *,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    temperature: float = DEFAULT_TEMPERATURE,
    prompt_id: str = "scene",
    wrap: ProviderWrap | None = None,
) -> GenerationRecord:
    """Execute one decoding run of ``strategy`` on ``scene``; its record keeps every step.

    ``wrap`` maps each fresh provider to the object the loop calls instead;
    a wrapper without ``logit_rows`` is called through ``logits`` once per
    provider pass; either way it keeps the ``strategies.LogitProvider`` contract.
    """
    (record,) = _decode(
        scene, [strategy], check_seeds((seed,)), wrap,
        max_steps=max_steps, temperature=temperature, prompt_id=prompt_id, record=True,
    )
    return record


def check_labels(labels: Sequence[str]) -> None:
    """The one check of a strategy list, by its labels: it must hold at least one,
    and none twice, as a run's records and traces are keyed by label."""
    if not labels:
        raise ConfigError("strategies: no strategies given")
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated is not None:
        raise ConfigError(f"strategy labels must be unique within one run: {repeated!r} repeats")


def check_seeds(seeds, source: str = "seeds") -> tuple[int, ...]:
    """The one check of a seed list from any source: distinct integers in [0, 2**64)."""
    if not seeds:
        raise ConfigError(f"{source}: no seeds given")
    bad = [seed for seed in seeds if not (isinstance(seed, Integral) and 0 <= seed < 2**64)]
    if bad:
        raise ConfigError(f"{source}: seed {bad[0]!r} is not an integer in [0, 2**64)")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{source}: duplicate seeds")
    return tuple(int(seed) for seed in seeds)


def run_many(
    scene: SceneSpec,
    strategies: Sequence[Strategy],
    seeds: Sequence[int],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    temperature: float = DEFAULT_TEMPERATURE,
    prompt_id: str = "scene",
    jobs: int = 1,
    record: bool = False,
) -> list[GenerationRecord]:
    """All (strategy, seed) runs, ordered by strategy position then seed.

    Every run is a row of one lockstep batch. Only with ``record`` do the
    records keep each step's ``StepTrace``. ``jobs`` is accepted for
    compatibility and must be >= 1; it has no effect.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    check_labels([s.label() for s in strategies])
    return _decode(
        scene, strategies, sorted(check_seeds(seeds)),
        max_steps=max_steps, temperature=temperature, prompt_id=prompt_id, record=record,
    )


def run_bench(
    scene: SceneSpec,
    strategies: Sequence[Strategy],
    seeds: Sequence[int],
    cost_model: CostModel = CostModel(),
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    min_tokens: int = 1000,
) -> BenchReport:
    """Run every strategy over all seeds, sequentially, and account costs.

    Strategies are interleaved seed by seed, so a drift in host load is
    spread over every strategy instead of landing on one. Each run is
    decoded alone and unrecorded: only its chosen tokens and provider calls
    are read, so no per-step vectors are built in the timed span. Fails with
    InputError if any strategy produces fewer than ``min_tokens`` tokens
    total; pass more seeds or a larger ``max_steps``. A negative
    ``min_tokens`` is a ConfigError, and so is a strategy or seed list that
    ``run_many`` refuses (empty, say), each raised before anything is decoded.
    """
    check_labels([strategy.label() for strategy in strategies])
    seeds = check_seeds(seeds)
    if min_tokens < 0:
        raise ConfigError(f"min_tokens must be >= 0, got {min_tokens!r}")
    wrap = (lambda p: PaddedProvider(p, cost_model.pad_us)) if cost_model.kind == PADDED else None

    # (tokens, provider calls, ms per token) of each run, per strategy.
    runs: list[list[tuple[int, int, float]]] = [[] for _ in strategies]
    for seed in seeds:
        for strategy_runs, strategy in zip(runs, strategies):
            start = time.perf_counter()
            (record,) = _decode(scene, [strategy], (seed,), wrap, max_steps=max_steps)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            tokens = len(record.chosen)
            calls = sum(record.provider_calls)
            strategy_runs.append((tokens, calls, elapsed_ms / tokens))

    pad_ms = cost_model.pad_us / 1000.0
    rows = []
    for strategy, strategy_runs in zip(strategies, runs):
        label = strategy.label()
        tokens_total = sum(tokens for tokens, _, _ in strategy_runs)
        calls_total = sum(calls for _, calls, _ in strategy_runs)
        if tokens_total < min_tokens:
            raise InputError(
                f"strategy {label!r} produced {tokens_total} tokens; "
                f"at least {min_tokens} required (add seeds or steps)"
            )
        calls_per_token = calls_total / tokens_total
        wall = float(np.median([ms for _, _, ms in strategy_runs]))
        rows.append(
            BenchRow(
                strategy=label,
                runs=len(seeds),
                tokens_measured=tokens_total,
                provider_calls=calls_total,
                provider_calls_per_token=calls_per_token,
                wall_ms_per_token=wall,
                overhead_ms_per_token=wall - pad_ms * calls_per_token,
            )
        )
    return BenchReport(cost_model=cost_model, max_steps=max_steps, rows=tuple(rows))
