"""Cost accounting for decoding strategies.

Provider calls per token are exact (counted from traces); wall-clock numbers
are medians over runs and are only meaningful under the padded cost model,
which busy-waits a fixed interval inside every provider call to emulate a
model forward pass. The cheap model measures raw overhead and makes no
latency claims. ``CostModel.parse`` reads the pad by ``config.parse_number``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .config import parse_number, trim
from .errors import ConfigError, InputError
from .runner import _check_labels, _check_seeds, _decode
from .simulator import SceneSpec
from .strategies import DEFAULT_MAX_STEPS, Strategy

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

    @classmethod
    def parse(cls, text: str) -> "CostModel":
        """"cheap" or "padded:<microseconds>"."""
        name, _, arg = trim(text).partition(":")
        name = trim(name).lower()
        if name == CHEAP:
            if arg:
                raise ConfigError("cheap cost model takes no argument")
            return cls(CHEAP)
        if name == PADDED:
            return cls(PADDED, parse_number(arg, "padded cost model", float))
        raise ConfigError(f"unknown cost model {text!r}")


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
    _check_labels([strategy.label() for strategy in strategies])
    seeds = _check_seeds(seeds)
    if min_tokens < 0:
        raise ConfigError(f"min_tokens must be >= 0, got {min_tokens!r}")
    wrap = None
    if cost_model.kind == PADDED:
        wrap = lambda provider: PaddedProvider(provider, cost_model.pad_us)

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
