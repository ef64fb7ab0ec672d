"""Cost accounting for decoding strategies.

Provider calls per token are exact (counted from traces); wall-clock numbers
are medians over runs and are only meaningful under the padded cost model,
which busy-waits a fixed interval inside every provider call to emulate a
model forward pass. The cheap model measures raw overhead and makes no
latency claims.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .runner import run_strategy
from .simulator import SceneSpec
from .strategies import Strategy

CHEAP = "cheap"
PADDED = "padded"


@dataclass(frozen=True)
class CostModel:
    """How much each provider call should cost."""

    kind: str = CHEAP
    pad_us: float = 0.0

    def __post_init__(self):
        if self.kind not in (CHEAP, PADDED):
            raise ConfigError(f"unknown cost model {self.kind!r}")
        if self.kind == PADDED and not (self.pad_us > 0 and math.isfinite(self.pad_us)):
            raise ConfigError(f"padded cost model needs a finite pad_us > 0, got {self.pad_us!r}")
        if self.kind == CHEAP and self.pad_us:
            raise ConfigError("cheap cost model takes no padding")

    @classmethod
    def parse(cls, text: str) -> "CostModel":
        """"cheap" or "padded:<microseconds>"."""
        name, _, arg = text.strip().partition(":")
        name = name.strip().lower()
        if name == CHEAP:
            if arg:
                raise ConfigError("cheap cost model takes no argument")
            return cls(CHEAP)
        if name == PADDED:
            try:
                return cls(PADDED, float(arg))
            except ValueError:
                raise ConfigError(
                    f"padded cost model needs a microsecond value, got {arg!r}"
                ) from None
        raise ConfigError(f"unknown cost model {text!r}")


class PaddedProvider:
    """Wraps a provider, busy-waiting a fixed time inside each logits call.

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

    def logits(self, history, t, rng=None):
        deadline = time.perf_counter() + self.pad_s
        result = self.inner.logits(history, t, rng)
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

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "runs": self.runs,
            "tokens_measured": self.tokens_measured,
            "provider_calls": self.provider_calls,
            "provider_calls_per_token": self.provider_calls_per_token,
            "wall_ms_per_token": self.wall_ms_per_token,
            "overhead_ms_per_token": self.overhead_ms_per_token,
        }


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
        return {
            "cost_model": {"kind": self.cost_model.kind, "pad_us": self.cost_model.pad_us},
            "max_steps": self.max_steps,
            "rows": [row.to_dict() for row in self.rows],
        }


def run_bench(
    scene: SceneSpec,
    strategies: Sequence[Strategy],
    seeds: Sequence[int],
    cost_model: CostModel = CostModel(),
    *,
    max_steps: int = 60,
    min_tokens: int = 1000,
) -> BenchReport:
    """Run every strategy over all seeds, sequentially, and account costs.

    Strategies are interleaved seed by seed, so a drift in host load is
    spread over every strategy instead of landing on one. Fails with
    InputError if any strategy produces fewer than ``min_tokens`` tokens
    total; pass more seeds or a larger ``max_steps``.
    """
    wrap = None
    if cost_model.kind == PADDED:
        wrap = lambda provider: PaddedProvider(provider, cost_model.pad_us)

    # (tokens, provider calls, ms per token) of each run, per strategy.
    runs: list[list[tuple[int, int, float]]] = [[] for _ in strategies]
    for seed in seeds:
        for strategy_runs, strategy in zip(runs, strategies):
            start = time.perf_counter()
            record = run_strategy(
                scene, strategy,
                seed=seed, max_steps=max_steps, wrap=wrap,
            )
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            tokens = len(record.steps)
            calls = sum(s.provider_calls for s in record.steps)
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
