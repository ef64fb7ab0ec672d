"""Bind strategy descriptors to scene providers and execute runs.

``run_many`` runs every (strategy, seed) pair of a command; ``run_strategy``
runs one and records it, optionally through a provider wrapper. ``_decode``
is the one path under both; the bench calls it directly, one seed at a time
through its padded cost model, without recording. Each call decodes its runs
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
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable, Sequence

from .core import GenerationRecord
from .errors import ConfigError
from .simulator import NegativeVariantSpec, SceneSpec, SyntheticProvider
from .strategies import (
    CONTRASTIVE_KINDS, DEFAULT_MAX_STEPS, DEFAULT_TEMPERATURE, NEGATIVE_KIND_FOR, Strategy, decode,
)

ProviderWrap = Callable[[object], object]


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
        scene, [strategy], _check_seeds((seed,)), wrap,
        max_steps=max_steps, temperature=temperature, prompt_id=prompt_id, record=True,
    )
    return record


def _check_labels(labels: Sequence[str]) -> None:
    """The one check of a strategy list, by its labels: it must hold at least one,
    and none twice, as a run's records and traces are keyed by label."""
    if not labels:
        raise ConfigError("strategies: no strategies given")
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated is not None:
        raise ConfigError(f"strategy labels must be unique within one run: {repeated!r} repeats")


def _check_seeds(seeds, source: str = "seeds") -> tuple[int, ...]:
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
    _check_labels([s.label() for s in strategies])
    return _decode(
        scene, strategies, sorted(_check_seeds(seeds)),
        max_steps=max_steps, temperature=temperature, prompt_id=prompt_id, record=record,
    )
