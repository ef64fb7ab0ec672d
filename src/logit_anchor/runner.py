"""Bind strategy descriptors to scene providers and execute runs.

``run_many`` runs every (strategy, seed) pair of a command; ``run_strategy``
runs one, optionally through a provider wrapper (the bench's padded cost
model). Each call decodes its runs in one process and one thread: all seeds of one
strategy go through ``strategies.decode`` together, as the rows of one
lockstep batch, with fresh provider instances per strategy (so call counters
never leak between strategies). Each row has its own seed-derived random
streams, so a run's record is the same whichever seeds share its batch, and
a single run is the one-row batch.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core import GenerationRecord
from .errors import ConfigError
from .simulator import NegativeProvider, NegativeVariantSpec, SceneSpec, SyntheticProvider
from .strategies import CONTRASTIVE_KINDS, Strategy, decode

ProviderWrap = Callable[[object], object]


def _decode(
    scene: SceneSpec,
    strategy: Strategy,
    seeds: Sequence[int],
    wrap: ProviderWrap | None = None,
    **kwargs,
) -> list[GenerationRecord]:
    """Decode ``seeds`` through fresh providers, each mapped by ``wrap`` if given."""
    provider = SyntheticProvider(scene)
    negative = None
    if strategy.kind in CONTRASTIVE_KINDS:
        variant = NegativeVariantSpec(
            kind=strategy.negative_kind,
            strength=strategy.resolved_strength(),
        )
        negative = NegativeProvider(scene, variant)
    if wrap is not None:
        provider = wrap(provider)
        if negative is not None:
            negative = wrap(negative)
    return decode(
        strategy, provider, seeds, negative=negative, noun_ids=scene.noun_ids, **kwargs
    )


def run_strategy(
    scene: SceneSpec,
    strategy: Strategy,
    *,
    seed: int,
    max_steps: int = 60,
    temperature: float = 1.0,
    prompt_id: str = "scene",
    wrap: ProviderWrap | None = None,
) -> GenerationRecord:
    """Execute one decoding run of ``strategy`` on ``scene``.

    ``wrap`` maps each fresh provider to the object the loop calls instead;
    a wrapper without ``logit_rows`` is called through ``logits`` once per
    provider pass.
    """
    (record,) = _decode(
        scene, strategy, (seed,), wrap,
        max_steps=max_steps, temperature=temperature, prompt_id=prompt_id,
    )
    return record


def run_many(
    scene: SceneSpec,
    strategies: Sequence[Strategy],
    seeds: Sequence[int],
    *,
    max_steps: int = 60,
    temperature: float = 1.0,
    prompt_id: str = "scene",
    jobs: int = 1,
) -> list[GenerationRecord]:
    """All (strategy, seed) runs, ordered by strategy position then seed.

    Each strategy decodes all its seeds as one lockstep batch. ``jobs`` is
    accepted for compatibility and must be >= 1; it has no effect.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    labels = [s.label() for s in strategies]
    if len(set(labels)) != len(labels):
        repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
        raise ConfigError(f"strategy labels must be unique within one run: {repeated!r} repeats")
    ordered = sorted(seeds)
    records = []
    for strategy in strategies:
        records += _decode(
            scene, strategy, ordered,
            max_steps=max_steps, temperature=temperature, prompt_id=prompt_id,
        )
    return records
