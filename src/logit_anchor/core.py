"""Numeric core: the vocabulary and the run records.

A run's record (``GenerationRecord``) holds its summary columns and, when
recorded, one plain ``StepTrace`` per step, whose vectors (``LogitVector``,
``ProbDist``) are float64 numpy arrays indexed by token id. The row kernels
that compute them and choose each token are in ``strategies``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError

TokenId = int

# How far from 1 the decode loop (``strategies._check_step``) lets a row's probabilities sum.
PROB_SLACK = 1e-9


@dataclass(frozen=True)
class Vocabulary:
    """An ordered, duplicate-free list of token strings.

    Token ids are positions in ``tokens``. The mapping is fixed for the
    lifetime of the object; everything else in the package refers to tokens
    by id.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ContractError("vocabulary contains duplicate tokens")
        if not self.tokens:
            raise ContractError("vocabulary is empty")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> TokenId:
        try:
            return self._index[token]
        except KeyError:
            raise ContractError(f"token {token!r} not in vocabulary") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index


@dataclass(frozen=True, slots=True)
class LogitVector:
    """A recorded step's per-token scores and boolean exclusion lane (read-only).

    ``mask[i]`` True means token ``i`` was excluded: it got exactly zero
    probability and could not be chosen.
    """

    scores: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True, slots=True)
class ProbDist:
    """A recorded step's categorical distribution over token ids (read-only)."""

    probs: np.ndarray


@dataclass(frozen=True, slots=True)
class StepTrace:
    """Everything observable about one decoding step.

    ``raw_logits`` are the provider's scores before any strategy adjustment,
    ``adjusted_logits`` are what the final distribution was computed from
    (including the candidate mask), and ``provider_calls`` counts how many
    provider evaluations this step consumed. A plain record: the decode loop
    checks each step once, for all rows together (``strategies._check_step``),
    and shares its read-only arrays with it.
    """

    step_index: int
    raw_logits: LogitVector
    adjusted_logits: LogitVector
    dist: ProbDist
    chosen: TokenId
    entropy_nats: float
    provider_calls: int


@dataclass(frozen=True)
class GenerationRecord:
    """One completed decoding run: one column per step summary.

    Item t of a column is step t's chosen token, entropy in nats, chosen-token
    probability, gt or hal noun mass, or provider calls. ``steps`` holds each
    step's ``StepTrace`` for a run decoded with ``record=True``, else None.
    """

    prompt_id: str
    strategy: str
    seed: int
    chosen: tuple[TokenId, ...]
    entropy: tuple[float, ...]
    chosen_prob: tuple[float, ...]
    gt_mass: tuple[float, ...]
    hal_mass: tuple[float, ...]
    provider_calls: tuple[int, ...]
    steps: tuple[StepTrace, ...] | None = field(default=None, repr=False)

    @property
    def token_ids(self) -> tuple[TokenId, ...]:
        return self.chosen
