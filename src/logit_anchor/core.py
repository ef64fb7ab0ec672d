"""Numeric core: vocabularies, masked logit vectors, distributions, traces.

Everything downstream (decoding strategies, the simulator, metrics) is built
on four small operations defined here: a numerically stable masked softmax,
Shannon entropy in nats, seeded categorical sampling, and deterministic
argmax. All vectors are float64 numpy arrays indexed by token id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractError, ExclusionError

TokenId = int


@dataclass(frozen=True)
class Vocabulary:
    """An ordered, duplicate-free list of token strings.

    Token ids are positions in ``tokens``. The mapping is fixed for the
    lifetime of the object; everything else in the package refers to tokens
    by id and renders through :meth:`token`.
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

    def token(self, token_id: TokenId) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ContractError(f"token id {token_id} out of range")
        return self.tokens[token_id]

    def render(self, ids: Sequence[TokenId]) -> str:
        return " ".join(self.tokens[i] for i in ids)


def _as_float64(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractError(f"expected a 1-d score vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, slots=True)
class LogitVector:
    """Per-token scores plus a boolean exclusion lane.

    ``mask[i]`` True means token ``i`` is excluded: it receives exactly zero
    probability under :func:`softmax` and is never chosen by :func:`argmax`
    or :func:`sample`. Unmasked scores must be finite. Arrays are frozen
    (read-only views) so a vector can be shared between traces safely.
    """

    scores: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        scores = _as_float64(self.scores)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != scores.shape:
            raise ContractError(
                f"mask shape {mask.shape} does not match scores shape {scores.shape}"
            )
        if not mask.all() and not np.isfinite(scores[~mask]).all():
            raise ContractError("unmasked scores must be finite")
        scores = scores.copy()
        mask = mask.copy()
        scores.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def of(cls, scores, mask=None) -> "LogitVector":
        scores = _as_float64(scores)
        if mask is None:
            mask = np.zeros(scores.shape, dtype=bool)
        return cls(scores, mask)

    @property
    def size(self) -> int:
        return self.scores.shape[0]

    def with_mask(self, mask) -> "LogitVector":
        return LogitVector(self.scores, np.asarray(mask, dtype=bool))


@dataclass(frozen=True, slots=True)
class ProbDist:
    """A categorical distribution over token ids.

    Probabilities sum to 1 within 1e-9; excluded tokens carry exactly 0.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_float64(self.probs)
        if (probs < 0).any():
            raise ContractError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ContractError(f"probabilities sum to {total!r}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    def prob(self, token_id: TokenId) -> float:
        return float(self.probs[token_id])


def _unchecked(cls, **fields):
    """An instance of a frozen record built without running its checks.

    Only for the decode loop (``strategies.decode``), which makes the same
    checks once per step for all rows together and hands over read-only
    arrays that no writable alias outlives.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def softmax(logits: LogitVector, temperature: float = 1.0) -> ProbDist:
    """Masked softmax with max-subtraction for numerical stability.

    Masked tokens get exactly zero probability. ``temperature`` divides the
    scores before exponentiation; it must be positive.
    """
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    if logits.mask.all():
        raise ExclusionError("softmax over a fully masked vector")
    live = ~logits.mask
    scaled = logits.scores[live]
    if temperature != 1.0:
        scaled = scaled / temperature
    shifted = scaled - scaled.max()
    exps = np.exp(shifted)
    probs = np.zeros(logits.size, dtype=np.float64)
    probs[live] = exps / exps.sum()
    return ProbDist(probs)


def entropy(dist: ProbDist) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    p = dist.probs[dist.probs > 0]
    return float(-(p * np.log(p)).sum())


def sample(dist: ProbDist, rng: np.random.Generator) -> TokenId:
    """Draw one token id by inverse CDF over the positive-probability support.

    Consumes exactly one uniform variate, so parallel runs with aligned
    generators stay step-for-step comparable. Never returns a token with
    zero probability.
    """
    if not (dist.probs > 0).any():
        raise ExclusionError("sampling from an all-zero distribution")
    return _sample_rows(dist.probs, rng.random())[0]


def argmax(logits: LogitVector) -> TokenId:
    """Highest-scoring unmasked token; ties break toward the lowest id."""
    if logits.mask.all():
        raise ExclusionError("argmax over a fully masked vector")
    return _greedy_rows(logits.scores, logits.mask)[0]


# -- row kernels ----------------------------------------------------------------
# The decode loop (``strategies.decode``) runs these on all its rows at once;
# :func:`sample` and :func:`argmax` are their one-row case.


def _col(values):
    """Per-row values shaped to broadcast against the rows (a scalar for one row)."""
    return values if values.ndim == 0 else values[:, None]


def _listed(values: np.ndarray) -> list:
    """Per-row values as a list, one item per row."""
    items = values.tolist()
    return items if isinstance(items, list) else [items]


def _sample_rows(probs: np.ndarray, draws) -> list[TokenId]:
    """Inverse-CDF choice per row, from one uniform each (a scalar for one row).

    The choice is the first token whose running sum over the row's positive
    support exceeds ``u * total``. Zero entries add exactly 0, so the full
    row's running sums are the support's, and a zero entry never exceeds first.
    """
    cum = probs.cumsum(axis=-1)
    last = cum[..., -1]
    u = draws * last
    chosen = (cum > _col(u)).argmax(axis=-1).tolist()
    if probs.ndim == 1:
        probs, chosen, u, last = probs[None], [chosen], [u], [last]
    for j, (uj, lj) in enumerate(zip(u, last)):
        if uj >= lj:  # u reached the total: take the last supported token
            chosen[j] = int(np.flatnonzero(probs[j])[-1])
    return chosen


def _greedy_rows(scores: np.ndarray, mask: np.ndarray | None) -> list[TokenId]:
    """Each row's highest-scoring unmasked token, ties toward the lowest id."""
    best = scores if mask is None else np.where(mask, -np.inf, scores)
    return _listed(best.argmax(axis=-1))


@dataclass(frozen=True, slots=True)
class StepTrace:
    """Everything observable about one decoding step.

    ``raw_logits`` are the provider's scores before any strategy adjustment,
    ``adjusted_logits`` are what the final distribution was computed from
    (including the candidate mask), and ``provider_calls`` counts how many
    provider evaluations this step consumed.
    """

    step_index: int
    raw_logits: LogitVector
    adjusted_logits: LogitVector
    dist: ProbDist
    chosen: TokenId
    entropy_nats: float
    provider_calls: int

    def __post_init__(self):
        if self.adjusted_logits.mask[self.chosen]:
            raise ContractError(
                f"step {self.step_index} chose a masked token {self.chosen}"
            )
        if self.dist.prob(self.chosen) <= 0.0:
            raise ContractError(
                f"step {self.step_index} chose a zero-probability token {self.chosen}"
            )


@dataclass(frozen=True)
class GenerationRecord:
    """One completed decoding run: per-step traces plus the rendered text."""

    prompt_id: str
    strategy: str
    seed: int
    steps: tuple[StepTrace, ...] = field(repr=False)
    text: str

    @property
    def token_ids(self) -> tuple[TokenId, ...]:
        return tuple(s.chosen for s in self.steps)
