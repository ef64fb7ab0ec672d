"""Adaptive candidate truncation.

A token stays a candidate iff its probability under the *original*
(unadjusted) distribution is at least ``beta`` times the maximum
probability. beta = 0 keeps everything; beta = 1 keeps only the mode (plus
exact ties). The mask produced here is intersected with a logit vector's
existing exclusion lane by :func:`apply_mask`; it never un-excludes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LogitVector, ProbDist, TokenId
from .errors import ConfigError, ContractError, ExclusionError


@dataclass(frozen=True)
class CandidateMask:
    """Boolean keep-lane over token ids plus the beta that produced it."""

    allowed: np.ndarray
    beta: float

    def __post_init__(self):
        allowed = np.asarray(self.allowed, dtype=bool)
        if allowed.ndim != 1:
            raise ContractError(f"mask must be 1-d, got shape {allowed.shape}")
        if not allowed.any():
            raise ExclusionError("candidate mask excludes every token")
        allowed = allowed.copy()
        allowed.setflags(write=False)
        object.__setattr__(self, "allowed", allowed)

    @property
    def size(self) -> int:
        return self.allowed.shape[0]

    def with_allowed(self, token_id: TokenId) -> "CandidateMask":
        """Copy with one extra token force-allowed (used for EOS exemption)."""
        allowed = self.allowed.copy()
        allowed[token_id] = True
        return CandidateMask(allowed, self.beta)


def candidate_set(original: ProbDist, beta: float) -> CandidateMask:
    """Tokens whose probability reaches beta times the maximum.

    The argmax always qualifies (p_max >= beta * p_max for beta <= 1), so the
    result is never empty.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta!r}")
    threshold = beta * float(original.probs.max())
    return CandidateMask(original.probs >= threshold, beta)


def apply_mask(logits: LogitVector, mask: CandidateMask) -> LogitVector:
    """Exclude every token the mask drops; keep surviving scores unchanged.

    Exclusion only accumulates: tokens already masked in ``logits`` stay
    masked even if the candidate mask would allow them.
    """
    if mask.size != logits.size:
        raise ContractError(
            f"candidate mask size {mask.size} does not match vector size {logits.size}"
        )
    combined = logits.mask | ~mask.allowed
    if combined.all():
        raise ExclusionError("candidate mask excluded every unmasked token")
    return logits.with_mask(combined)
