"""One-vector references for the decode loop's per-step operations.

Each works on one plain ``[vocab]`` array (and a boolean mask, True for an
excluded token) and is written out on its own, independent of the loop's
row kernels, which the tests compare against these bit for bit.
"""

from __future__ import annotations

import numpy as np


def softmax(scores: np.ndarray, mask: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Masked softmax with max-subtraction: masked tokens get exactly zero.

    ``temperature`` divides the unmasked scores before exponentiation.
    """
    live = ~mask
    scaled = scores[live]
    if temperature != 1.0:
        scaled = scaled / temperature
    shifted = scaled - scaled.max()
    exps = np.exp(shifted)
    probs = np.zeros(scores.shape[0], dtype=np.float64)
    probs[live] = exps / exps.sum()
    return probs


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def boost(scores: np.ndarray, l0_contrib: np.ndarray, w_t: float) -> np.ndarray:
    """The current scores plus the weighted first-logit contribution."""
    return scores + w_t * l0_contrib


def candidate_set(probs: np.ndarray, beta: float, eos_id: int | None = None) -> np.ndarray:
    """The kept tokens: probability at least beta times the maximum, EOS re-allowed."""
    allowed = probs >= beta * float(probs.max())
    if eos_id is not None:
        allowed[eos_id] = True
    return allowed


def apply_mask(mask: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The exclusion lane with every token outside ``allowed`` added; it never un-excludes."""
    return mask | ~allowed
