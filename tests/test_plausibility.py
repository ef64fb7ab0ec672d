"""The candidate constraint's cut (``strategies._below_cut``) against a brute-force reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logit_anchor import ConfigError, Strategy
from logit_anchor.strategies import _below_cut, _softmax


def brute_force_allowed(probs: np.ndarray, beta: float) -> np.ndarray:
    """Literal scan of the rule: keep y iff p(y) >= beta * max p."""
    pmax = max(float(p) for p in probs)
    return np.array([float(p) >= beta * pmax for p in probs])


def softmax(scores) -> np.ndarray:
    return _softmax(np.asarray(scores, dtype=float), None, 1.0)[0]


def random_dist(rng, n):
    return softmax(rng.normal(scale=3.0, size=n))


def candidate_set(probs: np.ndarray, beta: float) -> np.ndarray:
    """The tokens the cut keeps, with ``top`` the row's largest probability."""
    return ~_below_cut(probs, probs.max(), beta)


class TestCandidateSet:
    def test_matches_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 64))
            dist = random_dist(rng, n)
            beta = float(rng.random())
            got = candidate_set(dist, beta)
            assert np.array_equal(got, brute_force_allowed(dist, beta))

    def test_argmax_always_included(self, rng):
        for _ in range(200):
            dist = random_dist(rng, 16)
            kept = candidate_set(dist, float(rng.random()))
            assert kept[int(np.argmax(dist))]

    def test_beta_zero_keeps_everything(self):
        dist = np.array([0.7, 0.3, 0.0])
        assert candidate_set(dist, 0.0).all()

    def test_beta_one_keeps_only_modes(self):
        dist = np.array([0.4, 0.4, 0.2])
        assert list(candidate_set(dist, 1.0)) == [True, True, False]

    def test_threshold_boundary_is_inclusive(self):
        # dyadic values so beta * max is exact: threshold = 0.5 * 0.5 = 0.25
        dist = np.array([0.5, 0.25, 0.125, 0.125])
        assert list(candidate_set(dist, 0.5)) == [True, True, False, False]
        assert list(candidate_set(dist, 0.25)) == [True, True, True, True]
        assert list(candidate_set(dist, 0.3)) == [True, True, False, False]

    def test_beta_out_of_range_rejected(self):
        """A beta is checked once, where a strategy is built, so the cut only sees [0, 1]."""
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError, match="beta must lie in"):
                Strategy(kind="baseline", beta=bad)

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=32),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_shrink_in_beta(self, scores, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        dist = softmax(scores)
        wide = candidate_set(dist, lo)
        narrow = candidate_set(dist, hi)
        assert (~wide[narrow]).sum() == 0  # narrow subseteq wide
        assert narrow.sum() >= 1
