"""Adaptive candidate truncation against a brute-force reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logit_anchor import (
    CandidateMask,
    ConfigError,
    ContractError,
    ExclusionError,
    LogitVector,
    ProbDist,
    apply_mask,
    candidate_set,
    softmax,
)


def brute_force_allowed(probs: np.ndarray, beta: float) -> np.ndarray:
    """Literal scan of the rule: keep y iff p(y) >= beta * max p."""
    pmax = max(float(p) for p in probs)
    return np.array([float(p) >= beta * pmax for p in probs])


def random_dist(rng, n):
    return softmax(LogitVector.of(rng.normal(scale=3.0, size=n)))


class TestCandidateSet:
    def test_matches_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 64))
            dist = random_dist(rng, n)
            beta = float(rng.random())
            got = candidate_set(dist, beta)
            assert np.array_equal(got.allowed, brute_force_allowed(dist.probs, beta))

    def test_argmax_always_included(self, rng):
        for _ in range(200):
            dist = random_dist(rng, 16)
            mask = candidate_set(dist, float(rng.random()))
            assert mask.allowed[int(np.argmax(dist.probs))]

    def test_beta_zero_keeps_everything(self):
        dist = ProbDist(np.array([0.7, 0.3, 0.0]))
        assert candidate_set(dist, 0.0).allowed.all()

    def test_beta_one_keeps_only_modes(self):
        dist = ProbDist(np.array([0.4, 0.4, 0.2]))
        assert list(candidate_set(dist, 1.0).allowed) == [True, True, False]

    def test_threshold_boundary_is_inclusive(self):
        # dyadic values so beta * max is exact: threshold = 0.5 * 0.5 = 0.25
        dist = ProbDist(np.array([0.5, 0.25, 0.125, 0.125]))
        assert list(candidate_set(dist, 0.5).allowed) == [True, True, False, False]
        assert list(candidate_set(dist, 0.25).allowed) == [True, True, True, True]
        assert list(candidate_set(dist, 0.3).allowed) == [True, True, False, False]

    def test_beta_out_of_range_rejected(self):
        dist = ProbDist(np.array([1.0]))
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                candidate_set(dist, bad)

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=32),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_shrink_in_beta(self, scores, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        dist = softmax(LogitVector.of(scores))
        wide = candidate_set(dist, lo).allowed
        narrow = candidate_set(dist, hi).allowed
        assert (~wide[narrow]).sum() == 0  # narrow subseteq wide
        assert narrow.sum() >= 1


class TestCandidateMask:
    def test_never_empty(self):
        with pytest.raises(ExclusionError):
            CandidateMask(np.zeros(3, dtype=bool), 0.5)

    def test_with_allowed_adds_one_token(self):
        m = CandidateMask(np.array([True, False, False]), 0.5)
        m2 = m.with_allowed(2)
        assert list(m2.allowed) == [True, False, True]
        assert list(m.allowed) == [True, False, False]
        assert m2.beta == 0.5


class TestApplyMask:
    def test_keeps_scores_changes_mask(self):
        lv = LogitVector.of([1.0, 2.0, 3.0])
        out = apply_mask(lv, CandidateMask(np.array([True, False, True]), 0.3))
        assert np.array_equal(out.scores, lv.scores)
        assert list(out.mask) == [False, True, False]

    def test_never_unexcludes(self):
        lv = LogitVector.of([1.0, 2.0], np.array([True, False]))
        out = apply_mask(lv, CandidateMask(np.array([True, True]), 0.0))
        assert list(out.mask) == [True, False]

    def test_all_excluded_raises(self):
        lv = LogitVector.of([1.0, 2.0], np.array([True, False]))
        with pytest.raises(ExclusionError):
            apply_mask(lv, CandidateMask(np.array([True, False]), 0.9))

    def test_size_mismatch_rejected(self):
        lv = LogitVector.of([1.0, 2.0])
        with pytest.raises(ContractError):
            apply_mask(lv, CandidateMask(np.array([True, False, True]), 0.1))
