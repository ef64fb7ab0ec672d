"""Containers and the softmax/sample/argmax primitives.

Numeric reference values were computed independently at 50-digit precision
and frozen here.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logit_anchor import (
    ContractError,
    ExclusionError,
    GenerationRecord,
    LogitVector,
    ProbDist,
    StepTrace,
    Vocabulary,
    argmax,
    entropy,
    sample,
    softmax,
)
from logit_anchor.core import _greedy_rows, _sample_rows

# 50-digit reference: softmax([1, 2, 3])
SOFTMAX_123 = (0.09003057317038046, 0.24472847105479767, 0.6652409557748219)
# 50-digit reference: entropy([0.5, 0.25, 0.25]) = 1.5 * ln 2
ENTROPY_HALF_QUARTERS = 1.0397207708399179
LN4 = 1.3862943611198906


def vec(*scores, mask=None):
    return LogitVector.of(np.asarray(scores, dtype=float), mask)


finite_logits = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    min_size=1, max_size=64,
)


class TestVocabulary:
    def test_round_trip(self):
        v = Vocabulary(("a", "b", "c"))
        assert v.size == 3
        assert v.id_of("b") == 1
        assert v.token(2) == "c"
        assert "a" in v and "z" not in v

    def test_render_joins_with_spaces(self):
        v = Vocabulary(("The", "dog", "</s>"))
        assert v.render((0, 1, 2)) == "The dog </s>"

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ContractError):
            Vocabulary(("a", "b", "a"))

    def test_unknown_lookups_rejected(self):
        v = Vocabulary(("a",))
        with pytest.raises(ContractError):
            v.id_of("b")
        with pytest.raises(ContractError):
            v.token(5)


class TestLogitVector:
    def test_arrays_are_read_only(self):
        lv = vec(1.0, 2.0)
        with pytest.raises(ValueError):
            lv.scores[0] = 9.0
        with pytest.raises(ValueError):
            lv.mask[0] = True

    def test_unmasked_scores_must_be_finite(self):
        with pytest.raises(ContractError):
            vec(1.0, float("inf"))
        with pytest.raises(ContractError):
            vec(float("nan"), 0.0)

    def test_masked_entries_may_be_non_finite(self):
        lv = vec(1.0, float("inf"), mask=np.array([False, True]))
        assert np.count_nonzero(~lv.mask) == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            LogitVector(np.zeros(3), np.zeros(2, dtype=bool))
        with pytest.raises(ContractError):
            LogitVector.of(np.zeros((2, 2)))

    def test_with_mask(self):
        lv = vec(1.0, 2.0, 3.0)
        masked = lv.with_mask([True, False, False])
        assert np.count_nonzero(~masked.mask) == 2
        assert np.array_equal(masked.scores, lv.scores)


class TestProbDist:
    def test_must_sum_to_one(self):
        with pytest.raises(ContractError):
            ProbDist(np.array([0.5, 0.4]))

    def test_no_negative_probabilities(self):
        with pytest.raises(ContractError):
            ProbDist(np.array([1.2, -0.2]))

    def test_prob_lookup(self):
        d = ProbDist(np.array([0.25, 0.75]))
        assert d.prob(1) == 0.75
        assert d.size == 2


class TestSoftmax:
    def test_reference_values(self):
        d = softmax(vec(1.0, 2.0, 3.0))
        assert d.probs == pytest.approx(SOFTMAX_123, abs=1e-12)

    def test_shift_invariance(self):
        a = softmax(vec(1.0, 2.0, 3.0))
        b = softmax(vec(101.0, 102.0, 103.0))
        assert a.probs == pytest.approx(b.probs, abs=1e-12)

    def test_extreme_scores_stay_finite(self):
        d = softmax(vec(700.0, -700.0, 0.0))
        assert np.isfinite(d.probs).all()
        assert d.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_masked_tokens_get_exactly_zero(self):
        d = softmax(vec(5.0, 1.0, 1.0, mask=np.array([False, True, False])))
        assert d.probs[1] == 0.0
        two = softmax(vec(5.0, 1.0))
        assert d.probs[0] == pytest.approx(two.probs[0], abs=1e-15)

    def test_temperature_divides_scores(self):
        warm = softmax(vec(2.0, 1.0), temperature=2.0)
        manual = softmax(vec(1.0, 0.5))
        assert warm.probs == pytest.approx(manual.probs, abs=1e-15)
        with pytest.raises(ContractError):
            softmax(vec(1.0), temperature=0.0)

    def test_all_masked_raises(self):
        with pytest.raises(ExclusionError):
            softmax(vec(1.0, 2.0, mask=np.array([True, True])))

    @given(finite_logits)
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_nonnegative(self, scores):
        d = softmax(LogitVector.of(scores))
        assert abs(float(d.probs.sum()) - 1.0) < 1e-9
        assert (d.probs >= 0).all()

    @given(finite_logits, st.floats(min_value=-20, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_property(self, scores, c):
        a = softmax(LogitVector.of(scores))
        b = softmax(LogitVector.of(np.asarray(scores) + c))
        assert a.probs == pytest.approx(b.probs, abs=1e-9)


class TestEntropy:
    def test_reference_value(self):
        d = ProbDist(np.array([0.5, 0.25, 0.25]))
        assert entropy(d) == pytest.approx(ENTROPY_HALF_QUARTERS, abs=1e-12)

    def test_uniform_is_log_n(self):
        d = ProbDist(np.full(4, 0.25))
        assert entropy(d) == pytest.approx(LN4, abs=1e-12)

    def test_degenerate_is_zero(self):
        d = ProbDist(np.array([0.0, 1.0, 0.0]))
        assert entropy(d) == 0.0

    @given(finite_logits)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_log_support(self, scores):
        d = softmax(LogitVector.of(scores))
        h = entropy(d)
        assert -1e-12 <= h <= math.log(len(scores)) + 1e-9


class TestSample:
    def test_consumes_exactly_one_uniform(self):
        class CountingRng:
            def __init__(self, u):
                self.u, self.count = u, 0

            def random(self):
                self.count += 1
                return self.u

        d = ProbDist(np.array([0.2, 0.3, 0.5]))
        stub = CountingRng(0.0)
        assert sample(d, stub) == 0
        assert stub.count == 1
        assert sample(d, CountingRng(0.9999)) == 2
        # inverse CDF: u in [0.2, 0.5) lands on the middle token
        assert sample(d, CountingRng(0.25 / 1.0)) == 1

    def test_never_returns_zero_probability_token(self, rng):
        d = ProbDist(np.array([0.5, 0.0, 0.5]))
        draws = {sample(d, rng) for _ in range(300)}
        assert 1 not in draws
        assert draws == {0, 2}

    def test_empirical_frequencies(self, rng):
        probs = np.array([0.1, 0.2, 0.7])
        d = ProbDist(probs)
        n = 20000
        counts = np.bincount([sample(d, rng) for _ in range(n)], minlength=3)
        # 5 sigma on a binomial proportion
        for k in range(3):
            sigma = math.sqrt(probs[k] * (1 - probs[k]) / n)
            assert abs(counts[k] / n - probs[k]) < 5 * sigma

    def test_all_zero_raises(self):
        d = ProbDist(np.array([1.0, 0.0]))
        fake = ProbDist.__new__(ProbDist)
        object.__setattr__(fake, "probs", np.zeros(2))
        with pytest.raises(ExclusionError):
            sample(fake, np.random.default_rng(0))
        assert d.prob(0) == 1.0


class TestArgmax:
    def test_lowest_index_wins_ties(self):
        assert argmax(vec(1.0, 3.0, 3.0)) == 1

    def test_masked_tokens_never_win(self):
        lv = vec(9.0, 1.0, mask=np.array([True, False]))
        assert argmax(lv) == 1

    def test_all_masked_raises(self):
        with pytest.raises(ExclusionError):
            argmax(vec(1.0, mask=np.array([True])))


def scan_sample(row, u):
    """Literal inverse CDF: the first token whose running sum over the
    positive support exceeds ``u * total``; the last one if none does."""
    support = [i for i, p in enumerate(row) if p > 0.0]
    total = 0.0
    for i in support:
        total += row[i]
    running = 0.0
    for i in support:
        running += row[i]
        if running > u * total:
            return i
    return support[-1]


def scan_greedy(row, mask):
    """Literal argmax: the lowest-id unmasked maximum."""
    best = None
    for i, (x, masked) in enumerate(zip(row, mask)):
        if not masked and (best is None or x > row[best]):
            best = i
    return best


# Zero, subnormal and tiny entries next to ordinary ones.
_PROB_ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, 5e-324, 1e-310, 1e-300, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)
_UNIFORMS = st.one_of(
    st.sampled_from([0.0, 1.0 - 2.0**-53, 0.5]), st.floats(0.0, 1.0, exclude_max=True)
)
# A few repeated values make tied maxima common.
_SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 2.5]), st.floats(-50.0, 50.0))


class TestRowKernels:
    """The sampling and greedy kernels, batch and one row, against literal scans."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sample_rows_matches_scan(self, data):
        rows, vocab = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        probs = data.draw(arrays(np.float64, (rows, vocab), elements=_PROB_ENTRIES))
        for row in probs:  # each row needs a positive entry
            if not (row > 0).any():
                row[data.draw(st.integers(0, vocab - 1))] = data.draw(
                    st.sampled_from([5e-324, 0.3])
                )
        us = data.draw(st.lists(_UNIFORMS, min_size=rows, max_size=rows))
        want = [scan_sample(list(row), u) for row, u in zip(probs, us)]
        assert _sample_rows(probs, np.array(us)) == want
        assert [_sample_rows(row, u)[0] for row, u in zip(probs, us)] == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_greedy_rows_matches_scan(self, data):
        rows, vocab = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        scores = data.draw(arrays(np.float64, (rows, vocab), elements=_SCORES))
        mask = data.draw(arrays(bool, (rows, vocab)))
        for row in mask:
            row[data.draw(st.integers(0, vocab - 1))] = False
        want = [scan_greedy(list(s), list(m)) for s, m in zip(scores, mask)]
        assert _greedy_rows(scores, mask) == want
        assert [argmax(LogitVector(s, m)) for s, m in zip(scores, mask)] == want
        unmasked = [scan_greedy(list(s), [False] * vocab) for s in scores]
        assert _greedy_rows(scores, None) == unmasked

    def test_sample_matches_scan_at_the_edges(self):
        d = ProbDist(np.array([0.0, 0.2, 0.0, 0.3, 0.5, 0.0]))
        for u in (0.0, 0.2, 0.5 - 2.0**-54, 0.5, 0.99, 1.0 - 2.0**-53):
            rng = SimpleNamespace(random=lambda u=u: u)
            assert sample(d, rng) == scan_sample(list(d.probs), u)


class TestStepTrace:
    @staticmethod
    def _trace(chosen, mask=None):
        lv = vec(1.0, 2.0, mask=mask)
        d = softmax(lv)
        return StepTrace(
            step_index=0, raw_logits=lv, adjusted_logits=lv, dist=d,
            chosen=chosen, entropy_nats=entropy(d), provider_calls=1,
        )

    def test_valid_trace(self):
        t = self._trace(1)
        assert t.chosen == 1 and t.provider_calls == 1

    def test_masked_choice_rejected(self):
        with pytest.raises(ContractError):
            self._trace(0, mask=np.array([True, False]))

    def test_zero_probability_choice_rejected(self):
        lv = vec(1.0, 2.0)
        d = ProbDist(np.array([0.0, 1.0]))
        with pytest.raises(ContractError):
            StepTrace(
                step_index=0, raw_logits=lv, adjusted_logits=lv, dist=d,
                chosen=0, entropy_nats=0.0, provider_calls=1,
            )


def test_generation_record_token_ids():
    lv = vec(1.0, 2.0)
    d = softmax(lv)
    step = StepTrace(
        step_index=0, raw_logits=lv, adjusted_logits=lv, dist=d,
        chosen=1, entropy_nats=entropy(d), provider_calls=1,
    )
    rec = GenerationRecord(
        prompt_id="p", strategy="baseline", seed=0, steps=(step, step), text="b b"
    )
    assert rec.token_ids == (1, 1)
