"""The vocabulary, the softmax and entropy kernels, the choice kernels, and recorded steps.

Numeric reference values were computed independently at 50-digit precision
and frozen here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from logit_anchor import (
    ContractError,
    GenerationRecord,
    LogitVector,
    ProbDist,
    StepTrace,
    Vocabulary,
    parse_strategy,
    run_many,
    run_strategy,
)
from logit_anchor.strategies import (
    CONTRASTIVE_KINDS, GREEDY, _entropies, _greedy_rows, _normalised, _sample_rows, _softmax,
)

# 50-digit reference: softmax([1, 2, 3])
SOFTMAX_123 = (0.09003057317038046, 0.24472847105479767, 0.6652409557748219)
# 50-digit reference: entropy([0.5, 0.25, 0.25]) = 1.5 * ln 2
ENTROPY_HALF_QUARTERS = 1.0397207708399179
LN4 = 1.3862943611198906


def softmax(*scores, mask=None, temperature=1.0):
    """The loop's ``_softmax`` of one row of ``scores``: its probabilities."""
    return _softmax(np.asarray(scores, dtype=float), mask, temperature)[0]


finite_logits = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    min_size=1, max_size=64,
)


class TestVocabulary:
    def test_round_trip(self):
        v = Vocabulary(("a", "b", "c"))
        assert v.size == 3
        assert v.id_of("b") == 1
        assert v.tokens[2] == "c"
        assert "a" in v and "z" not in v

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ContractError):
            Vocabulary(("a", "b", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="^vocabulary is empty$"):
            Vocabulary(())

    def test_unknown_lookups_rejected(self):
        v = Vocabulary(("a",))
        with pytest.raises(ContractError):
            v.id_of("b")


class TestLogitVector:
    def test_arrays_are_read_only(self, scene):
        """A recorded step shares the loop's arrays, so none of them may be writable."""
        strategy = parse_strategy("flb")
        records = [
            run_strategy(scene, strategy, seed=3, max_steps=12),
            *run_many(scene, [strategy], [3, 4], max_steps=12, record=True),
        ]
        for record in records:
            for step in record.steps:
                for arr in (
                    step.raw_logits.scores, step.raw_logits.mask,
                    step.adjusted_logits.scores, step.adjusted_logits.mask, step.dist.probs,
                ):
                    with pytest.raises(ValueError):
                        arr[0] = arr[1]


# Every kind, with and without the candidate constraint where the kind may go without it.
STEP_KINDS = [
    "baseline", "greedy", "baseline:beta=0.1", "greedy:beta=0.3",
    "vcd", "icd", "m3id", "flb", "flb:mask=nouns",
]


class TestStepTrace:
    """A recorded step is a plain record, so what it holds is checked on the loop's records."""

    @pytest.mark.parametrize("text", STEP_KINDS)
    def test_valid_trace(self, scene, text):
        strategy = parse_strategy(text)
        calls = 2 if strategy.kind in CONTRASTIVE_KINDS else 1
        for temperature in (1.0, 0.7):
            records = run_many(
                scene, [strategy], range(4), max_steps=30, temperature=temperature, record=True
            )
            for record in records:
                for t, step in enumerate(record.steps):
                    raw, adjusted, probs = step.raw_logits, step.adjusted_logits, step.dist.probs
                    assert step.step_index == t
                    assert step.provider_calls == record.provider_calls[t] == calls
                    assert not raw.mask.any()  # providers mask nothing
                    if strategy.beta is None:
                        assert not adjusted.mask.any()
                    else:  # the keep-set of the raw distribution, EOS re-allowed
                        allowed = oracle.candidate_set(
                            oracle.softmax(raw.scores, raw.mask, temperature),
                            strategy.beta, scene.eos_id,
                        )
                        assert np.array_equal(adjusted.mask, ~allowed)
                    assert (probs >= 0.0).all() and abs(float(probs.sum()) - 1.0) <= 1e-9
                    assert not probs[adjusted.mask].any()
                    assert not adjusted.mask[step.chosen] and probs[step.chosen] > 0.0
                    assert step.chosen == record.chosen[t]
                    assert probs[step.chosen] == record.chosen_prob[t]
                    assert step.entropy_nats == record.entropy[t]
                    if strategy.kind == GREEDY:
                        best = np.where(adjusted.mask, -np.inf, adjusted.scores)
                        assert step.chosen == int(best.argmax())


class TestSoftmax:
    def test_reference_values(self):
        assert softmax(1.0, 2.0, 3.0) == pytest.approx(SOFTMAX_123, abs=1e-12)

    def test_shift_invariance(self):
        a = softmax(1.0, 2.0, 3.0)
        b = softmax(101.0, 102.0, 103.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_extreme_scores_stay_finite(self):
        p = softmax(700.0, -700.0, 0.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_masked_tokens_get_exactly_zero(self):
        p = softmax(5.0, 1.0, 1.0, mask=np.array([False, True, False]))
        assert p[1] == 0.0
        two = softmax(5.0, 1.0)
        assert p[0] == pytest.approx(two[0], abs=1e-15)

    def test_temperature_divides_scores(self):
        warm = softmax(2.0, 1.0, temperature=2.0)
        manual = softmax(1.0, 0.5)
        assert warm == pytest.approx(manual, abs=1e-15)

    @given(finite_logits)
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_nonnegative(self, scores):
        p = softmax(*scores)
        assert abs(float(p.sum()) - 1.0) < 1e-9
        assert (p >= 0).all()

    @given(finite_logits, st.floats(min_value=-20, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_property(self, scores, c):
        a = softmax(*scores)
        b = softmax(*(np.asarray(scores) + c))
        assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lone_row_equals_its_row_in_a_batch(self, data):
        """A masked lone row (1-d) gives what its row of a batch gives, bit for bit, and the oracle."""
        # Up to 40 entries: above 8, a zero-padded row sums in another grouping than its packed entries.
        rows, vocab = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 40))
        scores = data.draw(arrays(np.float64, (rows, vocab), elements=st.floats(-40.0, 40.0)))
        mask = data.draw(arrays(bool, (rows, vocab)))
        for row in mask:  # each row keeps one entry at least
            row[data.draw(st.integers(0, vocab - 1))] = False
        temperature = data.draw(st.sampled_from([1.0, 0.5, 2.0]))
        probs, entropies = _softmax(scores, mask, temperature)
        for i in range(rows):
            p, ent = _softmax(scores[i], mask[i], temperature)
            want = oracle.softmax(scores[i], mask[i], temperature)
            assert p.tobytes() == probs[i].tobytes() == want.tobytes()
            assert float(ent) == float(entropies[i]) == oracle.entropy(want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_largest_probability_is_one_over_total(self, data):
        """``_normalised``'s identity, bit for bit, for a batch and each lone row: the
        cut compares against ``1 / total``, and C2 and the plausibility tests pass
        ``probs.max()`` for it."""
        rows, vocab = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 40))
        scores = data.draw(arrays(np.float64, (rows, vocab), elements=st.floats(-40.0, 40.0)))
        temperature = data.draw(st.sampled_from([1.0, 0.5, 0.7, 2.0]))
        probs, totals = _normalised(scores, temperature)
        assert probs.max(axis=1).tobytes() == (1.0 / totals).tobytes()
        for row in scores:
            p, total = _normalised(row, temperature)
            assert float(p.max()).hex() == float(1.0 / total).hex()


class TestEntropy:
    def test_reference_value(self):
        h = _entropies(np.array([0.5, 0.25, 0.25]))
        assert h == pytest.approx(ENTROPY_HALF_QUARTERS, abs=1e-12)

    def test_uniform_is_log_n(self):
        assert _entropies(np.full(4, 0.25)) == pytest.approx(LN4, abs=1e-12)

    def test_degenerate_is_zero(self):
        assert _entropies(np.array([0.0, 1.0, 0.0])) == 0.0

    @given(finite_logits)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_log_support(self, scores):
        h = _entropies(softmax(*scores))
        assert -1e-12 <= h <= math.log(len(scores)) + 1e-9


def sample(probs, rng):
    """The loop's sampling kernel on one row, from one uniform of ``rng``."""
    return _sample_rows(probs, rng.random())[0]


class TestSample:
    def test_inverse_cdf(self):
        probs = np.array([0.2, 0.3, 0.5])
        assert _sample_rows(probs, 0.0) == [0]
        assert _sample_rows(probs, 0.9999) == [2]
        # inverse CDF: u in [0.2, 0.5) lands on the middle token
        assert _sample_rows(probs, 0.25 / 1.0) == [1]

    def test_never_returns_zero_probability_token(self, rng):
        probs = np.array([0.5, 0.0, 0.5])
        draws = {sample(probs, rng) for _ in range(300)}
        assert 1 not in draws
        assert draws == {0, 2}

    def test_empirical_frequencies(self, rng):
        probs = np.array([0.1, 0.2, 0.7])
        n = 20000
        counts = np.bincount([sample(probs, rng) for _ in range(n)], minlength=3)
        # 5 sigma on a binomial proportion
        for k in range(3):
            sigma = math.sqrt(probs[k] * (1 - probs[k]) / n)
            assert abs(counts[k] / n - probs[k]) < 5 * sigma


class TestArgmax:
    def test_lowest_index_wins_ties(self):
        assert _greedy_rows(np.array([1.0, 3.0, 3.0]), None) == [1]

    def test_masked_tokens_never_win(self):
        assert _greedy_rows(np.array([9.0, 1.0]), np.array([True, False])) == [1]


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
        assert [_greedy_rows(s, m)[0] for s, m in zip(scores, mask)] == want
        unmasked = [scan_greedy(list(s), [False] * vocab) for s in scores]
        assert _greedy_rows(scores, None) == unmasked

    def test_sample_matches_scan_at_the_edges(self):
        probs = np.array([0.0, 0.2, 0.0, 0.3, 0.5, 0.0])
        for u in (0.0, 0.2, 0.5 - 2.0**-54, 0.5, 0.99, 1.0 - 2.0**-53):
            assert _sample_rows(probs, u)[0] == scan_sample(list(probs), u)


def test_generation_record_token_ids():
    scores = np.array([1.0, 2.0])
    lv = LogitVector(scores, np.zeros(2, dtype=bool))
    p = softmax(*scores)
    h = float(_entropies(p))
    step = StepTrace(
        step_index=0, raw_logits=lv, adjusted_logits=lv, dist=ProbDist(p),
        chosen=1, entropy_nats=h, provider_calls=1,
    )
    rec = GenerationRecord(
        prompt_id="p", strategy="baseline", seed=0, chosen=(1, 1),
        entropy=(h, h), chosen_prob=(p[1], p[1]), gt_mass=(p[1], p[1]), hal_mass=(0.0, 0.0),
        provider_calls=(1, 1), steps=(step, step),
    )
    assert rec.token_ids == (1, 1)
