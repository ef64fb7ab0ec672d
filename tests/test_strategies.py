"""Decoding strategies: boosting, contrastive combination, and the decode loops."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logit_anchor import (
    ConfigError,
    ContractError,
    ContrastiveConfig,
    ExclusionError,
    FlbConfig,
    LogitVector,
    Strategy,
    Vocabulary,
    WeightSchedule,
    apply_mask,
    boost,
    candidate_set,
    decode,
    entropy,
    parse_strategy,
    run_many,
    run_strategy,
    softmax,
    weight_at,
)
from logit_anchor import strategies
from logit_anchor.simulator import NegativeProvider, NegativeVariantSpec, SyntheticProvider
from logit_anchor.weighting import CONSTANT, DECREASING, INCREASING


@pytest.fixture(scope="module")
def quiet(scene=None):
    from logit_anchor import default_scene

    return replace(default_scene(), noise_sigma=0.0)


def tokens_of(record):
    return [s.chosen for s in record.steps]


def decode_flb(provider, cfg, *, seed, max_steps=60):
    """One flb run through the decode loop, on the given provider."""
    (record,) = decode(
        Strategy(kind="flb", flb=cfg), provider, [seed],
        noun_ids=provider.scene.noun_ids, max_steps=max_steps,
    )
    return record


def l0_contrib(l0, mode, vocab, noun_ids=None):
    """The boost's step-0 contribution, as the decode loop computes it."""
    return strategies._l0_rows(l0.scores, l0.mask, strategies._l0_lane(mode, vocab, noun_ids))


class Masked:
    """Serves ``inner`` through ``logits`` (no ``logit_rows``), with ``ids`` masked."""

    def __init__(self, inner, ids):
        self.inner, self.ids = inner, ids
        self.vocab, self.eos_id = inner.vocab, inner.eos_id

    @property
    def calls(self):
        return self.inner.calls

    def logits(self, history, t, rng=None):
        vec = self.inner.logits(history, t, rng)
        mask = vec.mask.copy()
        mask[self.ids] = True
        return vec.with_mask(mask)


class TestL0Contribution:
    def test_full_keeps_everything(self, scene):
        l0 = LogitVector.of([1.0, -2.0, 3.0])
        contrib = l0_contrib(l0, "full", Vocabulary(("x", "y", "z")))
        assert list(contrib) == [1.0, -2.0, 3.0]

    def test_masked_cache_entries_contribute_zero(self):
        l0 = LogitVector.of([1.0, 2.0], np.array([False, True]))
        contrib = l0_contrib(l0, "full", Vocabulary(("x", "y")))
        assert list(contrib) == [1.0, 0.0]

    def test_nouns_only(self, scene):
        l0 = LogitVector.of(np.arange(scene.vocabulary.size, dtype=float))
        contrib = l0_contrib(l0, "nouns_only", scene.vocabulary, scene.noun_ids)
        keep = np.zeros(scene.vocabulary.size, dtype=bool)
        keep[scene.noun_ids] = True
        assert (contrib[~keep] == 0.0).all()
        assert np.array_equal(contrib[keep], np.arange(48.0)[keep])

    def test_nouns_only_requires_ids(self, scene):
        l0 = LogitVector.of(np.zeros(48))
        with pytest.raises(ConfigError):
            l0_contrib(l0, "nouns_only", scene.vocabulary, None)

    def test_the_only(self, scene):
        l0 = LogitVector.of(np.ones(scene.vocabulary.size))
        contrib = l0_contrib(l0, "the_only", scene.vocabulary)
        the = scene.vocabulary.id_of("The")
        assert contrib[the] == 1.0
        assert contrib.sum() == 1.0

    def test_the_only_requires_the_token(self):
        l0 = LogitVector.of([1.0, 2.0])
        with pytest.raises(ConfigError):
            l0_contrib(l0, "the_only", Vocabulary(("x", "y")))

    def test_unknown_mode_rejected(self, scene):
        l0 = LogitVector.of(np.zeros(48))
        with pytest.raises(ConfigError):
            l0_contrib(l0, "verbs_only", scene.vocabulary)


class TestPureOps:
    def test_boost_is_exact_vector_add(self, rng):
        for _ in range(50):
            l_t = LogitVector.of(rng.normal(size=32))
            contrib = LogitVector.of(rng.normal(size=32))
            w = float(rng.random())
            out = boost(l_t, contrib, w)
            assert np.allclose(
                out.scores - l_t.scores, w * contrib.scores, atol=1e-12, rtol=0.0
            )
            assert np.array_equal(out.mask, l_t.mask)

    def test_boost_size_mismatch_rejected(self):
        with pytest.raises(ContractError):
            boost(LogitVector.of([1.0]), LogitVector.of([1.0, 2.0]), 0.5)

    def test_contrastive_adjust_formula(self):
        out = strategies._combine(np.array([1.0, 2.0]), np.array([0.0, 4.0]), 0.5)
        assert list(out) == [1.5, 1.0]

    def test_contrastive_adjust_unions_masks(self, scene):
        """A token either provider masks is masked in the combined scores, and nothing else is."""
        the, a = scene.vocabulary.id_of("The"), scene.vocabulary.id_of("A")
        negative = NegativeProvider(scene, NegativeVariantSpec("noisy_visual", 0.7))
        for seeds in ([0], [0, 1]):  # a lone row is 1-d, several are 2-d
            records = decode(
                parse_strategy("vcd:beta=0"), Masked(SyntheticProvider(scene), [the]),
                seeds, negative=Masked(negative, [a]), max_steps=10,
            )
            for step in (s for r in records for s in r.steps):
                assert step.adjusted_logits.mask[[the, a]].all()
                assert np.count_nonzero(step.adjusted_logits.mask) == 2
                assert step.chosen not in (the, a)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), -0.5])
    def test_contrastive_config_rejects_bad_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
            ContrastiveConfig(alpha=alpha)


class TestConstrainFast:
    """The decode loop's fused keep-set (``_candidate_mask``) against the public composition."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_public_composition(self, data):
        n = data.draw(st.integers(1, 9))
        temperature = data.draw(st.sampled_from([1.0, 0.5, 0.7, 2.0]))
        beta = data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0]))
        # Next to the threshold the rounding of the public path decides, so
        # draw scores a few ulps either side of the gap T * log(beta).
        edge = temperature * math.log(beta) if beta > 0 else -30.0
        near = st.integers(-4, 4).map(lambda k: edge + k * math.ulp(edge))
        scores = st.one_of(st.floats(-30.0, 30.0), near, st.just(0.0))
        raw_scores = np.array([0.0] + data.draw(st.lists(scores, min_size=n - 1, max_size=n - 1)))
        raw_mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        # A fully masked provider row is rejected before the constraint
        # (test_fully_masked_provider_row_is_rejected).
        assume(not raw_mask.all())
        raw = LogitVector(raw_scores, raw_mask)
        extra = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        wider = data.draw(st.booleans())
        base_mask = raw.mask | extra if wider else raw.mask
        eos = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))

        cmask = candidate_set(softmax(raw, temperature), beta)
        if eos is not None:
            cmask = cmask.with_allowed(eos)

        def got(as_rows):
            # The loop hands a lone row over 1-d and several rows 2-d.
            shape = (lambda a: a[None]) if as_rows else (lambda a: a)
            raw_mask = shape(raw.mask).copy()
            wide_mask = shape(base_mask).copy() if wider else raw_mask
            mask = strategies._candidate_mask(
                shape(raw.scores), raw_mask, wide_mask, temperature, beta, eos
            )
            return mask[0] if as_rows else mask

        try:
            want = apply_mask(LogitVector(raw.scores, base_mask), cmask)
        except ExclusionError:
            for as_rows in (False, True):
                with pytest.raises(ExclusionError):
                    got(as_rows)
            return
        assert np.array_equal(got(False), want.mask)
        assert np.array_equal(got(True), want.mask)

    @pytest.mark.parametrize(
        "beta, scores",
        [
            # Each has a token whose keep/drop decision differs between the
            # exact probability test and the plain exp(gap) >= beta test.
            (0.7, [0.0, -0.3566749439387324, -0.3566749439387326,
                   -0.3566749439387322, -0.3566749439387323]),
            (0.3, [0.0, -1.2039728043259361, -1.203972804325935]),
            (0.3, [0.0, -1.2039728043259361, -1.2039728043259352, -2.061064920001675]),
        ],
    )
    def test_threshold_rounding_follows_public_path(self, beta, scores):
        raw = LogitVector.of(scores)
        want = apply_mask(raw, candidate_set(softmax(raw), beta))
        naive = np.exp(raw.scores - raw.scores.max()) < beta
        assert not np.array_equal(want.mask, naive)
        for rows in (raw.scores, raw.scores[None]):
            got = strategies._candidate_mask(rows, None, None, 1.0, beta, None)
            assert np.array_equal(got.reshape(-1), want.mask)

    def test_fully_masked_provider_row_is_rejected(self, scene):
        for text in ("baseline", "baseline:beta=0.1", "flb"):
            with pytest.raises(ExclusionError, match="fully masked"):
                decode(parse_strategy(text), Masked(SyntheticProvider(scene), slice(None)),
                       [0, 1], noun_ids=scene.noun_ids)


class TestDecodeFlb:
    def test_step_zero_never_boosts_any_schedule(self, quiet):
        for kind in (INCREASING, DECREASING, CONSTANT):
            cfg = FlbConfig(schedule=WeightSchedule(kind, 0.3, 0.05))
            rec = decode_flb(SyntheticProvider(quiet), cfg, seed=4, max_steps=10)
            step0 = rec.steps[0]
            assert np.array_equal(step0.adjusted_logits.scores, step0.raw_logits.scores)

    def test_trace_telescoping(self, quiet):
        cfg = FlbConfig(schedule=WeightSchedule(INCREASING, 0.3, 0.05))
        rec = decode_flb(SyntheticProvider(quiet), cfg, seed=9, max_steps=40)
        step0 = rec.steps[0]
        contrib = np.where(step0.raw_logits.mask, 0.0, step0.raw_logits.scores)
        for step in rec.steps[1:]:
            w = weight_at(cfg.schedule, step.step_index)
            diff = step.adjusted_logits.scores - step.raw_logits.scores
            assert np.allclose(diff, w * contrib, atol=1e-12, rtol=0.0)

    def test_decode_path_matches_public_composition(self, quiet):
        cfg = FlbConfig(schedule=WeightSchedule(INCREASING, 0.4, 0.08), beta=0.1)
        rec = decode_flb(SyntheticProvider(quiet), cfg, seed=2, max_steps=30)
        step0 = rec.steps[0]
        contrib = LogitVector.of(
            np.where(step0.raw_logits.mask, 0.0, step0.raw_logits.scores)
        )
        eos = quiet.eos_id
        for step in rec.steps:
            w = 0.0 if step.step_index == 0 else weight_at(cfg.schedule, step.step_index)
            cmask = candidate_set(softmax(step.raw_logits), cfg.beta).with_allowed(eos)
            want = apply_mask(boost(step.raw_logits, contrib, w), cmask)
            assert np.array_equal(step.adjusted_logits.scores, want.scores)
            assert np.array_equal(step.adjusted_logits.mask, want.mask)
            assert np.array_equal(step.dist.probs, softmax(want).probs)

    def test_one_provider_call_per_step_including_step_zero(self, scene):
        provider = SyntheticProvider(scene)
        rec = decode_flb(provider, FlbConfig(), seed=0, max_steps=25)
        assert provider.calls == len(rec.steps)
        assert all(s.provider_calls == 1 for s in rec.steps)

    def test_eos_is_never_masked_out(self, scene):
        rec = decode_flb(SyntheticProvider(scene), FlbConfig(beta=0.9), seed=1, max_steps=30)
        assert all(not s.adjusted_logits.mask[scene.eos_id] for s in rec.steps)

    def test_weights_are_computed_per_step_not_up_front(self, scene, monkeypatch):
        calls = []

        def counting_weight_at(schedule, t):
            calls.append(t)
            return weight_at(schedule, t)

        monkeypatch.setattr(strategies, "weight_at", counting_weight_at)
        rec = decode_flb(SyntheticProvider(scene), FlbConfig(), seed=0, max_steps=10_000)
        assert rec.steps[-1].chosen == scene.eos_id
        assert len(calls) <= len(rec.steps)


class TestDegeneracy:
    def test_zero_gamma_equals_constrained_baseline(self, scene):
        for seed in range(6):
            base = run_strategy(scene, Strategy(kind="baseline", beta=0.1), seed=seed)
            flb = decode_flb(
                SyntheticProvider(scene),
                FlbConfig(schedule=WeightSchedule(INCREASING, 0.0, 0.05), beta=0.1),
                seed=seed,
            )
            assert tokens_of(base) == tokens_of(flb)

    def test_zero_gamma_distributions_bit_identical(self, scene):
        base = run_strategy(scene, Strategy(kind="baseline", beta=0.1), seed=17)
        flb = decode_flb(
            SyntheticProvider(scene),
            FlbConfig(schedule=WeightSchedule(INCREASING, 0.0, 0.05), beta=0.1),
            seed=17,
        )
        for sb, sf in zip(base.steps, flb.steps):
            assert np.array_equal(sb.dist.probs, sf.dist.probs)

    def test_zero_alpha_equals_constrained_baseline(self, scene):
        for seed in range(6):
            base = run_strategy(scene, Strategy(kind="baseline", beta=0.1), seed=seed)
            vcd = run_strategy(scene, parse_strategy("vcd:alpha=0"), seed=seed)
            assert tokens_of(base) == tokens_of(vcd)

    def test_zero_gamma_zero_beta_equals_pure_baseline(self, scene):
        for seed in range(6):
            base = run_strategy(scene, Strategy(kind="baseline"), seed=seed)
            flb = run_strategy(scene, parse_strategy("flb:gamma=0,beta=0"), seed=seed)
            assert tokens_of(base) == tokens_of(flb)


class TestStrategyDescriptor:
    def test_defaults_fill_in(self):
        s = Strategy(kind="vcd")
        assert s.contrastive.alpha == 1.0
        assert s.resolved_strength() == 0.7
        assert Strategy(kind="icd").resolved_strength() == 1.0
        assert Strategy(kind="m3id").resolved_strength() == 1.0
        f = Strategy(kind="flb")
        assert f.flb.schedule == WeightSchedule()
        assert f.flb.beta == 0.1

    def test_labels(self):
        assert Strategy(kind="baseline").label() == "baseline"
        assert Strategy(kind="baseline", beta=0.1).label() == "baseline(beta=0.1)"
        assert Strategy(kind="vcd").label() == "vcd(alpha=1,beta=0.1,strength=0.7)"
        assert Strategy(kind="flb").label() == \
            "flb(increasing,gamma=0.3,lam=0.05,beta=0.1,mask=full)"

    def test_cross_payload_rejected(self):
        with pytest.raises(ConfigError):
            Strategy(kind="vcd", flb=FlbConfig())
        with pytest.raises(ConfigError):
            Strategy(kind="baseline", contrastive=ContrastiveConfig())
        with pytest.raises(ConfigError):
            Strategy(kind="flb", beta=0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Strategy(kind="beam")


class TestParseStrategy:
    def test_plain_kinds(self):
        assert parse_strategy("baseline").kind == "baseline"
        assert parse_strategy("baseline").beta is None
        assert parse_strategy("baseline:beta=0.2").beta == 0.2

    def test_flb_parameters_and_aliases(self):
        s = parse_strategy("flb:gamma=0.5,lambda=0.1,schedule=dec,mask=nouns,beta=0.2")
        assert s.flb.schedule == WeightSchedule(DECREASING, 0.5, 0.1)
        assert s.flb.beta == 0.2
        assert s.flb.l0_mask == "nouns_only"
        s2 = parse_strategy("flb:lam=0.2,schedule=const,mask=the")
        assert s2.flb.schedule == WeightSchedule(CONSTANT, 0.3, 0.2)
        assert s2.flb.l0_mask == "the_only"

    def test_contrastive_parameters(self):
        s = parse_strategy("vcd:alpha=2,beta=0.05,strength=0.5")
        assert s.contrastive.alpha == 2.0
        assert s.contrastive.beta == 0.05
        assert s.resolved_strength() == 0.5

    def test_errors(self):
        for bad in (
            "warp", "flb:gamma", "flb:gamma=x", "flb:size=3",
            "vcd:gamma=0.3", "flb:schedule=linear", "flb:mask=verbs",
        ):
            with pytest.raises(ConfigError):
                parse_strategy(bad)

    @pytest.mark.parametrize("text, key", [
        ("flb:lambda=", "lambda"),
        ("flb:lam= ", "lam"),
        ("flb:gamma=", "gamma"),
        ("flb:schedule=", "schedule"),
        ("baseline:beta=", "beta"),
        ("vcd:alpha=,beta=0.1", "alpha"),
    ])
    def test_empty_value_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"{key} has an empty value"):
            parse_strategy(text)

    @pytest.mark.parametrize("text, key", [
        ("baseline:beta=0.1,beta=0.2", "beta"),
        ("flb:gamma=0.3,GAMMA=0.3", "gamma"),
        ("flb:lambda=0.1,lam=0.2", "lambda"),
        ("vcd:strength=0.5,alpha=1,strength=0.5", "strength"),
    ])
    def test_duplicate_key_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"{key} is given more than once"):
            parse_strategy(text)


_DESCRIPTOR_KINDS = st.sampled_from([
    "baseline", "greedy", "vcd", "icd", "m3id", "flb",
    "FLB", "Vcd", " Greedy ", "beam", "", "flb2",
])
_DESCRIPTOR_KEYS = st.sampled_from([
    "beta", "alpha", "strength", "gamma", "lambda", "lam", "schedule", "mask",
    "GAMMA", " Beta ", "size", "",
])
_DESCRIPTOR_VALUES = st.one_of(
    st.sampled_from([
        "0", "0.1", "1", "2.5", "1e308", "-1e308", "1e-320", "-0.5",
        "nan", "NaN", "inf", "-inf", "x", "", "0x10", "1_0",
        "inc", "dec", "const", "decreasing", "linear", "nouns", "the", "full", "verbs",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_DESCRIPTOR_PARTS = st.one_of(
    st.builds("{}={}".format, _DESCRIPTOR_KEYS, _DESCRIPTOR_VALUES),
    st.sampled_from(["gamma", "", "=1", "beta=0.1=2"]),
)


@st.composite
def any_descriptor(draw):
    kind = draw(_DESCRIPTOR_KINDS)
    if draw(st.booleans()):
        return kind
    return kind + ":" + ",".join(draw(st.lists(_DESCRIPTOR_PARTS, max_size=4)))


class TestDescriptorProperty:
    @settings(max_examples=100, deadline=None)
    @given(text=any_descriptor())
    @example(text="flb:gamma=1e308")
    @example(text="flb:gamma=1e308,schedule=dec")
    @example(text="flb:gamma=1e308,mask=the")
    @example(text="vcd:alpha=1e308")
    @example(text="icd:alpha=1e308,beta=0")
    @example(text="flb:gamma=1e200")
    def test_parses_and_decodes_or_raises_config_error(self, scene, text):
        """Any descriptor decodes on the default scene or is a ConfigError.

        Twelve steps reach the step at which each 1e308 example overflows.
        """
        try:
            record = run_strategy(scene, parse_strategy(text), seed=0, max_steps=12)
        except ConfigError:
            return
        assert record.steps


class TestRunMany:
    def test_jobs_do_not_change_results(self, scene):
        strategies = [Strategy(kind="baseline"), parse_strategy("flb")]
        seeds = tuple(range(6))
        seq = run_many(scene, strategies, seeds, max_steps=25, jobs=1)
        par = run_many(scene, strategies, seeds, max_steps=25, jobs=4)
        assert [(r.strategy, r.seed, tokens_of(r)) for r in seq] == \
            [(r.strategy, r.seed, tokens_of(r)) for r in par]

    def test_duplicate_labels_rejected(self, scene):
        with pytest.raises(ConfigError):
            run_many(scene, [Strategy(kind="baseline"), Strategy(kind="baseline")], (0,))

    def test_greedy_is_reproducible(self, scene):
        a = run_strategy(scene, Strategy(kind="greedy"), seed=5, max_steps=20)
        b = run_strategy(scene, Strategy(kind="greedy"), seed=5, max_steps=20)
        assert tokens_of(a) == tokens_of(b)

    def test_contrastive_counts_both_providers(self, scene):
        rec = run_strategy(scene, parse_strategy("icd"), seed=3, max_steps=15)
        assert all(s.provider_calls == 2 for s in rec.steps)

    def test_stops_on_eos(self, scene):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=0, max_steps=60)
        if len(rec.steps) < 60:
            assert rec.steps[-1].chosen == scene.eos_id
        assert rec.text.split() == [
            scene.vocabulary.token(s.chosen) for s in rec.steps
        ]


def assert_same_record(alone, batched):
    assert (alone.prompt_id, alone.strategy, alone.seed, alone.text) == \
        (batched.prompt_id, batched.strategy, batched.seed, batched.text)
    assert len(alone.steps) == len(batched.steps)
    for a, b in zip(alone.steps, batched.steps):
        assert (a.step_index, a.chosen, a.provider_calls) == \
            (b.step_index, b.chosen, b.provider_calls)
        assert a.entropy_nats.hex() == b.entropy_nats.hex()
        for x, y in (
            (a.raw_logits.scores, b.raw_logits.scores),
            (a.raw_logits.mask, b.raw_logits.mask),
            (a.adjusted_logits.scores, b.adjusted_logits.scores),
            (a.adjusted_logits.mask, b.adjusted_logits.mask),
            (a.dist.probs, b.dist.probs),
        ):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert not y.flags.writeable


DESCRIPTORS = st.one_of(
    st.builds(
        lambda kind, beta: kind + beta,
        st.sampled_from(["baseline", "greedy"]),
        st.sampled_from(["", ":beta=0", ":beta=0.1", ":beta=1"]),
    ),
    st.builds(
        "{}:alpha={},beta={}".format,
        st.sampled_from(["vcd", "icd", "m3id"]),
        st.sampled_from([0, 1, 2.5]),
        st.sampled_from([0, 0.1, 1]),
    ),
    st.builds(
        "flb:mask={},schedule={},beta={},gamma={}".format,
        st.sampled_from(["full", "nouns", "the"]),
        st.sampled_from(["increasing", "decreasing", "constant"]),
        st.sampled_from([0, 0.1, 1]),
        st.sampled_from([0, 0.3, 2]),
    ),
)


class TestLockstep:
    """A seed's record does not depend on the other rows of its batch."""

    @settings(max_examples=80, deadline=None)
    @given(
        text=DESCRIPTORS,
        temperature=st.sampled_from([1.0, 0.5, 1.7, 0.02]),
        max_steps=st.integers(1, 40),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=5, unique=True),
    )
    @example(text="flb:mask=nouns", temperature=1.0, max_steps=60, seeds=[0, 1, 2, 3, 4])
    @example(text="icd", temperature=0.02, max_steps=40, seeds=[7, 8, 9])
    def test_record_is_the_same_alone_and_in_a_batch(
        self, scene, text, temperature, max_steps, seeds
    ):
        strategy = parse_strategy(text)
        batch = run_many(scene, [strategy], seeds, max_steps=max_steps, temperature=temperature)
        assert [r.seed for r in batch] == sorted(seeds)
        for record in batch:
            alone = run_strategy(
                scene, strategy, seed=record.seed, max_steps=max_steps, temperature=temperature
            )
            assert_same_record(alone, record)
            # Each step also equals the public one-vector operations.
            for step in record.steps:
                want = softmax(step.adjusted_logits, temperature)
                assert step.dist.probs.tobytes() == want.probs.tobytes()
                assert step.entropy_nats == entropy(want)

    def test_rows_retire_at_different_steps(self, scene):
        records = run_many(scene, [parse_strategy("flb:mask=nouns")], range(5))
        assert len({len(r.steps) for r in records}) >= 3
