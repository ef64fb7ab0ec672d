"""Decoding strategies: boosting, contrastive combination, and the decode loops."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logit_anchor import (
    ConfigError,
    ContractError,
    LogitVector,
    Strategy,
    TraceLexicon,
    Vocabulary,
    WeightSchedule,
    decode,
    parse_strategy,
    run_many,
    run_strategy,
    summarize_record,
    weight_at,
)
from logit_anchor import strategies
from logit_anchor.strategies import UNIFORM_BLOCK, _sample_rows
from logit_anchor.simulator import (
    TAPE_STEPS,
    NegativeVariantSpec,
    SyntheticProvider,
    scene_from_dict,
    scene_logit_rows,
    scene_to_dict,
)
from logit_anchor.strategies import CONSTANT, DECREASING, INCREASING

from oracle import apply_mask, boost, candidate_set, entropy, softmax


@pytest.fixture(scope="module")
def quiet(scene=None):
    from logit_anchor import default_scene

    return replace(default_scene(), noise_sigma=0.0)


@pytest.fixture(scope="module")
def early_eos(scene):
    """The default scene with EOS likely enough that even near-greedy rows retire early."""
    spec = scene_to_dict(scene)
    spec["base_logits"][spec["tokens"].index(spec["eos"])] = 2.0
    return scene_from_dict(spec)


def tokens_of(record):
    return [s.chosen for s in record.steps]


def decode_flb(provider, strategy, *, seed, max_steps=60):
    """One run of an flb ``strategy`` through the decode loop, on the given provider."""
    (record,) = decode(
        [strategy], provider, [seed], gt_ids=provider.scene.gt_ids,
        hal_ids=provider.scene.hal_ids, max_steps=max_steps, record=True,
    )
    return record


def l0_contrib(l0, mode, vocab, noun_ids=None):
    """The boost's step-0 contribution, as the decode loop computes it."""
    return strategies._l0_rows(np.asarray(l0, dtype=float), strategies._l0_lane(mode, vocab, noun_ids))


class Forwarder:
    """Serves ``inner`` through ``logits`` alone (no ``logit_rows``), each row
    passed through ``spoil``; counts the calls it forwards."""

    def __init__(self, inner, spoil=None):
        self.inner, self.spoil, self.forwarded = inner, spoil, 0
        self.vocab, self.eos_id = inner.vocab, inner.eos_id

    @property
    def calls(self):
        return self.inner.calls

    def logits(self, history, t, rng):
        self.forwarded += 1
        row = self.inner.logits(history, t, rng)
        return row if self.spoil is None else self.spoil(row)


class SpoiledRows(SyntheticProvider):
    """A scene provider whose ``logit_rows`` output passes through ``spoil``."""

    def __init__(self, scene, spoil, variant=None):
        super().__init__(scene, variant)
        self.spoil = spoil

    def logit_rows(self, histories, t, rngs):
        return self.spoil(super().logit_rows(histories, t, rngs))


class Undercount(SyntheticProvider):
    """A scene provider whose counter records one call fewer than the rows it serves."""

    def logit_rows(self, histories, t, rngs):
        rows = super().logit_rows(histories, t, rngs)
        self.calls -= 1
        return rows


class TestL0Contribution:
    def test_full_keeps_everything(self, scene):
        l0 = [1.0, -2.0, 3.0]
        contrib = l0_contrib(l0, "full", Vocabulary(("x", "y", "z")))
        assert list(contrib) == [1.0, -2.0, 3.0]

    def test_nouns_only(self, scene):
        l0 = np.arange(scene.vocabulary.size, dtype=float)
        contrib = l0_contrib(l0, "nouns_only", scene.vocabulary, scene.noun_ids)
        keep = np.zeros(scene.vocabulary.size, dtype=bool)
        keep[scene.noun_ids] = True
        assert (contrib[~keep] == 0.0).all()
        assert np.array_equal(contrib[keep], np.arange(48.0)[keep])

    def test_nouns_only_requires_ids(self, scene):
        l0 = np.zeros(48)
        with pytest.raises(ConfigError):
            l0_contrib(l0, "nouns_only", scene.vocabulary, None)

    def test_the_only(self, scene):
        l0 = np.ones(scene.vocabulary.size)
        contrib = l0_contrib(l0, "the_only", scene.vocabulary)
        the = scene.vocabulary.id_of("The")
        assert contrib[the] == 1.0
        assert contrib.sum() == 1.0

    def test_the_only_requires_the_token(self):
        l0 = [1.0, 2.0]
        with pytest.raises(ConfigError):
            l0_contrib(l0, "the_only", Vocabulary(("x", "y")))

    def test_unknown_mode_rejected(self):
        """Strategy checks the mode once, so the kernel only ever sees one of L0_MASKS."""
        with pytest.raises(ConfigError, match="l0_mask must be one of"):
            Strategy(kind="flb", l0_mask="verbs_only")


class TestPureOps:
    def test_reference_boost_is_exact_vector_add(self, rng):
        """The oracle ``TestDecodeFlb`` compares the loop's lift against."""
        for _ in range(50):
            l_t = rng.normal(size=32)
            contrib = rng.normal(size=32)
            w = float(rng.random())
            out = boost(l_t, contrib, w)
            assert np.allclose(out - l_t, w * contrib, atol=1e-12, rtol=0.0)

    def test_contrastive_adjust_formula(self):
        out = strategies._combine(np.array([1.0, 2.0]), np.array([0.0, 4.0]), 0.5)
        assert list(out) == [1.5, 1.0]

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), -0.5])
    def test_contrastive_config_rejects_bad_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
            Strategy(kind="vcd", alpha=alpha)


class TestConstrainFast:
    """The decode loop's fused keep-set (``_candidate_mask``) against the reference composition."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_reference_composition(self, data):
        n = data.draw(st.integers(1, 9))
        temperature = data.draw(st.sampled_from([1.0, 0.5, 0.7, 2.0]))
        beta = data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0]))
        # Next to the threshold the rounding of the reference path decides, so
        # draw scores a few ulps either side of the gap T * log(beta).
        edge = temperature * math.log(beta) if beta > 0 else -30.0
        near = st.integers(-4, 4).map(lambda k: edge + k * math.ulp(edge))
        scores = st.one_of(st.floats(-30.0, 30.0), near, st.just(0.0))
        raw = np.array([0.0] + data.draw(st.lists(scores, min_size=n - 1, max_size=n - 1)))
        eos = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))

        unmasked = np.zeros(n, dtype=bool)
        want = apply_mask(unmasked, candidate_set(softmax(raw, unmasked, temperature), beta, eos))
        # The loop hands a lone row over 1-d and several rows 2-d.
        for rows in (raw, raw[None]):
            got = strategies._candidate_mask(rows, temperature, beta, eos)
            assert np.array_equal(got.reshape(-1), want)

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
    def test_threshold_rounding_follows_reference_path(self, beta, scores):
        raw = np.array(scores)
        unmasked = np.zeros(raw.shape, dtype=bool)
        want = apply_mask(unmasked, candidate_set(softmax(raw, unmasked), beta))
        naive = np.exp(raw - raw.max()) < beta
        assert not np.array_equal(want, naive)
        for rows in (raw, raw[None]):
            got = strategies._candidate_mask(rows, 1.0, beta, None)
            assert np.array_equal(got.reshape(-1), want)


def _with(value):
    """A spoiler that sets one entry of every row to ``value``."""
    def spoil(rows):
        rows = rows.copy()
        rows[..., 5] = value
        return rows
    return spoil


# Provider output that breaks the contract: the wrong shape, a dtype other
# than float64, an entry that is not finite, or something that is not an array.
SPOILERS = {
    "short": lambda rows: rows[..., :-1],
    "extra_axis": lambda rows: rows[None],
    "float32": lambda rows: rows.astype(np.float32),
    "int64": lambda rows: rows.astype(np.int64),
    "nan": _with(np.nan),
    "inf": _with(np.inf),
    "-inf": _with(-np.inf),
    "list": lambda rows: rows.tolist(),
}


class TestProviderContract:
    """What a provider returns is checked once, on both routes; a breach is a ContractError."""

    @pytest.mark.parametrize("spoiler", SPOILERS)
    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]], ids=["one_row", "rows"])
    @pytest.mark.parametrize("route", ["logit_rows", "logits"])
    @pytest.mark.parametrize("side", ["positive", "negative"])
    def test_breach_is_a_contract_error(self, scene, spoiler, seeds, route, side):
        spoil = SPOILERS[spoiler]
        variant = NegativeVariantSpec("noisy_visual", 0.7)
        if route == "logit_rows":
            spoiled = SpoiledRows(scene, spoil, variant if side == "negative" else None)
        else:
            spoiled = Forwarder(SyntheticProvider(scene, variant if side == "negative" else None), spoil)
        provider, negative = SyntheticProvider(scene), SyntheticProvider(scene, variant)
        if side == "negative":
            negative = spoiled
        else:
            provider = spoiled
        with pytest.raises(ContractError, match="^provider returned "):
            decode([parse_strategy("vcd")], provider, seeds, negatives=[negative], max_steps=5)

    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]], ids=["one_row", "rows"])
    def test_logit_vector_from_logits_is_a_contract_error(self, scene, seeds):
        """The old contract: ``logits`` returned a LogitVector, scores and mask."""
        provider = Forwarder(SyntheticProvider(scene),
                             lambda row: LogitVector(row, np.zeros(row.shape, dtype=bool)))
        with pytest.raises(ContractError, match="^provider returned LogitVector from logits"):
            decode([parse_strategy("baseline")], provider, seeds, max_steps=5)

    def test_contrastive_lane_without_negative_provider_rejected(self, scene):
        strategies = [parse_strategy("baseline"), parse_strategy("icd")]
        with pytest.raises(ConfigError, match="^icd needs a negative provider$"):
            decode(strategies, SyntheticProvider(scene), [0], negatives=[None, None], max_steps=5)

    @pytest.mark.parametrize("side, message", [
        ("positive", "step 0: 5 provider calls do not split over 6 rows"),
        ("negative", "step 0: 2 provider calls do not split over 3 rows"),
    ])
    def test_calls_that_do_not_split_are_a_contract_error(self, scene, side, message):
        """The positive pass's calls split over every row, the negative's over its lane's."""
        variant = NegativeVariantSpec("noisy_visual", 0.7)
        provider = (Undercount if side == "positive" else SyntheticProvider)(scene)
        negative = (Undercount if side == "negative" else SyntheticProvider)(scene, variant)
        strategies = [parse_strategy("baseline"), parse_strategy("vcd")]
        with pytest.raises(ContractError, match=f"^{message}$"):
            decode(strategies, provider, [0, 1, 2], negatives=[None, negative], max_steps=5)


ROUTE_DESCRIPTORS = [
    "baseline", "greedy", "vcd", "icd", "m3id", "flb", "baseline:beta=0.1", "flb:mask=nouns",
]


class TestWrappedRoute:
    """Decoding through ``logits`` alone equals the ``logit_rows`` route bit for bit."""

    @pytest.mark.parametrize("text", ROUTE_DESCRIPTORS)
    def test_forwarder_equals_logit_rows_route(self, scene, text):
        """``run_strategy(wrap=)``, the route the bench and the benchmark replay take."""
        strategy = parse_strategy(text)
        forwarders = []

        def wrap(provider):
            forwarders.append(Forwarder(provider))
            return forwarders[-1]

        for seed in range(4):
            forwarders.clear()
            plain = run_strategy(scene, strategy, seed=seed, max_steps=40, temperature=0.7)
            wrapped = run_strategy(
                scene, strategy, seed=seed, max_steps=40, temperature=0.7, wrap=wrap
            )
            assert_same_record(plain, wrapped)
            for name in ("chosen", "entropy", "chosen_prob", "gt_mass", "hal_mass",
                         "provider_calls"):
                # repr tells every float apart bit for bit, -0.0 from 0.0 too.
                assert repr(getattr(wrapped, name)) == repr(getattr(plain, name))
            assert len(forwarders) == (2 if strategy.kind in strategies.CONTRASTIVE_KINDS else 1)
            assert all(f.forwarded == f.calls for f in forwarders)
            assert sum(f.calls for f in forwarders) == sum(plain.provider_calls)

    @pytest.mark.parametrize("text", ROUTE_DESCRIPTORS)
    def test_forwarded_batch_equals_run_many(self, scene, text):
        """Several rows through ``logits``, stacked in row order, as ``run_many`` decodes them."""
        strategy, seeds = parse_strategy(text), range(6)
        negative = None
        if strategy.kind in strategies.CONTRASTIVE_KINDS:
            variant = NegativeVariantSpec(strategies.NEGATIVE_KIND_FOR[strategy.kind],
                                          strategy.strength)
            negative = Forwarder(SyntheticProvider(scene, variant))
        kwargs = {"max_steps": 40, "temperature": 0.7, "record": True}
        wrapped = decode([strategy], Forwarder(SyntheticProvider(scene)), seeds,
                         negatives=[negative], gt_ids=scene.gt_ids, hal_ids=scene.hal_ids, **kwargs)
        plain = run_many(scene, [strategy], seeds, **kwargs)
        for a, b in zip(plain, wrapped):
            assert_same_record(a, b)


class TestDecodeFlb:
    def test_step_zero_never_boosts_any_schedule(self, quiet):
        for kind in (INCREASING, DECREASING, CONSTANT):
            cfg = Strategy(kind="flb", schedule=WeightSchedule(kind, 0.3, 0.05))
            rec = decode_flb(SyntheticProvider(quiet), cfg, seed=4, max_steps=10)
            step0 = rec.steps[0]
            assert np.array_equal(step0.adjusted_logits.scores, step0.raw_logits.scores)

    def test_trace_telescoping(self, quiet):
        cfg = Strategy(kind="flb", schedule=WeightSchedule(INCREASING, 0.3, 0.05))
        rec = decode_flb(SyntheticProvider(quiet), cfg, seed=9, max_steps=40)
        step0 = rec.steps[0]
        contrib = np.where(step0.raw_logits.mask, 0.0, step0.raw_logits.scores)
        for step in rec.steps[1:]:
            w = weight_at(cfg.schedule, step.step_index)
            diff = step.adjusted_logits.scores - step.raw_logits.scores
            assert np.allclose(diff, w * contrib, atol=1e-12, rtol=0.0)

    def test_decode_path_matches_reference_composition(self, quiet):
        cfg = Strategy(kind="flb", schedule=WeightSchedule(INCREASING, 0.4, 0.08), beta=0.1)
        rec = decode_flb(SyntheticProvider(quiet), cfg, seed=2, max_steps=30)
        step0 = rec.steps[0]
        contrib = np.where(step0.raw_logits.mask, 0.0, step0.raw_logits.scores)
        eos = quiet.eos_id
        for step in rec.steps:
            w = 0.0 if step.step_index == 0 else weight_at(cfg.schedule, step.step_index)
            raw = step.raw_logits
            allowed = candidate_set(softmax(raw.scores, raw.mask), cfg.beta, eos)
            want_scores = boost(raw.scores, contrib, w)
            want_mask = apply_mask(raw.mask, allowed)
            assert np.array_equal(step.adjusted_logits.scores, want_scores)
            assert np.array_equal(step.adjusted_logits.mask, want_mask)
            assert np.array_equal(step.dist.probs, softmax(want_scores, want_mask))

    def test_one_provider_call_per_step_including_step_zero(self, scene):
        provider = SyntheticProvider(scene)
        rec = decode_flb(provider, Strategy(kind="flb"), seed=0, max_steps=25)
        assert provider.calls == len(rec.steps)
        assert all(s.provider_calls == 1 for s in rec.steps)

    def test_eos_is_never_masked_out(self, scene):
        rec = decode_flb(
            SyntheticProvider(scene), Strategy(kind="flb", beta=0.9), seed=1, max_steps=30
        )
        assert all(not s.adjusted_logits.mask[scene.eos_id] for s in rec.steps)

    def test_weights_are_computed_per_step_not_up_front(self, scene, monkeypatch):
        calls = []

        def counting_weight_at(schedule, t):
            calls.append(t)
            return weight_at(schedule, t)

        monkeypatch.setattr(strategies, "weight_at", counting_weight_at)
        rec = decode_flb(
            SyntheticProvider(scene), Strategy(kind="flb"), seed=0, max_steps=10_000
        )
        assert rec.steps[-1].chosen == scene.eos_id
        assert len(calls) <= len(rec.steps)


class TestDegeneracy:
    def test_zero_gamma_equals_constrained_baseline(self, scene):
        for seed in range(6):
            base = run_strategy(scene, Strategy(kind="baseline", beta=0.1), seed=seed)
            flb = decode_flb(
                SyntheticProvider(scene),
                Strategy(kind="flb", schedule=WeightSchedule(INCREASING, 0.0, 0.05), beta=0.1),
                seed=seed,
            )
            assert tokens_of(base) == tokens_of(flb)

    def test_zero_gamma_distributions_bit_identical(self, scene):
        base = run_strategy(scene, Strategy(kind="baseline", beta=0.1), seed=17)
        flb = decode_flb(
            SyntheticProvider(scene),
            Strategy(kind="flb", schedule=WeightSchedule(INCREASING, 0.0, 0.05), beta=0.1),
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


# A valid value of each setting, for kinds that take it.
SETTING_VALUES = {
    "beta": 0.1, "alpha": 1.0, "strength": 0.5, "schedule": WeightSchedule(), "l0_mask": "full",
}
# The settings each kind does not take, written out rather than read from SETTINGS.
NOT_TAKEN = {
    "baseline": ("alpha", "strength", "schedule", "l0_mask"),
    "greedy": ("alpha", "strength", "schedule", "l0_mask"),
    "vcd": ("schedule", "l0_mask"),
    "icd": ("schedule", "l0_mask"),
    "m3id": ("schedule", "l0_mask"),
    "flb": ("alpha", "strength"),
}


class TestStrategyDescriptor:
    def test_defaults_fill_in(self):
        s = Strategy(kind="vcd")
        assert s.alpha == 1.0
        assert s.strength == 0.7
        assert Strategy(kind="icd").strength == 1.0
        assert Strategy(kind="m3id").strength == 1.0
        f = Strategy(kind="flb")
        assert f.schedule == WeightSchedule()
        assert f.beta == 0.1
        assert f.l0_mask == "full"
        assert Strategy(kind="greedy").beta is None

    def test_labels(self):
        """Every bare kind's label; labels name the trace directories and the report keys."""
        assert Strategy(kind="baseline").label() == "baseline"
        assert Strategy(kind="baseline", beta=0.1).label() == "baseline(beta=0.1)"
        assert Strategy(kind="greedy").label() == "greedy"
        assert Strategy(kind="vcd").label() == "vcd(alpha=1,beta=0.1,strength=0.7)"
        assert Strategy(kind="icd").label() == "icd(alpha=1,beta=0.1,strength=1)"
        assert Strategy(kind="m3id").label() == "m3id(alpha=1,beta=0.1,strength=1)"
        assert Strategy(kind="flb").label() == \
            "flb(increasing,gamma=0.3,lam=0.05,beta=0.1,mask=full)"

    @pytest.mark.parametrize("descriptor", [
        "flb:gamma=0.3", "flb:gamma=0.3000001", "flb:gamma=0.1234567,lambda=1e-7,beta=0",
        "vcd:alpha=2.5e-300,beta=0.1000000000000001", "baseline:beta=0.30000000000000004",
    ])
    def test_label_values_read_back_to_their_settings(self, descriptor):
        """:g printed 0.3000001 as 0.3 and 0.1234567 as 0.123457."""
        strategy = parse_strategy(descriptor)
        settings = {**vars(strategy), **vars(strategy.schedule or WeightSchedule())}
        shown = re.findall(r"(\w+)=([^,)]+)", strategy.label())
        assert shown and all(float(text) == settings[name]
                             for name, text in shown if name != "mask")

    def test_cross_payload_rejected(self):
        with pytest.raises(ConfigError):
            Strategy(kind="vcd", schedule=WeightSchedule())
        with pytest.raises(ConfigError):
            Strategy(kind="baseline", alpha=1.0)
        # flb takes beta directly: the candidate cut it shares with the other kinds.
        assert Strategy(kind="flb", beta=0.5).beta == 0.5

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind, names in NOT_TAKEN.items() for name in names
    ])
    def test_setting_the_kind_does_not_take_rejected(self, kind, name):
        with pytest.raises(ConfigError, match=f"^{kind} takes no {name} setting"):
            Strategy(kind=kind, **{name: SETTING_VALUES[name]})

    @pytest.mark.parametrize("name, value", [
        ("beta", 1.5), ("beta", float("nan")), ("strength", -0.1), ("alpha", -1.0),
        ("schedule", "increasing"), ("l0_mask", "verbs"),
    ])
    def test_setting_out_of_range_rejected(self, name, value):
        kind = next(k for k in ("vcd", "flb") if name in strategies.SETTINGS[k])
        with pytest.raises(ConfigError, match=f"^{name} must"):
            Strategy(kind=kind, **{name: value})

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
        assert s.schedule == WeightSchedule(DECREASING, 0.5, 0.1)
        assert s.beta == 0.2
        assert s.l0_mask == "nouns_only"
        s2 = parse_strategy("flb:lam=0.2,schedule=const,mask=the")
        assert s2.schedule == WeightSchedule(CONSTANT, 0.3, 0.2)
        assert s2.l0_mask == "the_only"

    def test_contrastive_parameters(self):
        s = parse_strategy("vcd:alpha=2,beta=0.05,strength=0.5")
        assert s.alpha == 2.0
        assert s.beta == 0.05
        assert s.strength == 0.5

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
        "nan", "NaN", "inf", "-inf", "x", "", "0x10", "1_0", "1_0.5", "٣",
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
    @example(text="flb:gamma=1_0")
    @example(text="vcd:alpha=٣")
    def test_parses_and_decodes_or_raises_config_error(self, scene, text):
        """Any descriptor decodes on the default scene or is a ConfigError; one
        holding "_" or a non-ASCII character is always a ConfigError (``int()``
        and ``float()`` would read "1_0" as 10 and "٣" as 3).

        Twelve steps reach the step at which each 1e308 example overflows.
        """
        if "_" in text or not text.isascii():
            with pytest.raises(ConfigError):
                parse_strategy(text)
            return
        try:
            record = run_strategy(scene, parse_strategy(text), seed=0, max_steps=12)
        except ConfigError:
            return
        assert record.steps


class TestRunMany:
    def test_jobs_do_not_change_results(self, scene):
        strategies = [Strategy(kind="baseline"), parse_strategy("flb")]
        seeds = tuple(range(6))
        seq = run_many(scene, strategies, seeds, max_steps=25, jobs=1, record=True)
        par = run_many(scene, strategies, seeds, max_steps=25, jobs=4, record=True)
        assert [(r.strategy, r.seed, tokens_of(r)) for r in seq] == \
            [(r.strategy, r.seed, tokens_of(r)) for r in par]

    def test_duplicate_labels_rejected(self, scene):
        with pytest.raises(ConfigError):
            run_many(scene, [Strategy(kind="baseline"), Strategy(kind="baseline")], (0,))

    @pytest.mark.parametrize("seeds, message", [
        ([-1], "seeds: seed -1 is not an integer in [0, 2**64)"),
        ([2**64], "seeds: seed 18446744073709551616 is not an integer in [0, 2**64)"),
        ([1.5], "seeds: seed 1.5 is not an integer in [0, 2**64)"),
        ([0, 0], "seeds: duplicate seeds"),
        ([], "seeds: no seeds given"),
    ], ids=["negative", "too_large", "float", "repeated", "empty"])
    def test_bad_seeds_are_a_config_error(self, scene, seeds, message):
        """numpy refused -1 with a ValueError and 1.5 with a TypeError, and [0, 0]
        decoded one run twice."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_many(scene, [Strategy(kind="baseline")], seeds)
        if len(seeds) == 1:
            with pytest.raises(ConfigError, match=re.escape(message)):
                run_strategy(scene, Strategy(kind="baseline"), seed=seeds[0])

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
        assert summarize_record(rec, TraceLexicon.from_scene(scene)).text.split() == [
            scene.vocabulary.tokens[s.chosen] for s in rec.steps
        ]


class TestCheckStep:
    """The one check of a step's outcome (``_check_step``), for all rows of the step at once."""

    SCORES = np.zeros((2, 3))

    def check(self, probs, chosen, mask=None):
        return strategies._check_step(4, np.array(probs), mask, chosen, self.SCORES, 1.0, "x")

    def test_chosen_probabilities_returned(self):
        assert self.check([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]], [1, 0]) == [0.75, 1.0]

    def test_masked_or_zero_probability_choice_rejected(self):
        mask = np.array([[False, False, True], [False, False, False]])
        with pytest.raises(ContractError, match="^step 4 chose a masked or zero-probability token 2"):
            self.check([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]], [2, 0], mask)
        with pytest.raises(ContractError, match="token 1$"):
            self.check([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]], [0, 1])

    @pytest.mark.parametrize("probs", [[[0.5, 0.4, 0.0]] * 2, [[1.2, -0.2, 0.0]] * 2])
    def test_probabilities_not_a_distribution_rejected(self, probs):
        with pytest.raises(ContractError, match="^step 4: probabilities go negative or sum to"):
            self.check(probs, [0, 0])


class TestOneUniformPerStep:
    """A sampled row draws exactly one uniform per step from its sampling stream."""

    @pytest.mark.parametrize("text", ["baseline", "baseline:beta=0.1", "vcd", "icd", "flb"])
    def test_recorded_choices_replay_from_the_stream(self, scene, text):
        strategy = parse_strategy(text)
        records = run_many(scene, [strategy], range(8), max_steps=60, record=True)
        records.append(run_strategy(scene, strategy, seed=8, max_steps=60))
        for record in records:
            n_steps = len(record.steps)
            stream = np.random.SeedSequence(record.seed).spawn(3)[0]
            draws = np.random.default_rng(stream).random(n_steps)
            replayed = [_sample_rows(step.dist.probs, u)[0] for step, u in zip(record.steps, draws)]
            assert replayed == list(record.chosen)
        assert any(len(r.steps) > 10 for r in records)


class TestBlockDraws:
    """Rows draw their jitter in tapes and their uniforms in blocks, and record what one
    draw per step gives, rows that retire inside a tape or a block included."""

    def test_each_step_replays_from_one_draw_per_step(self, scene):
        records = run_many(scene, [parse_strategy("baseline:beta=0.1")], range(8), record=True)
        ends = [len(r.steps) for r in records]
        assert any(n > UNIFORM_BLOCK and n % UNIFORM_BLOCK and n % TAPE_STEPS for n in ends)
        assert len(set(ends)) > 3
        for record in records:
            streams = np.random.SeedSequence(record.seed).spawn(3)
            sample, jitter = (np.random.default_rng(stream) for stream in streams[:2])
            for t, step in enumerate(record.steps):
                state = scene.state_after(record.chosen[:t])
                raw = scene_logit_rows(scene, None, [state], t, [jitter])[0]
                assert raw.tobytes() == step.raw_logits.scores.tobytes()
                assert _sample_rows(step.dist.probs, sample.random())[0] == step.chosen


def assert_same_record(alone, batched):
    assert (alone.prompt_id, alone.strategy, alone.seed, alone.chosen) == \
        (batched.prompt_id, batched.strategy, batched.seed, batched.chosen)
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
        batch = run_many(
            scene, [strategy], seeds, max_steps=max_steps, temperature=temperature, record=True
        )
        assert [r.seed for r in batch] == sorted(seeds)
        for record in batch:
            alone = run_strategy(
                scene, strategy, seed=record.seed, max_steps=max_steps, temperature=temperature
            )
            assert_same_record(alone, record)
            # Each step also equals the one-vector reference operations.
            for step in record.steps:
                adjusted = step.adjusted_logits
                want = softmax(adjusted.scores, adjusted.mask, temperature)
                assert step.dist.probs.tobytes() == want.tobytes()
                assert step.entropy_nats == entropy(want)

    def test_rows_retire_at_different_steps(self, scene):
        records = run_many(scene, [parse_strategy("flb:mask=nouns")], range(5), record=True)
        assert len({len(r.steps) for r in records}) >= 3


COLUMNS = ("prompt_id", "strategy", "seed", "chosen", "entropy", "chosen_prob", "gt_mass",
           "hal_mass", "provider_calls")


def assert_lanes_exact(scene, texts, seeds, **kwargs):
    """``run_many`` over all of ``texts`` equals each strategy decoded alone: every record
    column by repr (which tells every float apart, -0.0 from 0.0 too) and, recorded,
    every StepTrace array bit for bit. Returns the recorded records."""
    strategies = [parse_strategy(text) for text in texts]
    mixed = run_many(scene, strategies, seeds, record=True, **kwargs)
    plain = run_many(scene, strategies, seeds, **kwargs)
    alone = [r for s in strategies for r in run_many(scene, [s], seeds, record=True, **kwargs)]
    assert [(r.strategy, r.seed) for r in mixed] == \
        [(s.label(), seed) for s in strategies for seed in sorted(seeds)]
    for a, m, p in zip(alone, mixed, plain, strict=True):
        assert p.steps is None
        for name in COLUMNS:
            assert repr(getattr(m, name)) == repr(getattr(p, name)) == repr(getattr(a, name))
        assert_same_record(a, m)
    return mixed


class TestLanes:
    """Several strategies in one lockstep batch, one lane each: a lane's records are
    its strategy's decoded alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(DESCRIPTORS, min_size=1, max_size=6,
                       unique_by=lambda text: parse_strategy(text).label()),
        early=st.booleans(),
        temperature=st.sampled_from([1.0, 0.5, 1.7, 0.02]),
        max_steps=st.integers(1, 40),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
    )
    def test_each_lane_equals_its_strategy_alone(
        self, scene, early_eos, texts, early, temperature, max_steps, seeds
    ):
        assert_lanes_exact(early_eos if early else scene, texts, seeds,
                           max_steps=max_steps, temperature=temperature)

    @pytest.mark.parametrize("texts, seeds, last", [
        (["baseline", "greedy:beta=0.1", "icd", "flb:mask=nouns", "m3id:alpha=2.5,beta=0"],
         [3, 4, 5], "greedy"),
        (["baseline", "flb", "vcd"], [123, 124, 125], "flb"),
        (["baseline", "flb", "vcd"], [12, 13, 14], "vcd"),
    ], ids=["greedy", "flb", "vcd"])
    def test_lanes_empty_at_different_steps_down_to_one_row(self, early_eos, texts, seeds, last):
        """Lanes empty at different steps, and the batch ends as one lone (1-d) row of a
        ``last`` lane, whose other rows retired earlier."""
        records = assert_lanes_exact(early_eos, texts, seeds, max_steps=40)
        ends = {}
        for record in records:
            ends[record.strategy] = max(ends.get(record.strategy, 0), len(record.chosen))
        assert len(set(ends.values())) > 1
        *_, runner_up, longest = sorted(records, key=lambda r: len(r.chosen))
        assert len(runner_up.chosen) < len(longest.chosen) < 40
        assert longest.strategy.startswith(last)


class TestIndexSums:
    """The loop's gt/hal mass reduction adds a row's entries as ``row[index].sum()`` does."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.one_of(st.none(), st.integers(1, 40)),  # None: the lone 1-d row
        size=st.one_of(st.integers(1, 150), st.integers(120, 150)),
        spare=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        power=st.integers(1, 40),
        zeros=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        subnormals=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    @example(rows=30, size=8, spare=40, seed=0, power=1, zeros=0.0, subnormals=0.0)
    @example(rows=3, size=150, spare=0, seed=1, power=1, zeros=0.0, subnormals=0.0)
    @example(rows=3, size=140, spare=0, seed=2, power=1, zeros=0.0, subnormals=0.0)
    def test_each_row_equals_its_own_sum(self, rows, size, spare, seed, power, zeros, subnormals):
        rng = np.random.default_rng(seed)
        shape = (size + spare,) if rows is None else (rows, size + spare)
        p = rng.random(shape) ** power
        p[rng.random(shape) < zeros] = 0.0
        tiny = rng.random(shape) < subnormals * 0.5
        p[tiny] = rng.choice([5e-324, 1e-310, 2e-308], size=int(tiny.sum()))
        index = np.sort(rng.choice(size + spare, size=size, replace=False))
        got = np.asarray(strategies._index_sums(p, index), dtype=np.float64)
        want = np.array([row[index].sum() for row in p.reshape(-1, size + spare)])
        assert got.shape == (() if rows is None else (rows,))
        assert got.reshape(-1).tobytes() == want.tobytes()


def reference_summary(record, lexicon):
    """Each summary column reduced from the run's StepTraces alone, one step at a time."""
    gt_index = np.flatnonzero(lexicon.gt)
    hal_index = np.flatnonzero(lexicon.hal)
    return {
        "chosen": tuple(s.chosen for s in record.steps),
        "tokens": tuple(lexicon.vocab.tokens[s.chosen] for s in record.steps),
        "entropy": tuple(s.entropy_nats for s in record.steps),
        "chosen_prob": tuple(float(s.dist.probs[s.chosen]) for s in record.steps),
        "gt_mass": tuple(float(s.dist.probs[gt_index].sum()) for s in record.steps),
        "hal_mass": tuple(float(s.dist.probs[hal_index].sum()) for s in record.steps),
        "provider_calls": tuple(s.provider_calls for s in record.steps),
    }


class TestSummaryColumns:
    """The loop's summary columns equal the per-step reduction of the recorded run."""

    @pytest.mark.parametrize("temperature", [1.0, 0.02, 9.0])
    @pytest.mark.parametrize("text", [
        "baseline", "greedy", "vcd", "icd", "m3id", "flb", "baseline:beta=0.1", "flb:mask=nouns",
    ])
    def test_columns_equal_the_step_traces(self, early_eos, text, temperature):
        scene = early_eos
        lexicon = TraceLexicon.from_scene(scene)
        strategy = parse_strategy(text)
        kwargs = {"max_steps": 40, "temperature": temperature}
        recorded = run_many(scene, [strategy], range(12), record=True, **kwargs)
        plain = run_many(scene, [strategy], range(12), **kwargs)
        assert len({len(r.steps) for r in recorded}) > 1  # rows retire at different steps
        for full, lean in zip(recorded, plain):
            assert lean.steps is None
            want = reference_summary(full, lexicon)
            for record in (full, lean):
                # repr tells every float apart bit for bit, -0.0 from 0.0 too.
                summary = summarize_record(record, lexicon)
                assert repr({name: getattr(summary, name) for name in want}) == repr(want)
                assert record.token_ids == tuple(s.chosen for s in full.steps)
