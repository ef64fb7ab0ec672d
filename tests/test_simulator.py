"""The synthetic scene: grammar, decay, grounding, noise, and negatives.

The gt/hal margin at t = 50 under the default scene (depth 2, kappa 0.05)
was computed independently at 50-digit precision: 4 * exp(-2.5) - 2.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from logit_anchor import ConfigError, ContractError, SceneSpec, Vocabulary, default_scene, preset
from logit_anchor.simulator import (
    AFTER_ARTICLE,
    AFTER_CONNECTIVE,
    AFTER_NOUN,
    NEGATIVE_KINDS,
    NOISY_VISUAL,
    PERTURBED_INSTRUCTION,
    START,
    TAPE_STEPS,
    TERMINAL,
    UNCONDITIONED,
    NegativeVariantSpec,
    SyntheticProvider,
    decay_at,
    scene_from_dict,
    scene_logit_rows,
    scene_to_dict,
)

MARGIN_AT_50 = -1.6716600055044048  # 4 * exp(-2.5) - 2


def scene_row(scene, variant, state, t, rng):
    """One row of ``scene_logit_rows``: ``variant``'s logits (the scene's for None)."""
    return scene_logit_rows(scene, variant, [state], t, [rng])[0]


def quiet_row(scene, variant, state, t):
    """``scene_row`` on the scene without jitter, so only a permutation draws."""
    return scene_row(replace(scene, noise_sigma=0.0), variant, state, t, np.random.default_rng(0))


def assert_plain_row(row, scene):
    """A provider's ``logits``: an unmasked 1-d float64 array, one score per token."""
    assert type(row) is np.ndarray and row.dtype == np.float64
    assert row.shape == (scene.vocabulary.size,)


def noun_slot(scene, article="A"):
    """The state of the noun slot ``article`` opens."""
    return oracle.grammar_state(scene, [scene.vocabulary.id_of(article)])


def filler_ids(scene):
    named = {*scene.article_ids, *scene.noun_ids, *scene.connective_ids, scene.eos_id}
    return [i for i in range(scene.vocabulary.size) if i not in named]


SCENE = default_scene()
V = SCENE.vocabulary
FILLER_IDS = filler_ids(SCENE)
# Histories over the whole vocabulary, spliced with long filler runs, so the
# last non-filler token can sit far back, or be absent, or follow EOS.
HISTORIES = st.lists(
    st.one_of(
        st.lists(st.integers(0, SCENE.vocabulary.size - 1), min_size=1, max_size=1),
        st.lists(st.sampled_from(FILLER_IDS), min_size=1, max_size=60),
    ),
    max_size=12,
).map(lambda chunks: [tok for chunk in chunks for tok in chunk])


class TestSceneShape:
    def test_default_vocabulary_and_groups(self, scene):
        assert scene.vocabulary.size == 48
        assert len(scene.articles) == 4
        assert len(scene.gt_objects) == 8
        assert len(scene.hal_objects) == 8
        assert len(scene.connectives) == 4
        assert scene.eos == "</s>"
        n_named = 4 + 8 + 8 + 4 + 1
        assert len(filler_ids(scene)) == scene.vocabulary.size - n_named

    def test_cognition_objects_are_hal_subset(self, scene):
        assert set(scene.cognition_objects) <= set(scene.hal_objects)
        assert len(scene.cognition_objects) == 4

    def test_first_article_dominates(self, scene):
        head = [scene.base[scene.vocabulary.id_of(a)] for a in scene.articles]
        assert head[0] > max(head[1:])

    def test_group_overlap_rejected(self, scene):
        with pytest.raises(ConfigError):
            replace(scene, gt_objects=scene.gt_objects + (scene.hal_objects[0],))

    def test_unknown_token_rejected(self, scene):
        with pytest.raises(ConfigError):
            replace(scene, connectives=("and", "nosuchtoken"))

    def test_weak_first_article_rejected(self, scene):
        base = list(scene.base_logits)
        the = scene.vocabulary.id_of("The")
        base[the] = 2.0  # below "In" at 3.3
        with pytest.raises(ConfigError):
            replace(scene, base_logits=tuple(base))

    def test_grounding_keys_must_be_articles(self, scene):
        with pytest.raises(ConfigError):
            replace(scene, article_grounding={"dog": 1.0})

    def test_cognition_must_be_hal(self, scene):
        with pytest.raises(ConfigError):
            replace(scene, cognition_objects=("man",))

    def test_base_logits_not_one_per_token_rejected(self, scene):
        data = scene_to_dict(scene)
        with pytest.raises(ConfigError, match="^base_logits has 47 entries for 48 tokens$"):
            scene_from_dict({**data, "base_logits": data["base_logits"][:-1]})

    def test_infinite_grounding_rejected_naming_the_article(self, scene):
        """JSON reads 1e999 as inf, which no typed reader refuses."""
        text = json.dumps(scene_to_dict(scene)).replace('"A": 0.0', '"A": 1e999')
        with pytest.raises(ConfigError, match=r"^article_grounding of 'A' must be finite and "
                                              r"in \[-1e\+100, 1e\+100\], got inf$"):
            scene_from_dict(json.loads(text))


class TestGrammar:
    def test_state_chain(self, scene):
        v = scene.vocabulary
        history = []

        def emit(token):
            history.append(v.id_of(token))
            return scene.state_after(history)

        assert scene.state_after(history) == START
        # an article's code names it: "The" is article 0, "a" article 3
        assert emit("The") == AFTER_ARTICLE + 0 == noun_slot(scene, "The")
        assert emit("dog") == AFTER_NOUN  # the code keeps no article past the noun
        assert emit("near") == AFTER_CONNECTIVE
        assert emit("a") == AFTER_ARTICLE + 3 == noun_slot(scene, "a")
        assert emit("cat") == AFTER_NOUN  # hal nouns move the same way
        assert emit("</s>") == TERMINAL

    def test_filler_keeps_state(self, scene):
        v = scene.vocabulary
        after_the = [v.id_of("The")]
        assert scene.state_after(after_the + [v.id_of("very")]) == scene.state_after(after_the)

    @settings(max_examples=300, deadline=None)
    @given(history=HISTORIES)
    @example(history=[])
    @example(history=[V.id_of("The"), V.id_of("dog"), V.id_of("and")])
    @example(history=[V.id_of("very")] * 300)
    @example(history=[V.id_of("The")] + [V.id_of("big")] * 200)
    @example(history=[SCENE.eos_id, V.id_of("A"), V.id_of("is")])
    @example(history=[V.id_of("dog"), SCENE.eos_id, V.id_of("on")])
    def test_state_after_folds_history(self, history):
        want = oracle.grammar_state(SCENE, history)
        assert SCENE.state_after(history) == want
        assert SCENE.state_after(tuple(history)) == want

    def test_admissible_sets(self, scene):
        v = scene.vocabulary
        start = scene._penalty[START] == 0.0
        assert start[v.id_of("The")] and not start[v.id_of("dog")]
        after_noun = scene._penalty[AFTER_NOUN] == 0.0
        assert after_noun[v.id_of("and")] and after_noun[scene.eos_id]
        assert not after_noun[v.id_of("The")]
        assert not (scene._penalty[TERMINAL] == 0.0).any()
        noun_slots = scene._penalty[AFTER_ARTICLE:] == 0.0
        assert noun_slots.shape == (len(scene.articles), v.size)
        assert noun_slots[:, v.id_of("dog")].all() and noun_slots[:, v.id_of("cat")].all()
        assert not noun_slots[:, v.id_of("The")].any()


class TestLogits:
    def test_pure_without_noise(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        a = scene_row(quiet, None, START, 0, np.random.default_rng(0))
        b = scene_row(quiet, None, START, 0, np.random.default_rng(99))
        assert np.array_equal(a, b)
        assert np.array_equal(a, scene.base - scene._penalty[START])

    def test_grammar_penalty_is_finite_offset(self, scene):
        lv = quiet_row(scene, None, START, 0)
        v = scene.vocabulary
        assert np.isfinite(lv).all()  # penalty, not exclusion
        assert lv[v.id_of("The")] == 5.0
        assert lv[v.id_of("dog")] == 3.0 - scene.grammar_penalty

    def test_decay_magnitude(self, scene):
        assert decay_at(scene, 0) == 0.0
        d = decay_at(scene, 50)
        assert d == pytest.approx(2.0 * (1 - math.exp(-0.05 * 50)), abs=1e-15)

    def test_margin_reference_at_50(self, scene):
        lv = quiet_row(scene, None, noun_slot(scene, "A"), 50)
        v = scene.vocabulary
        margin = lv[v.id_of("dog")] - lv[v.id_of("cat")]
        assert margin == pytest.approx(MARGIN_AT_50, abs=1e-12)

    def test_margin_sign_flips_at_14(self, scene):
        v = scene.vocabulary

        def margin(t):
            lv = quiet_row(scene, None, noun_slot(scene, "A"), t)
            return lv[v.id_of("dog")] - lv[v.id_of("cat")]

        assert margin(13) > 0 > margin(14)

    def test_grounding_suppresses_hal_after_the(self, scene):
        v = scene.vocabulary
        after_the = quiet_row(scene, None, noun_slot(scene, "The"), 10)
        after_a = quiet_row(scene, None, noun_slot(scene, "A"), 10)
        assert after_a[v.id_of("cat")] - after_the[v.id_of("cat")] \
            == pytest.approx(3.0, abs=1e-12)
        assert after_a[v.id_of("dog")] == after_the[v.id_of("dog")]
        after_in = quiet_row(scene, None, noun_slot(scene, "In"), 10)
        assert after_a[v.id_of("cat")] - after_in[v.id_of("cat")] \
            == pytest.approx(1.0, abs=1e-12)

    def test_noise_is_seed_reproducible(self, scene):
        a = scene_row(scene, None, START, 3, np.random.default_rng(7))
        b = scene_row(scene, None, START, 3, np.random.default_rng(7))
        c = scene_row(scene, None, START, 3, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_step_rejected(self, scene):
        with pytest.raises(ContractError, match="^step index must be >= 0, got -1$"):
            scene_row(scene, None, START, -1, np.random.default_rng(0))


class TestNegativeVariants:
    def test_unconditioned_equalizes_class_means(self, scene):
        lv = quiet_row(scene, NegativeVariantSpec(UNCONDITIONED), noun_slot(scene), 30)
        gt = lv[scene.gt_ids].mean()
        hal = lv[scene.hal_ids].mean()
        assert gt == pytest.approx(hal, abs=1e-12)

    def test_noisy_visual_shrinks_margin(self, scene):
        state = noun_slot(scene)
        pos = quiet_row(scene, None, state, 30)
        neg = quiet_row(scene, NegativeVariantSpec(NOISY_VISUAL, strength=0.7), state, 30)
        pos_margin = pos[scene.gt_ids].mean() - pos[scene.hal_ids].mean()
        neg_margin = neg[scene.gt_ids].mean() - neg[scene.hal_ids].mean()
        assert neg_margin == pytest.approx(0.3 * pos_margin, abs=1e-12)

    def test_noisy_visual_strength_zero_matches_positive(self, scene):
        state = noun_slot(scene)
        pos = quiet_row(scene, None, state, 12)
        neg = quiet_row(scene, NegativeVariantSpec(NOISY_VISUAL, strength=0.0), state, 12)
        assert neg == pytest.approx(pos, abs=1e-12)

    def test_perturbed_instruction_moves_the_penalty(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        state = START
        pos = quiet_row(quiet, None, state, 0)
        neg = scene_row(
            quiet, NegativeVariantSpec(PERTURBED_INSTRUCTION, strength=1.0),
            state, 0, np.random.default_rng(5),
        )
        assert not np.array_equal(pos, neg)
        # total penalty mass is preserved, it just lands elsewhere
        assert neg.sum() == pytest.approx(pos.sum(), abs=1e-9)

    def test_perturbed_instruction_strength_zero_matches_positive(self, scene):
        state = START
        pos = quiet_row(scene, None, state, 0)
        neg = quiet_row(scene, NegativeVariantSpec(PERTURBED_INSTRUCTION, strength=0.0), state, 0)
        assert neg == pytest.approx(pos, abs=1e-12)
        assert np.array_equal(neg, pos)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            NegativeVariantSpec("blurred")
        with pytest.raises(ConfigError):
            NegativeVariantSpec(NOISY_VISUAL, strength=1.5)


class TestProviders:
    def test_counts_calls_and_matches_pure_function(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        provider = SyntheticProvider(quiet)
        v = quiet.vocabulary
        history = (v.id_of("The"),)
        assert provider.calls == 0
        row = provider.logits(history, 1, np.random.default_rng(0))
        assert provider.calls == 1
        expected = quiet_row(quiet, None, oracle.grammar_state(quiet, history), 1)
        assert np.array_equal(row, expected)
        assert provider.eos_id == quiet.eos_id
        assert provider.vocab is quiet.vocabulary

    @settings(max_examples=60, deadline=None)
    @given(history=HISTORIES, t=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_providers_match_folded_state_bit_for_bit(self, history, t, seed):
        history = tuple(history)
        state = oracle.grammar_state(SCENE, history)
        got = SyntheticProvider(SCENE).logits(history, t, np.random.default_rng(seed))
        want = scene_row(SCENE, None, state, t, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert_plain_row(got, SCENE)
        for kind in NEGATIVE_KINDS:
            variant = NegativeVariantSpec(kind, strength=0.6)
            got = SyntheticProvider(SCENE, variant).logits(
                history, t, np.random.default_rng(seed)
            )
            want = scene_row(
                SCENE, variant, state, t, np.random.default_rng(seed)
            )
            assert np.array_equal(got, want)
            assert_plain_row(got, SCENE)

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(0, 300), seed=st.integers(0, 2**32 - 1), strength=st.sampled_from([0.0, 0.6, 1.0]))
    def test_rows_call_matches_one_row_calls(self, t, seed, strength):
        """One rows call over every grammar state equals the one-row calls, row by row."""
        a, noun, conn = V.id_of("The"), V.id_of("dog"), V.id_of("and")
        histories = [
            [], [a], [V.id_of("A")], [a, noun], [a, noun, conn], [a, noun, SCENE.eos_id],
            [a, FILLER_IDS[0]], [], [a],  # repeated states share one noiseless row
        ]
        states = [SCENE.state_after(h) for h in histories]
        assert states == [oracle.grammar_state(SCENE, h) for h in histories]
        assert set(states) == {START, noun_slot(SCENE, "The"), noun_slot(SCENE, "A"),
                               AFTER_NOUN, AFTER_CONNECTIVE, TERMINAL}
        seeds = [seed + i for i in range(len(states))]

        def rngs():
            return [np.random.default_rng(s) for s in seeds]

        for variant in (None, *(NegativeVariantSpec(k, strength) for k in NEGATIVE_KINDS)):
            rows = scene_logit_rows(SCENE, variant, states, t, rngs())
            for row, state, rng in zip(rows, states, rngs()):
                want = scene_row(SCENE, variant, state, t, rng)
                assert row.tobytes() == want.tobytes()
            provider = SyntheticProvider(SCENE, variant)
            got = provider.logit_rows(histories, t, rngs())
            assert provider.calls == len(histories)
            for row, history, rng in zip(got, histories, rngs()):
                assert row.tobytes() == provider.logits(history, t, rng).tobytes()

    @pytest.mark.parametrize("kind", [None, *NEGATIVE_KINDS])
    def test_tapes_equal_per_step_draws(self, kind):
        """Each row's jitter, read from its tapes, equals one draw per step, across tape
        boundaries; a row that retires in the middle of a tape leaves the others as they
        were. Under perturbed_instruction the rows draw per step, permutation and all."""
        variant = kind and NegativeVariantSpec(kind, strength=0.6)
        provider = SyntheticProvider(SCENE, variant)
        histories = [[], [V.id_of("The")], [V.id_of("A"), V.id_of("dog")]]
        rngs = [np.random.default_rng(s) for s in (5, 6, 7)]
        refs = [np.random.default_rng(s) for s in (5, 6, 7)]
        retire = TAPE_STEPS + TAPE_STEPS // 2  # row 1 leaves mid-tape
        for t in range(3 * TAPE_STEPS + 1):
            if t == retire:
                del histories[1], rngs[1], refs[1]
            got = provider.logit_rows(histories, t, rngs)
            for row, history, ref in zip(got, histories, refs, strict=True):
                want = scene_row(SCENE, variant, SCENE.state_after(history), t, ref)
                assert row.tobytes() == want.tobytes()

    def test_a_new_generator_never_reads_an_old_tape(self):
        """Fresh Generators in successive calls, each collected before the next is made
        (so one may take a collected one's id), get what a fresh provider gives them."""
        provider = SyntheticProvider(SCENE)
        for seed in range(20):
            got = provider.logits([], 1, np.random.default_rng(seed))
            gc.collect()
            want = SyntheticProvider(SCENE).logits([], 1, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    def test_negative_provider(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        provider = SyntheticProvider(quiet, NegativeVariantSpec(UNCONDITIONED))
        row = provider.logits((), 0, np.random.default_rng(0))
        assert provider.calls == 1
        expected = quiet_row(quiet, NegativeVariantSpec(UNCONDITIONED), START, 0)
        assert np.array_equal(row, expected)


class TestPresets:
    def test_names_and_knobs(self):
        assert preset("default").decay_depth == 2.0
        nd = preset("no-decay")
        assert nd.decay_depth == 0.0
        assert decay_at(nd, 1000) == 0.0
        sd = preset("strong-decay")
        assert sd.decay_depth == 3.0 and sd.decay_kappa == 0.08

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("mystery")


class TestSerialization:
    def test_round_trip(self, scene):
        data = scene_to_dict(scene)
        back = scene_from_dict(data)
        assert back == scene
        assert scene_to_dict(back) == data

    def test_keys_are_the_fields(self, scene):
        """A scene file's keys are SceneSpec's fields, the vocabulary under ``tokens``."""
        names = [f.name for f in fields(SceneSpec)]
        assert list(scene_to_dict(scene)) == ["tokens", *names[1:]] and names[0] == "vocabulary"

    @pytest.mark.parametrize("extra", [{"decay_depht": 9.0, "noise_sgima": 5.0}, {"vocabulary": []}])
    def test_unknown_key_rejected_naming_it(self, scene, extra):
        """A misspelled knob used to be ignored, and the scene ran on its default."""
        with pytest.raises(ConfigError, match="unknown scene keys") as caught:
            scene_from_dict({**scene_to_dict(scene), **extra})
        assert all(repr(key) in str(caught.value) for key in extra)

    @pytest.mark.parametrize("value", [7, None, ["</s>"]])
    def test_eos_must_be_a_string(self, scene, value):
        """``"eos": 7`` beside a token "7" used to be read through str() and run."""
        data = scene_to_dict(scene)
        data["tokens"] = [str(value) if tok == "</s>" else tok for tok in data["tokens"]]
        with pytest.raises(ConfigError, match=f"^eos: {re.escape(repr(value))} is not a string"):
            scene_from_dict({**data, "eos": value})

    def test_integer_base_logits_are_held_and_written_as_floats(self, scene):
        logits = tuple(round(x) for x in scene.base_logits)
        built = replace(scene, base_logits=logits)
        assert built.base_logits == logits and {type(x) for x in built.base_logits} == {float}
        assert json.dumps(scene_to_dict(built)["base_logits"]) == json.dumps(list(map(float, logits)))

    def test_empty_group_rejected_naming_it(self, scene):
        assert scene_from_dict({**scene_to_dict(scene), "cognition_objects": []}) == \
            replace(scene, cognition_objects=())
        for key in ("articles", "gt_objects", "hal_objects", "connectives"):
            with pytest.raises(ConfigError, match=f"^{key}: a scene needs at least one"):
                scene_from_dict({**scene_to_dict(scene), key: []})

    def test_missing_field_rejected(self, scene):
        data = scene_to_dict(scene)
        del data["articles"]
        with pytest.raises(ConfigError):
            scene_from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            scene_from_dict([1, 2, 3])

    @pytest.mark.parametrize("token", ["hot dog", "", " dog", "dog\t"])
    def test_token_not_one_word_rejected(self, scene, token):
        """CHAIR matches words, so a token holding a space was emitted but never counted."""
        data = scene_to_dict(scene)
        data = {key: [token if item == "dog" else item for item in value]
                if isinstance(value, list) else value for key, value in data.items()}
        with pytest.raises(ConfigError, match=f"scene token {re.escape(repr(token))} is empty"):
            scene_from_dict(data)

    @pytest.mark.parametrize("old, new, noun", [("woman", "Man", "man"), ("is", "Dog", "dog")])
    def test_token_lower_casing_onto_a_noun_rejected(self, scene, old, new, noun):
        """CHAIR reads words in any case, the token classes read exact ids: with woman
        renamed "Man", CHAIR's lexicon mapped "man" to two nouns; with "is" renamed
        "Dog", CHAIR counted a mention that hal_noun_rate did not."""
        data = scene_to_dict(scene)
        data = {key: [new if item == old else item for item in value]
                if isinstance(value, list) else value for key, value in data.items()}
        with pytest.raises(ConfigError, match="under lower-casing") as caught:
            scene_from_dict(data)
        assert repr(new) in str(caught.value) and repr(noun) in str(caught.value)

    def test_defaults_fill_in(self, scene):
        data = scene_to_dict(scene)
        for key in ("decay_kappa", "decay_depth", "noise_sigma",
                    "grammar_penalty", "article_grounding", "cognition_objects"):
            del data[key]
        back = scene_from_dict(data)
        assert back.decay_kappa == 0.05
        assert back.article_grounding == {}
