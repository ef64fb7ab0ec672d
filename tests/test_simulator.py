"""The synthetic scene: grammar, decay, grounding, noise, and negatives.

The gt/hal margin at t = 50 under the default scene (depth 2, kappa 0.05)
was computed independently at 50-digit precision: 4 * exp(-2.5) - 2.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logit_anchor import ConfigError, LogitVector, SceneSpec, Vocabulary, default_scene, preset
from logit_anchor.simulator import (
    AFTER_ARTICLE,
    AFTER_CONNECTIVE,
    AFTER_NOUN,
    NEGATIVE_KINDS,
    NOISY_VISUAL,
    PERTURBED_INSTRUCTION,
    START,
    TERMINAL,
    UNCONDITIONED,
    GrammarState,
    NegativeProvider,
    NegativeVariantSpec,
    SyntheticProvider,
    decay_at,
    scene_from_dict,
    scene_logit_rows,
    scene_to_dict,
)

MARGIN_AT_50 = -1.6716600055044048  # 4 * exp(-2.5) - 2


def scene_row(scene, variant, state, t, rng=None):
    """One row of ``scene_logit_rows``: ``variant``'s logits (the scene's for None)."""
    return LogitVector.of(scene_logit_rows(scene, variant, [state], t, [rng])[0])


def noun_slot(scene, article="A"):
    return GrammarState(AFTER_ARTICLE, last_article=scene.vocabulary.id_of(article))


def fold(scene, history):
    """Reference grammar state: ``transition`` applied token by token from START."""
    state = GrammarState()
    for token_id in history:
        state = scene.transition(state, token_id)
    return state


SCENE = default_scene()
V = SCENE.vocabulary
FILLER_IDS = [
    i for i in range(SCENE.vocabulary.size) if SCENE.class_of(i) == "filler"
]
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
        filler = [
            t for t in scene.vocabulary.tokens
            if scene.class_of(scene.vocabulary.id_of(t)) == "filler"
        ]
        assert len(filler) == scene.vocabulary.size - n_named

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


class TestGrammar:
    def test_transition_chain(self, scene):
        v = scene.vocabulary
        s = GrammarState()
        assert s.state == START
        s = scene.transition(s, v.id_of("The"))
        assert s.state == AFTER_ARTICLE and s.last_article == v.id_of("The")
        s = scene.transition(s, v.id_of("dog"))
        assert s.state == AFTER_NOUN and s.last_article is None
        s = scene.transition(s, v.id_of("near"))
        assert s.state == AFTER_CONNECTIVE
        s = scene.transition(s, v.id_of("a"))
        assert s.state == AFTER_ARTICLE and s.last_article == v.id_of("a")
        s = scene.transition(s, v.id_of("cat"))  # hal nouns move the same way
        assert s.state == AFTER_NOUN
        s = scene.transition(s, v.id_of("</s>"))
        assert s.state == TERMINAL

    def test_filler_keeps_state(self, scene):
        v = scene.vocabulary
        s = GrammarState(AFTER_ARTICLE, last_article=v.id_of("The"))
        s2 = scene.transition(s, v.id_of("very"))
        assert s2 == s

    @settings(max_examples=300, deadline=None)
    @given(history=HISTORIES)
    @example(history=[])
    @example(history=[V.id_of("The"), V.id_of("dog"), V.id_of("and")])
    @example(history=[V.id_of("very")] * 300)
    @example(history=[V.id_of("The")] + [V.id_of("big")] * 200)
    @example(history=[SCENE.eos_id, V.id_of("A"), V.id_of("is")])
    @example(history=[V.id_of("dog"), SCENE.eos_id, V.id_of("on")])
    def test_state_after_folds_history(self, history):
        want = fold(SCENE, history)
        assert SCENE.state_after(history) == want
        assert SCENE.state_after(tuple(history)) == want

    def test_admissible_sets(self, scene):
        v = scene.vocabulary
        start = scene.admissible(GrammarState())
        assert start[v.id_of("The")] and not start[v.id_of("dog")]
        after_noun = scene.admissible(GrammarState(AFTER_NOUN))
        assert after_noun[v.id_of("and")] and after_noun[scene.eos_id]
        assert not after_noun[v.id_of("The")]
        assert not scene.admissible(GrammarState(TERMINAL)).any()

    def test_unknown_state_rejected(self):
        with pytest.raises(Exception):
            GrammarState("limbo")


class TestLogits:
    def test_pure_without_noise(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        a = scene_row(quiet, None, GrammarState(), 0, np.random.default_rng(0))
        b = scene_row(quiet, None, GrammarState(), 0, np.random.default_rng(99))
        assert np.array_equal(a.scores, b.scores)
        c = scene_row(scene, None, GrammarState(), 0, rng=None)
        assert np.array_equal(a.scores, c.scores)

    def test_grammar_penalty_is_finite_offset(self, scene):
        lv = scene_row(scene, None, GrammarState(), 0, rng=None)
        v = scene.vocabulary
        assert not lv.mask.any()  # penalty, not exclusion
        assert lv.scores[v.id_of("The")] == 5.0
        assert lv.scores[v.id_of("dog")] == 3.0 - scene.grammar_penalty

    def test_decay_magnitude(self, scene):
        assert decay_at(scene, 0) == 0.0
        d = decay_at(scene, 50)
        assert d == pytest.approx(2.0 * (1 - math.exp(-0.05 * 50)), abs=1e-15)

    def test_margin_reference_at_50(self, scene):
        lv = scene_row(scene, None, noun_slot(scene, "A"), 50, rng=None)
        v = scene.vocabulary
        margin = lv.scores[v.id_of("dog")] - lv.scores[v.id_of("cat")]
        assert margin == pytest.approx(MARGIN_AT_50, abs=1e-12)

    def test_margin_sign_flips_at_14(self, scene):
        v = scene.vocabulary

        def margin(t):
            lv = scene_row(scene, None, noun_slot(scene, "A"), t, rng=None)
            return lv.scores[v.id_of("dog")] - lv.scores[v.id_of("cat")]

        assert margin(13) > 0 > margin(14)

    def test_grounding_suppresses_hal_after_the(self, scene):
        v = scene.vocabulary
        after_the = scene_row(scene, None, noun_slot(scene, "The"), 10, rng=None)
        after_a = scene_row(scene, None, noun_slot(scene, "A"), 10, rng=None)
        assert after_a.scores[v.id_of("cat")] - after_the.scores[v.id_of("cat")] \
            == pytest.approx(3.0, abs=1e-12)
        assert after_a.scores[v.id_of("dog")] == after_the.scores[v.id_of("dog")]
        after_in = scene_row(scene, None, noun_slot(scene, "In"), 10, rng=None)
        assert after_a.scores[v.id_of("cat")] - after_in.scores[v.id_of("cat")] \
            == pytest.approx(1.0, abs=1e-12)

    def test_noise_is_seed_reproducible(self, scene):
        a = scene_row(scene, None, GrammarState(), 3, np.random.default_rng(7))
        b = scene_row(scene, None, GrammarState(), 3, np.random.default_rng(7))
        c = scene_row(scene, None, GrammarState(), 3, np.random.default_rng(8))
        assert np.array_equal(a.scores, b.scores)
        assert not np.array_equal(a.scores, c.scores)

    def test_negative_step_rejected(self, scene):
        with pytest.raises(Exception):
            scene_row(scene, None, GrammarState(), -1)


class TestNegativeVariants:
    def test_unconditioned_equalizes_class_means(self, scene):
        lv = scene_row(
            scene, NegativeVariantSpec(UNCONDITIONED), noun_slot(scene), 30, rng=None
        )
        gt = lv.scores[scene.gt_ids].mean()
        hal = lv.scores[scene.hal_ids].mean()
        assert gt == pytest.approx(hal, abs=1e-12)

    def test_noisy_visual_shrinks_margin(self, scene):
        state = noun_slot(scene)
        pos = scene_row(scene, None, state, 30, rng=None)
        neg = scene_row(
            scene, NegativeVariantSpec(NOISY_VISUAL, strength=0.7), state, 30, rng=None
        )
        pos_margin = pos.scores[scene.gt_ids].mean() - pos.scores[scene.hal_ids].mean()
        neg_margin = neg.scores[scene.gt_ids].mean() - neg.scores[scene.hal_ids].mean()
        assert neg_margin == pytest.approx(0.3 * pos_margin, abs=1e-12)

    def test_noisy_visual_strength_zero_matches_positive(self, scene):
        state = noun_slot(scene)
        pos = scene_row(scene, None, state, 12, rng=None)
        neg = scene_row(
            scene, NegativeVariantSpec(NOISY_VISUAL, strength=0.0), state, 12, rng=None
        )
        assert neg.scores == pytest.approx(pos.scores, abs=1e-12)

    def test_perturbed_instruction_moves_the_penalty(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        state = GrammarState()
        pos = scene_row(quiet, None, state, 0, rng=None)
        neg = scene_row(
            quiet, NegativeVariantSpec(PERTURBED_INSTRUCTION, strength=1.0),
            state, 0, np.random.default_rng(5),
        )
        assert not np.array_equal(pos.scores, neg.scores)
        # total penalty mass is preserved, it just lands elsewhere
        assert neg.scores.sum() == pytest.approx(pos.scores.sum(), abs=1e-9)

    def test_perturbed_instruction_strength_zero_matches_positive(self, scene):
        state = GrammarState()
        pos = scene_row(scene, None, state, 0, rng=None)
        neg = scene_row(
            scene, NegativeVariantSpec(PERTURBED_INSTRUCTION, strength=0.0),
            state, 0, rng=None,
        )
        assert neg.scores == pytest.approx(pos.scores, abs=1e-12)

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
        lv = provider.logits(history, 1, rng=None)
        assert provider.calls == 1
        expected = scene_row(quiet, None, quiet.state_after(history), 1, rng=None)
        assert np.array_equal(lv.scores, expected.scores)
        assert provider.eos_id == quiet.eos_id
        assert provider.vocab is quiet.vocabulary

    @settings(max_examples=60, deadline=None)
    @given(history=HISTORIES, t=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_providers_match_folded_state_bit_for_bit(self, history, t, seed):
        history = tuple(history)
        state = fold(SCENE, history)
        got = SyntheticProvider(SCENE).logits(history, t, np.random.default_rng(seed))
        want = scene_row(SCENE, None, state, t, np.random.default_rng(seed))
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(got.mask, want.mask)
        for kind in NEGATIVE_KINDS:
            variant = NegativeVariantSpec(kind, strength=0.6)
            got = NegativeProvider(SCENE, variant).logits(
                history, t, np.random.default_rng(seed)
            )
            want = scene_row(
                SCENE, variant, state, t, np.random.default_rng(seed)
            )
            assert np.array_equal(got.scores, want.scores)
            assert np.array_equal(got.mask, want.mask)

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
        assert {s.state for s in states} == {START, AFTER_ARTICLE, AFTER_NOUN,
                                            AFTER_CONNECTIVE, TERMINAL}
        # A state no history reaches, and a row without an rng.
        states.append(GrammarState(AFTER_ARTICLE))
        seeds = [seed + i for i in range(len(states) - 1)] + [None]

        def rngs():
            return [None if s is None else np.random.default_rng(s) for s in seeds]

        for variant in (None, *(NegativeVariantSpec(k, strength) for k in NEGATIVE_KINDS)):
            rows = scene_logit_rows(SCENE, variant, states, t, rngs())
            for row, state, rng in zip(rows, states, rngs()):
                want = scene_row(SCENE, variant, state, t, rng)
                assert row.tobytes() == want.scores.tobytes()
            provider = (SyntheticProvider(SCENE) if variant is None
                        else NegativeProvider(SCENE, variant))
            got = provider.logit_rows(histories, t, rngs()[:-1])
            assert provider.calls == len(histories)
            for row, history, rng in zip(got, histories, rngs()):
                assert row.tobytes() == provider.logits(history, t, rng).scores.tobytes()

    def test_negative_provider(self, scene):
        quiet = replace(scene, noise_sigma=0.0)
        provider = NegativeProvider(quiet, NegativeVariantSpec(UNCONDITIONED))
        lv = provider.logits((), 0, rng=None)
        assert provider.calls == 1
        expected = scene_row(
            quiet, NegativeVariantSpec(UNCONDITIONED), GrammarState(), 0, rng=None
        )
        assert np.array_equal(lv.scores, expected.scores)


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

    def test_missing_field_rejected(self, scene):
        data = scene_to_dict(scene)
        del data["articles"]
        with pytest.raises(ConfigError):
            scene_from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            scene_from_dict([1, 2, 3])

    def test_defaults_fill_in(self, scene):
        data = scene_to_dict(scene)
        for key in ("decay_kappa", "decay_depth", "noise_sigma",
                    "grammar_penalty", "article_grounding", "cognition_objects"):
            del data[key]
        back = scene_from_dict(data)
        assert back.decay_kappa == 0.05
        assert back.article_grounding == {}
