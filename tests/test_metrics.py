"""Corpus metrics, trace analytics, and trace file round trips.

The bundled 5-caption corpus was scored by hand; the exact rational values
are frozen below and the micro-aggregation must reproduce them to within
float division of the same integers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from logit_anchor import (
    Annotation,
    CaptionRecord,
    ConfigError,
    InputError,
    Mention,
    ObjectLexicon,
    Strategy,
    TraceLexicon,
    article_stats,
    corpus_metrics,
    entropy_stats,
    extract_objects,
    hal_noun_rate,
    parse_strategy,
    positional_curves,
    read_trace,
    run_strategy,
    sentence_initial_stats,
    simulated_corpus,
    summarize_record,
    write_trace,
)
from logit_anchor.data import golden_corpus, load_captions_jsonl
from logit_anchor.metrics import RunStats, StepStats

# hand-derived exact values for the bundled corpus
GOLDEN_CHAIR_I = Fraction(4, 14)
GOLDEN_CHAIR_S = Fraction(4, 5)
GOLDEN_COVER = Fraction(10, 11)
GOLDEN_COG = Fraction(3, 4)
GOLDEN_SCORE = Fraction(125, 154)


class TestExtraction:
    def test_longest_match_wins(self):
        lex = ObjectLexicon({"light": ("light",), "traffic light": ("traffic light",)})
        cap = CaptionRecord.from_text("x", "a traffic light by a light")
        assert extract_objects(cap, lex) == (
            Mention("traffic light", 1),
            Mention("light", 5),
        )

    def test_case_insensitive_and_punctuation(self):
        lex = ObjectLexicon({"dog": ("dog", "dogs")})
        cap = CaptionRecord.from_text("x", 'The Dog, the "DOGS"!')
        assert [m.obj for m in extract_objects(cap, lex)] == ["dog", "dog"]

    def test_positions_and_duplicates(self):
        lex = ObjectLexicon({"man": ("man",)})
        cap = CaptionRecord.from_text("x", "man sees man")
        assert extract_objects(cap, lex) == (Mention("man", 0), Mention("man", 2))

    def test_surface_collision_rejected(self):
        with pytest.raises(ConfigError):
            ObjectLexicon({"cat": ("kitty",), "kitten": ("kitty",)})

    def test_empty_surface_rejected(self):
        with pytest.raises(ConfigError):
            ObjectLexicon({"cat": ()})
        with pytest.raises(ConfigError):
            ObjectLexicon({"cat": ("  ",)})

    def test_identity_lexicon(self):
        lex = ObjectLexicon.identity(["a", "b"])
        assert lex.objects == {"a", "b"}
        assert lex.by_words == {("a",): "a", ("b",): "b"}

    def test_round_trip_dict(self):
        lex = ObjectLexicon({"dog": ("dog", "puppy")})
        assert ObjectLexicon.from_dict(lex.to_dict()) == lex


class TestGoldenCorpus:
    def test_exact_fractions(self):
        captions, annotations, lexicon = golden_corpus()
        report = corpus_metrics(captions, annotations, lexicon)
        assert report.n_captions == report.n_matched == 5
        assert report.chair_i == float(GOLDEN_CHAIR_I)
        assert report.chair_s == float(GOLDEN_CHAIR_S)
        assert report.cover == float(GOLDEN_COVER)
        assert report.recall == report.cover
        assert report.cog == float(GOLDEN_COG)
        assert report.object_score == pytest.approx(float(GOLDEN_SCORE), abs=1e-12)
        assert report.mentions_total == 14
        assert report.hallucinated_total == 4
        assert report.gt_total == 11
        assert report.covered_total == 10
        assert not report.warnings

    def test_report_dict_shape(self):
        captions, annotations, lexicon = golden_corpus()
        d = corpus_metrics(captions, annotations, lexicon).to_dict()
        assert d["counts"]["captions"] == 5
        assert set(d) == {
            "chair_i", "chair_s", "cover", "cog", "recall",
            "object_score", "counts", "warnings",
        }


class TestCorpusEdgeCases:
    def test_duplicate_annotation_rejected(self):
        lex = ObjectLexicon.identity(["dog"])
        caps = [CaptionRecord.from_text("i", "dog")]
        anns = [
            Annotation("i", frozenset({"dog"})),
            Annotation("i", frozenset({"dog"})),
        ]
        with pytest.raises(InputError):
            corpus_metrics(caps, anns, lex)

    def test_unmatched_sides_warn(self):
        lex = ObjectLexicon.identity(["dog"])
        caps = [
            CaptionRecord.from_text("a", "dog"),
            CaptionRecord.from_text("ghost", "dog"),
        ]
        anns = [
            Annotation("a", frozenset({"dog"})),
            Annotation("orphan", frozenset({"dog"})),
        ]
        report = corpus_metrics(caps, anns, lex)
        assert report.n_matched == 1
        assert len(report.warnings) == 2

    def test_empty_gt_rejected(self):
        lex = ObjectLexicon.identity(["dog"])
        caps = [CaptionRecord.from_text("a", "dog")]
        with pytest.raises(InputError):
            corpus_metrics(caps, [Annotation("a", frozenset())], lex)

    def test_nothing_matched_rejected(self):
        lex = ObjectLexicon.identity(["dog"])
        caps = [CaptionRecord.from_text("a", "dog")]
        with pytest.raises(InputError):
            corpus_metrics(caps, [Annotation("b", frozenset({"dog"}))], lex)

    def test_caption_jsonl_parsing(self):
        caps = load_captions_jsonl('{"id": "x", "text": "a dog"}\n\n{"id": "y", "tokens": ["cat"]}\n')
        assert caps[0].tokens == ("a", "dog")
        assert caps[1].tokens == ("cat",)
        with pytest.raises(InputError):
            load_captions_jsonl('{"id": "x"}')
        with pytest.raises(InputError):
            load_captions_jsonl("not json")
        with pytest.raises(InputError):
            load_captions_jsonl('["no", "dict"]')


def trace_lexicon(scene) -> TraceLexicon:
    return TraceLexicon.from_scene(scene)


def mk_run(scene, spec, strategy="test", seed=0):
    """Build a RunStats from (token, entropy, chosen_prob, gt_mass, hal_mass)."""
    lex = trace_lexicon(scene)
    steps = []
    for t, (token, ent, prob, gt_m, hal_m) in enumerate(spec):
        chosen = scene.vocabulary.id_of(token)
        steps.append(
            StepStats(
                t=t, chosen=chosen, token=token, entropy=ent, chosen_prob=prob,
                gt_mass=gt_m, hal_mass=hal_m, provider_calls=1,
            )
        )
    return RunStats(prompt_id="p", strategy=strategy, seed=seed, steps=tuple(steps))


SPEC = [
    # token,  entropy, chosen_prob, gt_mass, hal_mass
    ("The", 0.5, 0.8, 0.0, 0.0),
    ("man", 1.0, 0.6, 0.7, 0.1),
    ("and", 0.7, 0.5, 0.0, 0.0),
    ("A", 0.9, 0.4, 0.0, 0.0),
    ("cat", 2.0, 0.3, 0.3, 0.5),
    ("</s>", 0.1, 0.9, 0.0, 0.0),
]


class TestTraceAnalytics:
    def test_article_stats_counts(self, scene):
        run = mk_run(scene, SPEC)
        stats = article_stats([run], trace_lexicon(scene))
        assert stats.after_the.gt_count == 1
        assert stats.after_the.hal_count == 0
        assert stats.after_the.gt_share == 1.0
        assert stats.after_the.gt_mean_prob == 0.6
        assert stats.after_a.hal_count == 1
        assert stats.after_a.hal_share == 1.0
        assert stats.after_a.hal_mean_prob == 0.3

    def test_entropy_groups_partition_nouns(self, scene):
        run = mk_run(scene, SPEC)
        cells = entropy_stats([run], trace_lexicon(scene))
        assert cells["all_tokens"].count == 6
        assert cells["all_tokens"].mean_entropy == pytest.approx(5.2 / 6)
        assert cells["all_nouns"].count == 2
        assert cells["all_nouns"].mean_entropy == pytest.approx(1.5)
        assert cells["gt_nouns"].mean_entropy == 1.0
        assert cells["hal_nouns"].mean_entropy == 2.0
        assert cells["after_the"].count == 1
        assert cells["after_other"].count == 1
        assert cells["after_a"].count == 1
        assert cells["after_the"].count + cells["after_other"].count \
            == cells["all_nouns"].count

    def test_sentence_initial(self, scene):
        run = mk_run(scene, SPEC)
        other = mk_run(scene, [("A", 0.1, 0.5, 0.0, 0.0)] + SPEC[1:], seed=1)
        stats = sentence_initial_stats([run, other])
        assert stats.the_count == 1 and stats.n_runs == 2
        assert stats.the_fraction == 0.5
        with pytest.raises(InputError):
            sentence_initial_stats([])

    def test_emission_counts_and_rate(self, scene):
        run = mk_run(scene, SPEC)
        lex = trace_lexicon(scene)
        assert hal_noun_rate([run], lex) == 0.5
        assert hal_noun_rate([], lex) == 0.0

    def test_positional_curves(self, scene):
        run = mk_run(scene, SPEC)
        bins = positional_curves([run], trace_lexicon(scene), bin_width=20)
        assert len(bins) == 1
        b = bins[0]
        assert (b.lo, b.hi, b.slots) == (0, 20, 2)
        assert b.gt_mass == pytest.approx(0.5)  # (0.7 + 0.3) / 2
        assert b.hal_mass == pytest.approx(0.3)  # (0.1 + 0.5) / 2
        fine = positional_curves([run], trace_lexicon(scene), bin_width=2)
        assert [bb.slots for bb in fine] == [1, 1]
        with pytest.raises(ConfigError):
            positional_curves([run], trace_lexicon(scene), bin_width=0)

    def test_summarize_record_consistency(self, scene):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=0, max_steps=25)
        lex = trace_lexicon(scene)
        stats = summarize_record(rec, lex)
        assert stats.strategy == rec.strategy and stats.seed == 0
        assert len(stats.steps) == len(rec.steps)
        assert stats.text == rec.text
        for step, full in zip(stats.steps, rec.steps):
            assert step.chosen == full.chosen
            assert 0.0 <= step.gt_mass + step.hal_mass <= 1.0 + 1e-9
            assert step.chosen_prob > 0.0

    def test_simulated_corpus_shape(self, scene):
        run = mk_run(scene, SPEC, strategy="baseline", seed=3)
        lex = trace_lexicon(scene)
        captions, annotations, identity = simulated_corpus(
            [run], lex, scene.gt_objects, scene.cognition_objects
        )
        assert captions[0].image_id == "baseline#3"
        assert annotations[0].gt_objects == frozenset(scene.gt_objects)
        assert annotations[0].cognition_objects == frozenset(scene.cognition_objects)
        assert identity.objects == lex.gt_names | lex.hal_names
        report = corpus_metrics(captions, annotations, identity)
        # the crafted run mentions man (gt) and cat (hal)
        assert report.mentions_total == 2
        assert report.hallucinated_total == 1


class TestTraceFiles:
    def test_round_trip(self, scene, tmp_path):
        rec = run_strategy(scene, parse_strategy("flb"), seed=5, max_steps=20)
        lex = trace_lexicon(scene)
        path = tmp_path / "run.jsonl"
        written = write_trace(path, rec, lex)
        back = read_trace(path)
        assert back == written

    def test_full_dist_stored_only_on_request(self, scene, tmp_path):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=1, max_steps=5)
        lex = trace_lexicon(scene)
        slim = tmp_path / "slim.jsonl"
        fat = tmp_path / "fat.jsonl"
        write_trace(slim, rec, lex)
        write_trace(fat, rec, lex, full_dist=True)
        assert b'"dist"' not in slim.read_bytes()
        assert b'"dist"' in fat.read_bytes()
        import json

        line = json.loads(fat.read_text().splitlines()[1])
        assert len(line["dist"]) == scene.vocabulary.size
        assert sum(line["dist"]) == pytest.approx(1.0, abs=1e-9)

    def test_read_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "run", "prompt_id": "p", "strategy": "s", "seed": 0, "n_steps": 0, "text": ""}\nnot json\n')
        with pytest.raises(InputError, match="bad.jsonl:2"):
            read_trace(bad)

    def test_read_requires_header(self, tmp_path):
        p = tmp_path / "headless.jsonl"
        p.write_text('{"kind": "step", "t": 0, "chosen": 0, "token": "x", "entropy": 0.0, "chosen_prob": 1.0, "gt_mass": 0.0, "hal_mass": 0.0, "provider_calls": 1}\n')
        with pytest.raises(InputError, match="missing run header"):
            read_trace(p)

    def test_read_checks_step_count(self, scene, tmp_path):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=2, max_steps=5)
        path = tmp_path / "r.jsonl"
        write_trace(path, rec, trace_lexicon(scene))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one step
        with pytest.raises(InputError, match="declares"):
            read_trace(path)


class TestDecayStatistics:
    """Distribution-level checks that the decay knob drives late-step errors."""

    @staticmethod
    def _binned_counts(scene_obj, seeds, max_steps=60):
        from logit_anchor import run_many

        lex = TraceLexicon.from_scene(scene_obj)
        runs = [
            summarize_record(r, lex)
            for r in run_many(
                scene_obj, [Strategy(kind="baseline")], seeds, max_steps=max_steps
            )
        ]
        bins: dict[int, list[int]] = {}  # step bin -> [hal, gt] noun emissions
        for run in runs:
            for step in run.steps:
                if step.chosen in lex.noun_ids:
                    bins.setdefault(step.t // 20, [0, 0])[step.chosen in lex.gt_ids] += 1
        return [row for _, row in sorted(bins.items()) if sum(row) >= 20]

    def test_no_decay_is_flat_and_decay_is_not(self, nodecay_scene, scene):
        scipy_stats = pytest.importorskip("scipy.stats")
        seeds = tuple(range(150))
        flat = self._binned_counts(nodecay_scene, seeds)
        assert len(flat) >= 2
        _, p_flat, _, _ = scipy_stats.chi2_contingency(np.asarray(flat).T)
        assert p_flat > 0.01

        trending = self._binned_counts(scene, seeds)
        assert len(trending) >= 2
        _, p_trend, _, _ = scipy_stats.chi2_contingency(np.asarray(trending).T)
        assert p_trend < 0.01
