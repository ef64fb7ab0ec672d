"""Corpus metrics, trace analytics, and trace file round trips.

The bundled 5-caption corpus was scored by hand; the exact rational values
are frozen below and the micro-aggregation must reproduce them to within
float division of the same integers.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from logit_anchor import (
    Annotation,
    CaptionRecord,
    ConfigError,
    CorpusCounts,
    InputError,
    Mention,
    ObjectLexicon,
    Strategy,
    TraceLexicon,
    article_stats,
    corpus_metrics,
    default_scene,
    entropy_stats,
    extract_objects,
    hal_noun_rate,
    parse_strategy,
    positional_curves,
    read_trace,
    run_many,
    run_strategy,
    sentence_initial_stats,
    simulated_corpus,
    simulated_metrics,
    summarize_record,
    write_trace,
)
from logit_anchor import metrics
from logit_anchor.config import read_input_text, read_jsonl
from logit_anchor.metrics import RunStats, StepStats, golden_corpus, load_captions_jsonl

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
        assert set(lex.forms) == {"a", "b"}
        assert lex.by_words == {("a",): "a", ("b",): "b"}


class TestGoldenCorpus:
    def test_exact_fractions(self):
        captions, annotations, lexicon = golden_corpus()
        report = corpus_metrics(captions, annotations, lexicon)
        assert report.counts.captions == report.counts.matched == 5
        assert report.chair_i == float(GOLDEN_CHAIR_I)
        assert report.chair_s == float(GOLDEN_CHAIR_S)
        assert report.cover == float(GOLDEN_COVER)
        assert report.recall == report.cover
        assert report.cog == float(GOLDEN_COG)
        assert report.object_score == pytest.approx(float(GOLDEN_SCORE), abs=1e-12)
        assert report.counts.mentions == 14
        assert report.counts.hallucinated == 4
        assert report.counts.gt == 11
        assert report.counts.covered == 10
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
        assert report.counts.matched == 1
        assert len(report.warnings) == 2
        assert report.to_dict() == {
            "chair_i": 0.0, "chair_s": 0.0, "cover": 1.0, "cog": 0.0, "recall": 1.0,
            "object_score": 1.0,
            "counts": {"captions": 2, "matched": 1, "mentions": 1, "hallucinated": 0,
                       "gt": 1, "covered": 1, "hal_captions": 0, "cognition_hits": 0},
            "warnings": ["caption 'ghost' has no annotation; skipped",
                         "annotation 'orphan' has no caption"],
        }

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

    @pytest.mark.parametrize("text, tokens", [
        ("A traffic light.", ["A", "traffic light", "."]),
        ("A dog. (The cat)", ["A", "dog.", "(The", "cat)"]),
        ("The cat, a dog and a traffic light!",
         ["The cat,", "a", "dog and", "a traffic", "light!"]),
    ])
    def test_tokens_form_counts_as_its_text_form(self, text, tokens):
        """Tokens used to be kept as given, so "dog." and "traffic light" matched nothing."""
        lexicon = ObjectLexicon({"traffic_light": ("traffic light",), "dog": ("dog",),
                                 "cat": ("cat",)})
        annotations = [Annotation("x", frozenset({"dog", "bench"}), frozenset({"cat"}))]
        by_text, by_tokens = (load_captions_jsonl(json.dumps({"id": "x", key: value}))
                              for key, value in (("text", text), ("tokens", tokens)))
        assert by_tokens == by_text
        assert corpus_metrics(by_tokens, annotations, lexicon) == \
            corpus_metrics(by_text, annotations, lexicon)
        assert corpus_metrics(by_tokens, annotations, lexicon).counts.mentions > 0


def trace_lexicon(scene) -> TraceLexicon:
    return TraceLexicon.from_scene(scene)


def mk_run(scene, spec, strategy="test", seed=0):
    """Build a RunStats from (token, entropy, chosen_prob, gt_mass, hal_mass)."""
    tokens, entropy, chosen_prob, gt_mass, hal_mass = (tuple(c) for c in zip(*spec))
    chosen = tuple(scene.vocabulary.id_of(token) for token in tokens)
    return RunStats("p", strategy, seed, chosen, tokens, entropy, chosen_prob,
                    gt_mass, hal_mass, (1,) * len(spec))


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
        assert stats.chosen is rec.chosen and stats.entropy is rec.entropy  # shared columns
        assert stats.text == " ".join(scene.vocabulary.tokens[s.chosen] for s in rec.steps)
        assert len(stats.steps) == len(rec.steps)
        for t, (step, full) in enumerate(zip(stats.steps, rec.steps)):
            assert step == StepStats(t, full.chosen, lex.vocab.tokens[full.chosen], rec.entropy[t],
                                     rec.chosen_prob[t], rec.gt_mass[t], rec.hal_mass[t],
                                     full.provider_calls)
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
        assert set(identity.forms) == {*scene.gt_objects, *scene.hal_objects}
        report = corpus_metrics(captions, annotations, identity)
        # the crafted run mentions man (gt) and cat (hal)
        assert report.counts.mentions == 2
        assert report.counts.hallucinated == 1


class TestTraceFiles:
    def test_round_trip(self, scene, tmp_path):
        rec = run_strategy(scene, parse_strategy("flb"), seed=5, max_steps=20)
        lex = trace_lexicon(scene)
        path = tmp_path / "run.jsonl"
        written = write_trace(path, rec, lex)
        back = read_trace(path)
        assert back == written

    def test_path_is_opened_as_it_stands(self, scene, tmp_path):
        """``read_trace`` does not read its path as ``Path`` would: "<file>/" names no file."""
        path = tmp_path / "run.jsonl"
        write_trace(path, run_strategy(scene, Strategy(kind="baseline"), seed=1, max_steps=5),
                    trace_lexicon(scene))
        with pytest.raises(InputError, match=f"^cannot read {re.escape(f'{path}/')}: "):
            read_trace(f"{path}/")

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

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [lines[0], *lines], ":2: duplicate run header"),
        (lambda lines: [lines[0], lines[1].replace('"kind": "step"', '"kind": "stepp"'),
                        *lines[2:]], ":2: unknown record kind 'stepp'"),
    ], ids=["two_headers", "unknown_kind"])
    def test_read_names_the_line_of_a_bad_record_kind(self, scene, tmp_path, edit, message):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=2, max_steps=5)
        path = tmp_path / "r.jsonl"
        write_trace(path, rec, trace_lexicon(scene))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path) + message)}$"):
            read_trace(path)

    def test_full_dist_needs_a_recorded_run(self, scene, tmp_path):
        (rec,) = run_many(scene, [Strategy(kind="baseline")], [1], max_steps=5)
        path = tmp_path / "r.jsonl"
        with pytest.raises(ConfigError, match="^full_dist needs a record decoded with record=True$"):
            write_trace(path, rec, trace_lexicon(scene), full_dist=True)
        assert not path.exists()

    def test_read_checks_step_count(self, scene, tmp_path):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=2, max_steps=5)
        path = tmp_path / "r.jsonl"
        write_trace(path, rec, trace_lexicon(scene))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one step
        with pytest.raises(InputError, match="declares"):
            read_trace(path)


def _with_step(lines, index, **fields):
    """The trace ``lines`` with the fields of step line ``index`` replaced."""
    return [*lines[:index], json.dumps({**json.loads(lines[index]), **fields}, sort_keys=True),
            *lines[index + 1:]]


def _split(line):
    """A step line cut after its chosen_prob, between two of its members."""
    cut = line.index(', "entropy"')
    return [line[:cut], line[cut + 2:]]


# Trace texts made from the lines of a 10-step trace (a header, then steps).
ACCEPTED = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank_and_whitespace_lines": lambda lines: "\n\n".join(lines) + "\n \t\n\n",
    "header_after_the_steps": lambda lines: "\n".join(lines[1:] + lines[:1]) + "\n",
    "no_trailing_newline": lambda lines: "\n".join(lines),
}
# Each names line 2 with this message.
REJECTED = {
    "two_records_on_one_line": (
        lambda lines: "\n".join([lines[0], lines[1] + " " + lines[2], *lines[3:]]),
        "malformed JSON (Extra data)",
    ),
    "record_split_inside_a_string": (
        lambda lines: "\n".join([lines[0], *lines[1].split("chosen_prob"), *lines[2:]]),
        "malformed JSON (Unterminated string",
    ),
    "nan_entropy": (
        lambda lines: "\n".join(_with_step(lines, 1, entropy=float("nan"))),
        "bad step record (entropy: nan ",
    ),
    # Joined with commas, the split record would read as one and the shared
    # line as two: as many items as lines.
    "split_record_and_two_records_on_one_line": (
        lambda lines: "\n".join([lines[0], *_split(lines[1]), lines[2] + ", " + lines[3],
                                  *lines[4:]]),
        "malformed JSON (Expecting ',' delimiter",
    ),
    # The split lets a list swallow a joint; the shared line makes up the count.
    "split_inside_a_list_and_three_values_on_one_line": (
        lambda lines: "\n".join([lines[0], lines[1][:-1] + ', "dist": [0.5', "0.5]}",
                                  lines[2] + ', "x", ' + lines[3], *lines[4:]]),
        "malformed JSON (Expecting ',' delimiter",
    ),
}


class TestTraceReader:
    """``read_trace`` parses a file in one pass (``read_jsonl``) and accepts its
    records by whole columns (``_trace_columns``); only a file the columns reject
    is walked record by record, to name the first line at fault."""

    @pytest.fixture()
    def ten_steps(self, scene, tmp_path):
        rec = run_strategy(scene, Strategy(kind="baseline"), seed=0, max_steps=10)
        path = tmp_path / "run.jsonl"
        written = write_trace(path, rec, trace_lexicon(scene))
        assert len(written.chosen) == 10
        return path, path.read_text().splitlines(), written

    @staticmethod
    def _lines(path):
        with open(path, encoding="utf-8") as fh:
            return [line.strip() for line in fh.read().split("\n")]

    @staticmethod
    def _records(path):
        return read_jsonl(read_input_text(path), path)

    @pytest.mark.parametrize("name", list(ACCEPTED))
    def test_accepted_layouts_read_as_written(self, ten_steps, name):
        path, lines, written = ten_steps
        path.write_bytes(ACCEPTED[name](lines).encode("utf-8"))
        assert read_trace(path) == written
        # The one pass gives the per-line records, and the columns accept them.
        records = self._records(path)
        assert records == [json.loads(line) for line in self._lines(path) if line]
        assert metrics._trace_columns(records) == (
            10 if name == "header_after_the_steps" else 0, _columns(written))

    @pytest.mark.parametrize("name", list(REJECTED))
    def test_rejected_layouts_name_line_2(self, ten_steps, name):
        path, lines, _ = ten_steps
        text, message = REJECTED[name]
        path.write_bytes(text(lines).encode("utf-8"))
        try:
            records = self._records(path)
        except InputError as exc:  # no value per line: the parse names the line itself
            assert str(exc).startswith(f"{path}:2: {message}")
        else:
            assert metrics._trace_columns(records) is None
        with pytest.raises(InputError) as info:
            read_trace(path)
        assert str(info.value).startswith(f"{path}:2: {message}")

    def test_an_int_in_a_float_field_is_read_as_a_float(self, ten_steps):
        path, lines, written = ten_steps
        path.write_text("\n".join(_with_step(lines, 1, gt_mass=0, hal_mass=0)) + "\n")
        _, columns = metrics._trace_columns(self._records(path))
        assert columns[4][0] == 0.0 and type(columns[4][0]) is float
        back = read_trace(path)
        assert back.gt_mass[0] == 0.0 and type(back.gt_mass[0]) is float
        assert back.entropy == written.entropy


def _columns(run: RunStats) -> tuple:
    """A run's columns from ``chosen`` on, as ``_trace_columns`` gives them."""
    return (run.chosen, run.tokens, run.entropy, run.chosen_prob, run.gt_mass, run.hal_mass,
            run.provider_calls)


SCENE = default_scene()
LEXICON = TraceLexicon.from_scene(SCENE)
VOCAB = LEXICON.vocab.tokens
ARTICLES = sorted(SCENE.article_ids.tolist())  # The, In, A, a
NOUNS = sorted(SCENE.noun_ids.tolist())


def _run(chosen, masses=None, seed=0):
    """A RunStats choosing ``chosen``, with every float column ``masses`` (or 0.5s)."""
    floats = tuple(masses) if masses is not None else (0.5,) * len(chosen)
    return RunStats("p", "s", seed, tuple(chosen), tuple(VOCAB[c] for c in chosen),
                    floats, floats, floats, floats[::-1], (1,) * len(chosen))


# Ten noun slots in one bin whose masses sum to 1.0 in sequence, which neither
# np.sum (pairwise) nor math.fsum (exact) gives.
SLOT_MASSES = (1.0, *[1e-16] * 9)
UNEVEN_SUM = _run([ARTICLES[0], NOUNS[0]] * 10,
                  [m for mass in SLOT_MASSES for m in (0.25, mass)])


@st.composite
def _runs(draw):
    ids = st.one_of(st.sampled_from(ARTICLES), st.sampled_from(NOUNS),
                    st.integers(0, len(VOCAB) - 1))
    masses = st.one_of(st.sampled_from([0.0, -0.0, 1e-16, 0.1, 0.3, 1.0]),
                       st.floats(0.0, 1.0))
    runs = []
    for seed in range(draw(st.integers(1, 5))):
        chosen = draw(st.lists(ids, max_size=40))
        runs.append(_run(chosen, draw(st.lists(masses, min_size=len(chosen),
                                               max_size=len(chosen))), seed))
    return runs


class TestColumnMetricsProperty:
    """Each metric reduces over the runs' columns to the bits of the per-step walk."""

    @staticmethod
    def test_the_uneven_example_tells_the_sums_apart():
        slots = np.array(SLOT_MASSES)
        assert math.fsum(SLOT_MASSES) != 1.0 and float(np.sum(slots)) != 1.0
        assert metrics._sum_in_order(slots) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(runs=_runs(), bin_width=st.one_of(st.integers(1, 50), st.just(10**6)))
    @example(runs=[UNEVEN_SUM], bin_width=20)
    @example(runs=[UNEVEN_SUM], bin_width=1)
    @example(runs=[UNEVEN_SUM], bin_width=10**30)  # past any int64
    @example(runs=[_run([])], bin_width=20)  # a header-only trace reads as this run
    # A run ending on an article, then one starting on a noun: no slot between them.
    @example(runs=[_run([NOUNS[0], ARTICLES[0]]), _run([]), _run([NOUNS[1], ARTICLES[2]]),
                   _run([NOUNS[9], NOUNS[2]])], bin_width=1)
    def test_metrics_equal_the_per_step_references(self, runs, bin_width):
        for got, want in [
            (positional_curves(runs, LEXICON, bin_width),
             oracle.positional_curves(runs, SCENE, bin_width)),
            (article_stats(runs, LEXICON), oracle.article_stats(runs, SCENE)),
            (entropy_stats(runs, LEXICON), oracle.entropy_stats(runs, SCENE)),
            (hal_noun_rate(runs, LEXICON), oracle.hal_noun_rate(runs, SCENE)),
            (sentence_initial_stats(runs), oracle.sentence_initial_stats(runs)),
        ]:
            assert repr(got) == repr(want)  # repr tells every float apart, -0.0 from 0.0 too

    def test_an_id_outside_the_vocabulary_is_in_no_class(self):
        """A negative id does not wrap onto a token, nor does an id past the vocabulary raise."""
        size, other = len(VOCAB), int(SCENE.connective_ids[0])  # a token in no class
        the, _, a, _ = ARTICLES
        outside = (-5, size, size + 7, the - size - 1)  # the last would wrap onto "The"
        # Each outside id follows an article and precedes a noun at least once.
        chosen = [the, NOUNS[0], -5, a, NOUNS[9], the, size, NOUNS[5], the, -5, NOUNS[1], a,
                  size + 7, NOUNS[2], size, a, size + 7, NOUNS[12], a, the - size - 1, NOUNS[3]]

        def run(ids):
            masses = tuple(0.01 * (t + 1) for t in range(len(ids)))
            return RunStats("p", "s", 0, tuple(ids), ("x",) * len(ids), masses, masses,
                            masses, masses[::-1], (1,) * len(ids))

        got, want = run(chosen), run([other if c in outside else c for c in chosen])
        for metric in (article_stats, entropy_stats, hal_noun_rate,
                       lambda runs, lex: positional_curves(runs, lex, 1),
                       lambda runs, lex: simulated_metrics(runs, lex, SCENE.cognition_objects)):
            assert repr(metric([got], LEXICON)) == repr(metric([want], LEXICON))
        assert hal_noun_rate([got], LEXICON) > 0.0 and len(positional_curves([got], LEXICON)) > 0

    def test_header_only_trace_reads_as_an_empty_run(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        header = {"kind": "run", "prompt_id": "p", "strategy": "s", "seed": 0, "n_steps": 0,
                  "text": ""}
        path.write_text(json.dumps(header) + "\n")
        assert read_trace(path) == _run([])
        records = read_jsonl(path.read_text(), path)
        assert records == [header] and metrics._trace_columns(records) == (0, ((),) * 7)


CAPITALISED = oracle.capitalised_scene()


def _captions(scene, *chosen_lists):
    """One run per id list, each of a seed of its own, with the scene's token strings."""
    tokens = scene.vocabulary.tokens
    return [RunStats("p", "s", seed, tuple(ids), tuple(tokens[i] for i in ids),
                     *((0.5,) * len(ids),) * 4, (1,) * len(ids))
            for seed, ids in enumerate(chosen_lists)]


def _ids(scene, *tokens):
    return [scene.vocabulary.id_of(token) for token in tokens]


@st.composite
def _scene_runs(draw):
    scene = draw(st.sampled_from([SCENE, CAPITALISED]))
    ids = st.one_of(st.sampled_from(sorted(scene.gt_ids.tolist())),
                    st.sampled_from(sorted(scene.hal_ids.tolist())),
                    st.integers(0, scene.vocabulary.size - 1))
    return scene, _captions(scene, *draw(st.lists(st.lists(ids, max_size=30),
                                                  min_size=1, max_size=6)))


class TestSimulatedMetricsProperty:
    """``simulated_metrics`` counts from the chosen ids what the string scan counts."""

    @settings(max_examples=200, deadline=None)
    @given(scene_runs=_scene_runs())
    @example(scene_runs=(SCENE, _captions(SCENE, _ids(SCENE, "The", "and", "is", "</s>"), [])))
    @example(scene_runs=(CAPITALISED, _captions(  # repeated nouns, in and out of the gt set
        CAPITALISED, _ids(CAPITALISED, "Man", "Man", "Cat", "a", "Cat", "Dog", "Man"),
        _ids(CAPITALISED, "Sheep", "Sheep", "woman"))))
    @example(scene_runs=(CAPITALISED, _captions(  # hal nouns only, cognition objects among them
        CAPITALISED, _ids(CAPITALISED, "Cat", "kite", "Sheep"), _ids(CAPITALISED, "lamp"))))
    @example(scene_runs=(SCENE, _captions(  # one-step runs
        SCENE, *([i] for i in _ids(SCENE, "man", "cat", "</s>", "woman", "The")))))
    def test_equals_the_string_scan(self, scene_runs):
        scene, runs = scene_runs
        lexicon = TraceLexicon.from_scene(scene)
        want = corpus_metrics(*simulated_corpus(runs, lexicon, scene.gt_objects,
                                                scene.cognition_objects))
        # repr tells every float apart, and shows the counts and the warnings
        assert repr(simulated_metrics(runs, lexicon, scene.cognition_objects)) == repr(want)

    def test_capitalised_nouns_are_counted(self):
        runs = _captions(CAPITALISED, _ids(CAPITALISED, "The", "Man", "and", "a", "Cat", "Cat"))
        report = simulated_metrics(runs, TraceLexicon.from_scene(CAPITALISED),
                                   CAPITALISED.cognition_objects)
        assert report.counts == CorpusCounts(captions=1, matched=1, mentions=2, hallucinated=1,
                                             gt=8, covered=1, hal_captions=1, cognition_hits=1)

    def test_an_id_outside_the_vocabulary_is_no_noun(self):
        """-1, the vocabulary's size and an id that would wrap onto a noun mention
        nothing: the report equals that of the same runs with a filler id there."""
        size, filler = len(VOCAB), SCENE.vocabulary.id_of("is")
        man, cat, kite, lamp = _ids(SCENE, "man", "cat", "kite", "lamp")
        outside = (-1, size, cat - size - 1)

        def runs(ids_lists):
            return [RunStats("p", "s", seed, tuple(ids), ("x",) * len(ids),
                             *((0.5,) * len(ids),) * 4, (1,) * len(ids))
                    for seed, ids in enumerate(ids_lists)]

        chosen = [[-1, man, size, kite], [size, cat - size - 1, -1], [lamp, cat, -1, man]]
        got = simulated_metrics(runs(chosen), LEXICON, SCENE.cognition_objects)
        want = simulated_metrics(
            runs([[filler if c in outside else c for c in ids] for ids in chosen]),
            LEXICON, SCENE.cognition_objects)
        assert repr(got) == repr(want)
        assert got.counts == CorpusCounts(captions=3, matched=3, mentions=5, hallucinated=3,
                                          gt=24, covered=2, hal_captions=2, cognition_hits=2)

    def test_zero_runs_is_the_string_scans_input_error(self):
        message = "no caption matched an annotation; nothing to score"
        with pytest.raises(InputError, match=message):
            corpus_metrics(*simulated_corpus([], LEXICON, SCENE.gt_objects))
        with pytest.raises(InputError, match=message):
            simulated_metrics([], LEXICON, SCENE.cognition_objects)


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
            for t, chosen in enumerate(run.chosen):
                if lex.gt[chosen] or lex.hal[chosen]:
                    bins.setdefault(t // 20, [0, 0])[int(lex.gt[chosen])] += 1
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
