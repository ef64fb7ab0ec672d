"""Hallucination metrics over captions and over decoding traces.

Corpus side: captions are matched against per-image annotations through an
object lexicon (surface form -> canonical object, longest match wins).
``corpus_metrics`` reports these rates, under the usual conventions:

    chair_i   hallucinated distinct objects / mentioned distinct objects
    chair_s   captions containing at least one hallucinated object (a.k.a. Hal)
    cover     mentioned gt objects / annotated gt objects
    cog       hallucinated objects that are "plausible confusions" / hallucinated
    recall    cover under another name (kept as a separate output on purpose)

All corpus rates are micro-aggregated: integer counts are summed across
captions and divided once, so expected values are exact rationals.
``load_corpus`` reads a corpus's files, ``golden_corpus`` the bundled one in ``data/``.

Trace side: decoding runs are reduced to summary columns (chosen token,
entropy, chosen-token probability, gt/hal probability mass, provider calls)
and analyzed positionally, over all runs' columns laid end to end. A step is
a noun slot iff the previously emitted token in its run is an article, which
matches the generating grammar and is derivable from the trace alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import (
    DEFAULT_BIN_WIDTH, jsonl_line_numbers, naming, parse_json, read_array, read_float, read_id,
    read_input_text, read_int, read_jsonl, read_keys, read_string, read_string_list,
)
from .core import PROB_SLACK, GenerationRecord, Vocabulary
from .errors import ConfigError, ContractError, InputError, LogitAnchorError

_EDGE_PUNCT = ".,;:!?\"'()[]"
_P_MAX = 1.0 + PROB_SLACK  # the most a sum of a step's probabilities (gt + hal mass) may read


# -- corpus side ----------------------------------------------------------------


@dataclass(frozen=True)
class ObjectLexicon:
    """Canonical object names and the surface forms that mention them.

    Surface forms may span multiple whitespace tokens ("traffic light").
    Matching is case-insensitive; no surface form may belong to two objects.
    """

    forms: Mapping[str, tuple[str, ...]]
    by_words: dict[tuple[str, ...], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.forms:
            raise ConfigError("a lexicon needs at least one object")
        normalized: dict[str, tuple[str, ...]] = {}
        for obj, surfaces in self.forms.items():
            if not surfaces:
                raise ConfigError(f"object {obj!r} has no surface forms")
            normalized[obj] = tuple(s.lower() for s in surfaces)
        object.__setattr__(self, "forms", normalized)
        by_words: dict[tuple[str, ...], str] = {}
        for obj, surfaces in normalized.items():
            for surface in surfaces:
                words = tuple(surface.split())
                if not words:
                    raise ConfigError(f"object {obj!r} has an empty surface form")
                prior = by_words.get(words)
                if prior is not None and prior != obj:
                    raise ConfigError(
                        f"surface {surface!r} maps to both {prior!r} and {obj!r}"
                    )
                by_words[words] = obj
        object.__setattr__(self, "by_words", by_words)

    @cached_property
    def max_words(self) -> int:
        return max(len(words) for words in self.by_words)

    @classmethod
    def identity(cls, names: Iterable[str]) -> "ObjectLexicon":
        """Each name is its own only surface form."""
        return cls({name: (name,) for name in names})

    @classmethod
    def from_dict(cls, data: Mapping) -> "ObjectLexicon":
        if not isinstance(data, Mapping):
            raise InputError("lexicon must be an object mapping names to form lists")
        return cls({k: read_string_list(v, f"lexicon entry {k!r}") for k, v in data.items()})


@dataclass(frozen=True)
class Annotation:
    """Ground truth for one image: what is there, and which absent objects
    would be plausible confusions (the cognition set)."""

    image_id: str
    gt_objects: frozenset[str]
    cognition_objects: frozenset[str] = frozenset()

    @classmethod
    def from_dict(cls, data) -> "Annotation":
        data = read_keys(data, ("id", "gt_objects", "cognition_objects"), "annotation",
                         required=("id", "gt_objects"))
        return cls(read_id(data["id"], "id"),
                   frozenset(read_string_list(data["gt_objects"], "gt_objects")),
                   frozenset(read_string_list(data.get("cognition_objects", []),
                                              "cognition_objects")))


@dataclass(frozen=True)
class CaptionRecord:
    """One caption, pre-split into tokens (edge punctuation stripped)."""

    image_id: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, image_id: str, text: str) -> "CaptionRecord":
        tokens = tuple(
            stripped
            for raw in text.split()
            if (stripped := raw.strip(_EDGE_PUNCT))
        )
        return cls(image_id=image_id, tokens=tokens)


def load_captions_jsonl(text: str, source: str = "<captions>") -> list[CaptionRecord]:
    """Parse caption JSONL: one {"id", "text"} or {"id", "tokens"} object per line,
    an error naming the line. The id is a string or an integer (read as its decimal
    string); the text and every token are strings. The tokens are read as their
    text, joined by spaces, so both forms are split and stripped of edge punctuation alike."""
    captions: list[CaptionRecord] = []
    for lineno, data in zip(jsonl_line_numbers(text), read_jsonl(text, source)):
        with naming(f"{source}:{lineno}", InputError):
            data = read_keys(data, ("id", "text", "tokens"), "caption", required=("id",))
            if ("text" in data) == ("tokens" in data):
                raise ConfigError("a caption holds exactly one of 'text' and 'tokens'")
            text = (read_string(data["text"], "'text'") if "text" in data
                    else " ".join(read_string_list(data["tokens"], "'tokens'")))
            captions.append(CaptionRecord.from_text(read_id(data["id"], "'id'"), text))
    return captions


def _annotations(data) -> list[Annotation]:
    def read(i, item):  # an error names the annotation's index, and its id if it has one
        named = type(item) is dict and type(item.get("id")) in (str, int)
        with naming(lambda: f"annotations[{i}]" + (f" (id {str(item['id'])!r})" if named else "")):
            return Annotation.from_dict(item)
    return list(map(read, count(), read_array(data, "annotations", lambda item, key: item)))


def load_corpus(captions, annotations, lexicon):
    """The captions, annotations and lexicon in a captions JSONL file, an
    annotations JSON array and an object lexicon JSON file; a bad value is an
    InputError naming its file."""
    corpus = [load_captions_jsonl(read_input_text(captions), str(captions))]
    for path, build in ((annotations, _annotations), (lexicon, ObjectLexicon.from_dict)):
        data = parse_json(read_input_text(path), path)
        with naming(path, InputError):
            corpus.append(build(data))
    return tuple(corpus)


def golden_corpus() -> tuple[list[CaptionRecord], list[Annotation], ObjectLexicon]:
    """The bundled 5-caption corpus with annotations and lexicon."""
    return load_corpus(*(Path(__file__).with_name("data") / name for name in (
        "golden_captions.jsonl", "golden_annotations.json", "golden_lexicon.json")))


@dataclass(frozen=True)
class Mention:
    """One extracted object occurrence: canonical name plus token position."""

    obj: str
    position: int


def extract_objects(caption: CaptionRecord, lexicon: ObjectLexicon) -> tuple[Mention, ...]:
    """Longest-match scan of the caption against the lexicon.

    Case-insensitive; each token position contributes to at most one
    mention; duplicates are retained in order.
    """
    words = tuple(tok.lower() for tok in caption.tokens)
    by_words = lexicon.by_words
    out: list[Mention] = []
    i = 0
    n = len(words)
    while i < n:
        matched = False
        for span in range(min(lexicon.max_words, n - i), 0, -1):
            obj = by_words.get(words[i : i + span])
            if obj is not None:
                out.append(Mention(obj, i))
                i += span
                matched = True
                break
        if not matched:
            i += 1
    return tuple(out)


@dataclass(frozen=True)
class CorpusCounts:
    """The integer counts backing every corpus rate, named as ``report.json`` names them."""

    captions: int
    matched: int
    mentions: int
    hallucinated: int
    gt: int
    covered: int
    hal_captions: int
    cognition_hits: int


def object_score(chair: float, cover: float, *, percent: bool = False) -> float:
    """A hallucination rate and a coverage rate combined into one score,
    ``0.5 * ((scale_max - chair) + cover)``: higher is better, and low hallucination
    and high coverage count equally. Both are fractions in [0, 1], or percentages in
    [0, 100] (``scale_max``) with ``percent=True``."""
    scale_max = 100.0 if percent else 1.0
    for name, value in (("chair", chair), ("cover", cover)):
        if not (0.0 <= value <= scale_max):
            raise ConfigError(f"{name} must lie in [0, {scale_max:g}], got {value!r}")
    return 0.5 * ((scale_max - chair) + cover)


@dataclass(frozen=True)
class MetricsReport:
    """Corpus metrics plus the integer counts backing every rate."""

    chair_i: float
    chair_s: float
    cover: float
    cog: float
    recall: float
    object_score: float
    counts: CorpusCounts
    warnings: tuple[str, ...] = ()

    @classmethod
    def from_objects(cls, captions: int, matched: Sequence[tuple[AbstractSet, ...]],
                     warnings: Iterable[str] = ()) -> "MetricsReport":
        """The report of ``captions`` captions, of which ``matched`` holds the ones
        matched to an annotation as (mentioned, gt, cognition) object sets: each
        count is summed over them, and each rate is one quotient of two counts."""
        if not matched:
            raise InputError("no caption matched an annotation; nothing to score")
        hal = [mentioned - gt for mentioned, gt, _ in matched]
        counts = CorpusCounts(
            captions=captions, matched=len(matched),
            mentions=sum(len(mentioned) for mentioned, _, _ in matched),
            hallucinated=sum(map(len, hal)), gt=sum(len(gt) for _, gt, _ in matched),
            covered=sum(len(mentioned & gt) for mentioned, gt, _ in matched),
            hal_captions=sum(map(bool, hal)),
            cognition_hits=sum(len(h & cognition) for h, (_, _, cognition) in zip(hal, matched)))
        chair_i = counts.hallucinated / counts.mentions if counts.mentions else 0.0
        cover = counts.covered / counts.gt
        cog = counts.cognition_hits / counts.hallucinated if counts.hallucinated else 0.0
        return cls(chair_i, counts.hal_captions / counts.matched, cover, cog, cover,
                   object_score(chair_i, cover), counts, tuple(warnings))

    def to_dict(self) -> dict:
        return {**asdict(self), "warnings": list(self.warnings)}


def corpus_metrics(
    captions: Sequence[CaptionRecord],
    annotations: Iterable[Annotation],
    lexicon: ObjectLexicon,
) -> MetricsReport:
    """Micro-aggregated corpus metrics.

    Captions without an annotation (and vice versa) produce warnings and are
    skipped; an empty matched corpus or an annotation with an empty gt set
    is an input error.
    """
    by_id: dict[str, Annotation] = {}
    for ann in annotations:
        if ann.image_id in by_id:
            raise InputError(f"duplicate annotation id {ann.image_id!r}")
        by_id[ann.image_id] = ann

    warnings: list[str] = []
    matched: list[tuple[AbstractSet[str], ...]] = []  # (mentioned, gt, cognition) objects
    for caption in captions:
        ann = by_id.get(caption.image_id)
        if ann is None:
            warnings.append(f"caption {caption.image_id!r} has no annotation; skipped")
            continue
        if not ann.gt_objects:
            raise InputError(f"annotation {ann.image_id!r} has an empty ground-truth set")
        matched.append(({m.obj for m in extract_objects(caption, lexicon)},
                        ann.gt_objects, ann.cognition_objects))

    seen_ids = {caption.image_id for caption in captions}
    warnings += [f"annotation {image_id!r} has no caption"
                 for image_id in by_id if image_id not in seen_ids]
    return MetricsReport.from_objects(len(captions), matched, warnings)


# -- trace side -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TraceLexicon:
    """The token classes all trace analytics read: one read-only boolean row per
    class, indexed by token id (``gt[i]`` is whether token ``i`` is a gt noun).

    Built once per scene (duck-typed: anything exposing ``vocabulary``,
    ``gt_objects``, ``hal_objects``, ``articles``). ``the`` and ``a`` hold the
    articles grouped case-insensitively on the token string: "The"/"the" and
    "A"/"a". Each row has one slot past the vocabulary, always False, which
    every id outside the vocabulary reads (``_steps`` clips ids onto it). A
    lexicon equals only itself: its rows are arrays, which compare by element.
    """

    vocab: Vocabulary
    gt: np.ndarray = field(repr=False)
    hal: np.ndarray = field(repr=False)
    article: np.ndarray = field(repr=False)
    the: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)

    @classmethod
    def from_scene(cls, scene) -> "TraceLexicon":
        vocab = scene.vocabulary

        def row(tokens) -> np.ndarray:
            flags = np.zeros(vocab.size + 1, dtype=bool)
            flags[[vocab.id_of(t) for t in tokens]] = True
            flags.setflags(write=False)
            return flags

        articles = tuple(scene.articles)
        return cls(vocab, row(scene.gt_objects), row(scene.hal_objects), row(articles),
                   row(a for a in articles if a.lower() == "the"),
                   row(a for a in articles if a.lower() == "a"))


class StepStats(NamedTuple):
    """One step of a run, as ``RunStats.steps`` presents it."""

    t: int
    chosen: int
    token: str
    entropy: float
    chosen_prob: float
    gt_mass: float
    hal_mass: float
    provider_calls: int


@dataclass(frozen=True)
class RunStats:
    """One run reduced to its summary columns: item t of each column is step t's.

    ``tokens`` holds the token strings as written or read. The metrics here
    reduce over the columns of all runs laid end to end.
    """

    prompt_id: str
    strategy: str
    seed: int
    chosen: tuple[int, ...] = field(repr=False)
    tokens: tuple[str, ...] = field(repr=False)
    entropy: tuple[float, ...] = field(repr=False)
    chosen_prob: tuple[float, ...] = field(repr=False)
    gt_mass: tuple[float, ...] = field(repr=False)
    hal_mass: tuple[float, ...] = field(repr=False)
    provider_calls: tuple[int, ...] = field(repr=False)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @cached_property
    def steps(self) -> tuple[StepStats, ...]:
        """The columns as one StepStats per step, built on first use."""
        return tuple(map(StepStats, count(), self.chosen, self.tokens, self.entropy,
                         self.chosen_prob, self.gt_mass, self.hal_mass, self.provider_calls))


def summarize_record(record: GenerationRecord, lexicon: TraceLexicon) -> RunStats:
    """The run's summary columns, which the decode loop computed, shared with ``record``.

    The gt and hal masses are those of the scene the run was decoded on,
    which is the scene ``lexicon`` is built from.
    """
    return RunStats(
        record.prompt_id, record.strategy, record.seed, record.chosen,
        tuple(map(lexicon.vocab.tokens.__getitem__, record.chosen)),
        record.entropy, record.chosen_prob, record.gt_mass, record.hal_mass,
        record.provider_calls,
    )


def _column(runs: Sequence[RunStats], name: str, dtype=np.float64) -> np.ndarray:
    """Column ``name`` of every run, laid end to end in run order."""
    return np.fromiter(chain.from_iterable(getattr(run, name) for run in runs), dtype)


def _steps(runs: Sequence[RunStats], lexicon: TraceLexicon) -> tuple[np.ndarray, ...]:
    """Every step's chosen id, the id chosen just before it in its own run (-1 at
    a run's first step, so no id leaks from one run into the next), and its t.
    An id outside the vocabulary is clipped onto -1 or the vocabulary's size:
    either reads the lexicon rows' last slot, which is in no class."""
    lengths = np.array([len(run.chosen) for run in runs], dtype=np.intp)
    t = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    chosen = np.clip(_column(runs, "chosen", np.int64), -1, lexicon.vocab.size)
    prev = np.empty_like(chosen)
    prev[1:] = chosen[:-1]
    prev[t == 0] = -1
    return chosen, prev, t


def _sum_in_order(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., added in that order as a ``+=`` loop does."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


@dataclass(frozen=True)
class CurveBin:
    """Mean gt/hal probability mass over the noun slots inside one step bin."""

    lo: int
    hi: int
    gt_mass: float
    hal_mass: float
    slots: int


def positional_curves(
    runs: Sequence[RunStats],
    lexicon: TraceLexicon,
    bin_width: int = DEFAULT_BIN_WIDTH,
) -> tuple[CurveBin, ...]:
    """Probability-mass curves over step bins, restricted to noun slots: the
    steps whose previous emission in the run is an article."""
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
    _, prev, t = _steps(runs, lexicon)
    slot = lexicon.article[prev]
    # Past the last step every width gives bin 0, and it need not fit an int64.
    bins = t[slot] // min(bin_width, len(t) + 1)
    gt, hal = _column(runs, "gt_mass")[slot], _column(runs, "hal_mass")[slot]
    values, counts = np.unique(bins, return_counts=True)
    return tuple(
        CurveBin(lo=b * bin_width, hi=(b + 1) * bin_width, gt_mass=_sum_in_order(gt[bins == b]) / n,
                 hal_mass=_sum_in_order(hal[bins == b]) / n, slots=n)
        for b, n in zip(values.tolist(), counts.tolist())
    )


@dataclass(frozen=True)
class ArticleCell:
    """Noun emissions following one article group."""

    gt_count: int
    hal_count: int
    gt_share: float
    hal_share: float
    gt_mean_prob: float
    hal_mean_prob: float


@dataclass(frozen=True)
class ArticleStats:
    """Noun emissions after "The"/"the" vs after "A"/"a"."""

    after_the: ArticleCell
    after_a: ArticleCell

    def to_dict(self) -> dict:
        return {
            "after_the": vars(self.after_the).copy(),
            "after_a": vars(self.after_a).copy(),
        }


def _article_cell(prob: np.ndarray, is_gt: np.ndarray, emitted: np.ndarray) -> ArticleCell:
    gt = prob[emitted & is_gt]
    hal = prob[emitted & ~is_gt]
    total = len(gt) + len(hal)
    return ArticleCell(
        gt_count=len(gt),
        hal_count=len(hal),
        gt_share=len(gt) / total if total else 0.0,
        hal_share=len(hal) / total if total else 0.0,
        gt_mean_prob=float(np.mean(gt)) if len(gt) else 0.0,
        hal_mean_prob=float(np.mean(hal)) if len(hal) else 0.0,
    )


def article_stats(runs: Sequence[RunStats], lexicon: TraceLexicon) -> ArticleStats:
    """How noun choice and noun confidence depend on the preceding article."""
    chosen, prev, _ = _steps(runs, lexicon)
    is_gt = lexicon.gt[chosen]
    noun = is_gt | lexicon.hal[chosen]
    prob = _column(runs, "chosen_prob")
    return ArticleStats(
        after_the=_article_cell(prob, is_gt, noun & lexicon.the[prev]),
        after_a=_article_cell(prob, is_gt, noun & lexicon.a[prev]),
    )


@dataclass(frozen=True)
class EntropyCell:
    mean_entropy: float
    count: int


def entropy_stats(
    runs: Sequence[RunStats], lexicon: TraceLexicon
) -> dict[str, EntropyCell]:
    """Mean step entropy by emission group.

    The "after_*" rows group *noun* emissions by the preceding token:
    after_the + after_other partition all_nouns, and after_a is a subset of
    after_other.
    """
    chosen, prev, _ = _steps(runs, lexicon)
    entropy = _column(runs, "entropy")
    gt = lexicon.gt[chosen]
    noun = gt | lexicon.hal[chosen]
    after_the = noun & lexicon.the[prev]
    after_other = noun & ~after_the
    groups = {
        "all_tokens": entropy,
        "all_nouns": entropy[noun],
        "gt_nouns": entropy[gt],
        "hal_nouns": entropy[noun & ~gt],
        "after_the": entropy[after_the],
        "after_a": entropy[after_other & lexicon.a[prev]],
        "after_other": entropy[after_other],
    }
    return {
        name: EntropyCell(float(np.mean(values)) if len(values) else 0.0, len(values))
        for name, values in groups.items()
    }


@dataclass(frozen=True)
class SentenceInitialStats:
    the_fraction: float
    the_count: int
    n_runs: int


def sentence_initial_stats(runs: Sequence[RunStats]) -> SentenceInitialStats:
    """Fraction of runs whose first emitted token is exactly "The"."""
    if not runs:
        raise InputError("sentence_initial_stats needs at least one run")
    the_count = sum(run.tokens[:1] == ("The",) for run in runs)
    return SentenceInitialStats(
        the_fraction=the_count / len(runs),
        the_count=the_count,
        n_runs=len(runs),
    )


def hal_noun_rate(runs: Sequence[RunStats], lexicon: TraceLexicon) -> float:
    """Aggregate hallucinated share of emitted nouns across runs, multiplicity kept."""
    chosen = _steps(runs, lexicon)[0]
    nouns = int(np.count_nonzero(lexicon.gt[chosen] | lexicon.hal[chosen]))
    hal = int(np.count_nonzero(lexicon.hal[chosen]))  # the hal nouns are a subset of the nouns
    return hal / nouns if nouns else 0.0


def simulated_corpus(
    runs: Sequence[RunStats],
    lexicon: TraceLexicon,
    gt_names: Iterable[str],
    cognition_names: Iterable[str] = (),
) -> tuple[list[CaptionRecord], list[Annotation], ObjectLexicon]:
    """Treat each run as a caption of the scene it was generated from.

    The object lexicon is the identity over the scene's noun tokens, the
    ground truth is the scene's gt set, and the cognition set is the scene's
    designated plausible-confusion subset. Feed the result to
    :func:`corpus_metrics`.
    """
    names = sorted(lexicon.vocab.tokens[i] for i in np.flatnonzero(lexicon.gt | lexicon.hal))
    ids = [f"{run.strategy}#{run.seed}" for run in runs]
    gt, cognition = frozenset(gt_names), frozenset(cognition_names)
    return ([CaptionRecord(run_id, run.tokens) for run_id, run in zip(ids, runs)],
            [Annotation(run_id, gt, cognition) for run_id in ids], ObjectLexicon.identity(names))


def simulated_metrics(runs: Sequence[RunStats], lexicon: TraceLexicon,
                      cognition_names: Iterable[str] = ()) -> MetricsReport:
    """``corpus_metrics(*simulated_corpus(runs, lexicon, <gt nouns>, cognition_names))``
    from the runs' chosen ids, not their token strings: each run is its own caption,
    which mentions the noun ids it chose (an id outside the vocabulary is no noun)."""
    nouns = set(np.flatnonzero(lexicon.gt | lexicon.hal).tolist())
    gt = set(np.flatnonzero(lexicon.gt).tolist())
    cognition = set(map(lexicon.vocab.id_of, cognition_names))
    return MetricsReport.from_objects(
        len(runs), [(nouns.intersection(run.chosen), gt, cognition) for run in runs])


# -- trace files ------------------------------------------------------------------


# The run header's keys, every one written and required.
_HEADER_KEYS = ("kind", "prompt_id", "strategy", "seed", "n_steps", "text")
# A step line as ``json.dumps(line, sort_keys=True)`` writes it, with the dist
# field (and its ", ") or nothing at %s. The decode loop checks every value
# finite, and a finite float's repr is its JSON form.
_STEP_LINE = (
    '{"chosen": %d, "chosen_prob": %r, %s"entropy": %r, "gt_mass": %r, "hal_mass": %r, '
    '"kind": "step", "provider_calls": %d, "t": %d, "token": %s}\n'
)


def write_trace(
    path,
    record: GenerationRecord,
    lexicon: TraceLexicon,
    *,
    full_dist: bool = False,
) -> RunStats:
    """Write one run as JSONL: a header line, then one line per step.

    Each line is byte for byte ``json.dumps(..., sort_keys=True)`` of its
    record; step lines are formatted directly from the record's columns, and
    the file is written in one call. The summary fields are everything the
    metrics here consume. With ``full_dist`` each step line also holds the
    step's distribution, which only a record decoded with ``record=True``
    keeps. Returns the summary that was written.
    """
    stats = summarize_record(record, lexicon)
    header = dict(zip(_HEADER_KEYS, ("run", stats.prompt_id, stats.strategy, stats.seed,
                                     len(stats.chosen), stats.text)))
    dists = repeat("")
    if full_dist:
        if record.steps is None:
            raise ConfigError("full_dist needs a record decoded with record=True")
        dists = ('"dist": [%s], ' % ", ".join(map(repr, s.dist.probs.tolist()))
                 for s in record.steps)
    lines = map(
        _STEP_LINE.__mod__,
        zip(record.chosen, record.chosen_prob, dists, record.entropy, record.gt_mass,
            record.hal_mass, record.provider_calls, count(),
            map(encode_basestring_ascii, stats.tokens)),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n" + "".join(lines))
    return stats


# A step line's fields, in the order of a RunStats' columns after t, and their JSON checks.
_STEP_FIELDS = ("t", "chosen", "token", "entropy", "chosen_prob", "gt_mass", "hal_mass",
                "provider_calls")
_step_fields = itemgetter(*_STEP_FIELDS)
_STEP_READS = (read_int, read_int, read_string, *[read_float] * 4, read_int)


def read_trace(path) -> RunStats:
    """Read one JSONL trace back into the summary form; a malformed record (say,
    a field of another JSON type than the writer's, though an integer is read as
    a float; a chosen_prob of 0, gt and hal mass summing above 1, a negative
    entropy, steps out of order, or a run header that holds a key other than the
    six ``write_trace`` writes, lacks one, or whose text is not the steps' tokens
    joined by spaces) is an InputError naming the file, the line and the field."""
    text = read_input_text(path)
    records = read_jsonl(text, path)
    accepted = _trace_columns(records)
    if accepted is None:
        raise _first_fault(path, zip(jsonl_line_numbers(text), records))
    at, columns = accepted
    with naming(lambda: f"{path}:{jsonl_line_numbers(text)[at]}", InputError):
        header = read_keys(records[at], _HEADER_KEYS, "run header", required=_HEADER_KEYS)
        stats = RunStats(read_string(header["prompt_id"], "prompt_id"),
                         read_string(header["strategy"], "strategy"),
                         read_int(header["seed"], "seed"), *columns)
        n_steps = read_int(header["n_steps"], "n_steps")
        if n_steps != len(stats.chosen):
            raise ConfigError(f"header declares {n_steps} steps, found {len(stats.chosen)}")
        if header["text"] != stats.text:
            raise ConfigError(f"text: {header['text']!r} is not the steps' tokens joined by spaces")
    return stats


def _trace_columns(records: list) -> tuple[int, tuple] | None:
    """The index of the run header among a trace's ``records`` and the step columns
    from ``chosen`` on; None unless ``_first_fault``'s checks, made on whole
    columns, find no fault."""
    try:
        kinds = tuple(map(itemgetter("kind"), records))
        at = kinds.index("run")
        t, *columns = tuple(zip(*map(_step_fields, records[:at] + records[at + 1:]))) or ((),) * 8
        chosen, tokens, *floats, calls = columns
        float_types = set(map(type, chain(*floats)))
        if int in float_types:  # an integer is a number too
            floats = [tuple(map(float, column)) for column in floats]
    except (ValueError, TypeError, KeyError, OverflowError):  # Overflow: an int past float range
        return None
    if (kinds.count("step") != len(kinds) - 1 or t != tuple(range(len(t)))
            or not set(map(type, chain(t, chosen, calls))) <= {int}
            or min(calls, default=1) < 1 or not set(map(type, tokens)) <= {str}
            or not float_types <= {int, float}):
        return None
    entropy, chosen_prob, gt_mass, hal_mass = floats
    total = sum(map(sum, floats))  # a NaN makes the sum NaN
    if not (total == total and min(entropy, default=0.0) >= 0.0
            and max(entropy, default=0.0) < math.inf and min(chosen_prob, default=1.0) > 0.0
            and max(chosen_prob, default=1.0) <= _P_MAX and min(gt_mass, default=0.0) >= 0.0
            and min(hal_mass, default=0.0) >= 0.0
            and max(map(float.__add__, gt_mass, hal_mass), default=0.0) <= _P_MAX):
        return None
    return at, (chosen, tokens, *floats, calls)


def _first_fault(path, numbered: Iterable[tuple[int, object]]) -> LogitAnchorError:
    """The error naming the first record at fault among a rejected trace's (line, record) pairs."""
    header_seen, t = False, 0
    for lineno, record in numbered:
        if type(record) is not dict:
            return InputError(f"{path}:{lineno}: a record must be a JSON object")
        kind = record.get("kind")
        if kind == "run":
            if header_seen:
                return InputError(f"{path}:{lineno}: duplicate run header")
            header_seen = True
            continue
        if kind != "step":
            return InputError(f"{path}:{lineno}: unknown record kind {kind!r}")
        try:
            step_t, chosen, token, entropy, chosen_prob, gt_mass, hal_mass, calls = (
                read(value, key)
                for read, value, key in zip(_STEP_READS, _step_fields(record), _STEP_FIELDS))
        except (KeyError, ConfigError) as exc:
            return InputError(f"{path}:{lineno}: bad step record ({exc})")
        fault = next((fault for ok, fault in (
            (step_t == t, f"t: {step_t!r} where step {t} belongs"),
            (calls >= 1, f"provider_calls: {calls!r} is below 1"),
            (0.0 <= entropy < math.inf, f"entropy: {entropy!r} is negative or not finite"),
            # the loop never chooses a zero-probability token
            (0.0 < chosen_prob <= _P_MAX, f"chosen_prob: {chosen_prob!r} lies outside (0, 1]"),
            (0.0 <= gt_mass <= _P_MAX, f"gt_mass: {gt_mass!r} lies outside [0, 1]"),
            (0.0 <= hal_mass <= _P_MAX, f"hal_mass: {hal_mass!r} lies outside [0, 1]"),
            (gt_mass + hal_mass <= _P_MAX,
             f"gt_mass + hal_mass: {gt_mass!r} + {hal_mass!r} exceeds 1"),
        ) if not ok), None)
        if fault is not None:
            return InputError(f"{path}:{lineno}: bad step record ({fault})")
        t += 1
    if not header_seen:
        return InputError(f"{path}: missing run header")
    return ContractError(f"{path}: the columns reject a trace with no record at fault")
