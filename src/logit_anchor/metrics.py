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

Trace side: decoding runs are reduced to per-step summaries (chosen token,
entropy, chosen-token probability, gt/hal probability mass) and analyzed
positionally. A step is a noun slot iff the previously emitted token is an
article, which matches the generating grammar and is derivable from the
trace alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import read_int
from .core import GenerationRecord, Vocabulary
from .errors import ConfigError, InputError

_EDGE_PUNCT = ".,;:!?\"'()[]"


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

    @property
    def objects(self) -> frozenset[str]:
        return frozenset(self.forms)

    @classmethod
    def identity(cls, names: Iterable[str]) -> "ObjectLexicon":
        """Each name is its own only surface form."""
        return cls({name: (name,) for name in names})

    @classmethod
    def from_dict(cls, data: Mapping) -> "ObjectLexicon":
        if not isinstance(data, Mapping):
            raise InputError("lexicon must be an object mapping names to form lists")
        for name, forms in data.items():
            if not isinstance(forms, list):
                raise InputError(
                    f"lexicon entry {name!r} must be a list of surface forms, "
                    f"got {type(forms).__name__}"
                )
        return cls({str(k): tuple(str(s) for s in v) for k, v in data.items()})

    def to_dict(self) -> dict:
        return {k: list(v) for k, v in sorted(self.forms.items())}


@dataclass(frozen=True)
class Annotation:
    """Ground truth for one image: what is there, and which absent objects
    would be plausible confusions (the cognition set)."""

    image_id: str
    gt_objects: frozenset[str]
    cognition_objects: frozenset[str] = frozenset()

    @classmethod
    def from_dict(cls, data: Mapping) -> "Annotation":
        try:
            return cls(
                image_id=str(data["id"]),
                gt_objects=_name_set(data["gt_objects"], "gt_objects"),
                cognition_objects=_name_set(
                    data.get("cognition_objects", []), "cognition_objects"
                ),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed annotation: {exc}") from exc


def _name_set(names, key: str) -> frozenset[str]:
    """An annotation's object list; a string would be read as its characters."""
    if not isinstance(names, list):
        raise InputError(
            f"malformed annotation: {key} must be a list of object names, "
            f"got {type(names).__name__}"
        )
    return frozenset(str(x) for x in names)


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
class MetricsReport:
    """Corpus metrics plus the integer counts backing every rate."""

    chair_i: float
    chair_s: float
    cover: float
    cog: float
    recall: float
    object_score: float
    n_captions: int
    n_matched: int
    mentions_total: int
    hallucinated_total: int
    gt_total: int
    covered_total: int
    hal_captions: int
    cognition_hits: int
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "chair_i": self.chair_i,
            "chair_s": self.chair_s,
            "cover": self.cover,
            "cog": self.cog,
            "recall": self.recall,
            "object_score": self.object_score,
            "counts": {
                "captions": self.n_captions,
                "matched": self.n_matched,
                "mentions": self.mentions_total,
                "hallucinated": self.hallucinated_total,
                "gt": self.gt_total,
                "covered": self.covered_total,
                "hal_captions": self.hal_captions,
                "cognition_hits": self.cognition_hits,
            },
            "warnings": list(self.warnings),
        }


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
    matched = 0
    mentions_total = hallucinated_total = 0
    gt_total = covered_total = 0
    hal_captions = cognition_hits = 0
    seen_ids: set[str] = set()

    for caption in captions:
        seen_ids.add(caption.image_id)
        ann = by_id.get(caption.image_id)
        if ann is None:
            warnings.append(f"caption {caption.image_id!r} has no annotation; skipped")
            continue
        if not ann.gt_objects:
            raise InputError(
                f"annotation {ann.image_id!r} has an empty ground-truth set"
            )
        matched += 1
        mentioned = {m.obj for m in extract_objects(caption, lexicon)}
        hallucinated = mentioned - ann.gt_objects
        mentions_total += len(mentioned)
        hallucinated_total += len(hallucinated)
        gt_total += len(ann.gt_objects)
        covered_total += len(mentioned & ann.gt_objects)
        hal_captions += bool(hallucinated)
        cognition_hits += len(hallucinated & ann.cognition_objects)

    for image_id in by_id:
        if image_id not in seen_ids:
            warnings.append(f"annotation {image_id!r} has no caption")

    if matched == 0:
        raise InputError("no caption matched an annotation; nothing to score")
    if gt_total == 0:
        raise InputError("matched annotations carry no ground-truth objects")

    chair_i_value = hallucinated_total / mentions_total if mentions_total else 0.0
    cover_value = covered_total / gt_total
    from .weighting import object_score as _object_score

    return MetricsReport(
        chair_i=chair_i_value,
        chair_s=hal_captions / matched,
        cover=cover_value,
        cog=cognition_hits / hallucinated_total if hallucinated_total else 0.0,
        recall=cover_value,
        object_score=_object_score(chair_i_value, cover_value),
        n_captions=len(captions),
        n_matched=matched,
        mentions_total=mentions_total,
        hallucinated_total=hallucinated_total,
        gt_total=gt_total,
        covered_total=covered_total,
        hal_captions=hal_captions,
        cognition_hits=cognition_hits,
        warnings=tuple(warnings),
    )


# -- trace side -------------------------------------------------------------------


@dataclass(frozen=True)
class TraceLexicon:
    """Token-id classification used by all trace analytics.

    Built from a scene (duck-typed: anything exposing ``vocabulary``,
    ``gt_objects``, ``hal_objects``, ``articles``). Article groups are
    case-insensitive on the token string: "The"/"the" vs "A"/"a".
    """

    vocab: Vocabulary
    gt_ids: frozenset[int]
    hal_ids: frozenset[int]
    article_ids: frozenset[int]

    @classmethod
    def from_scene(cls, scene) -> "TraceLexicon":
        vocab = scene.vocabulary
        return cls(
            vocab=vocab,
            gt_ids=frozenset(int(vocab.id_of(t)) for t in scene.gt_objects),
            hal_ids=frozenset(int(vocab.id_of(t)) for t in scene.hal_objects),
            article_ids=frozenset(int(vocab.id_of(t)) for t in scene.articles),
        )

    @cached_property
    def noun_ids(self) -> frozenset[int]:
        return self.gt_ids | self.hal_ids

    @cached_property
    def the_ids(self) -> frozenset[int]:
        return frozenset(
            i for i in self.article_ids if self.vocab.token(i).lower() == "the"
        )

    @cached_property
    def a_ids(self) -> frozenset[int]:
        return frozenset(
            i for i in self.article_ids if self.vocab.token(i).lower() == "a"
        )

    @cached_property
    def gt_names(self) -> frozenset[str]:
        return frozenset(self.vocab.token(i) for i in self.gt_ids)

    @cached_property
    def hal_names(self) -> frozenset[str]:
        return frozenset(self.vocab.token(i) for i in self.hal_ids)

    @cached_property
    def _gt_index(self) -> np.ndarray:
        return np.asarray(sorted(self.gt_ids))

    @cached_property
    def _hal_index(self) -> np.ndarray:
        return np.asarray(sorted(self.hal_ids))


@dataclass(frozen=True)
class StepStats:
    """Everything the trace analytics need from one step."""

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
    """One run reduced to its per-step summaries."""

    prompt_id: str
    strategy: str
    seed: int
    steps: tuple[StepStats, ...] = field(repr=False)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(s.token for s in self.steps)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def summarize_record(record: GenerationRecord, lexicon: TraceLexicon) -> RunStats:
    """Reduce a full GenerationRecord to the summary the metrics consume."""
    gt_index = lexicon._gt_index
    hal_index = lexicon._hal_index
    steps = tuple(
        StepStats(
            t=s.step_index,
            chosen=s.chosen,
            token=lexicon.vocab.token(s.chosen),
            entropy=s.entropy_nats,
            chosen_prob=s.dist.prob(s.chosen),
            gt_mass=float(s.dist.probs[gt_index].sum()),
            hal_mass=float(s.dist.probs[hal_index].sum()),
            provider_calls=s.provider_calls,
        )
        for s in record.steps
    )
    return RunStats(
        prompt_id=record.prompt_id,
        strategy=record.strategy,
        seed=record.seed,
        steps=steps,
    )


def _noun_slots(run: RunStats, lexicon: TraceLexicon):
    """(prev_step, step) pairs where the previous emission was an article."""
    for prev, step in zip(run.steps, run.steps[1:]):
        if prev.chosen in lexicon.article_ids:
            yield prev, step


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
    bin_width: int = 20,
) -> tuple[CurveBin, ...]:
    """Probability-mass curves over step bins, restricted to noun slots."""
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
    sums: dict[int, list[float]] = {}
    for run in runs:
        for _, step in _noun_slots(run, lexicon):
            cell = sums.setdefault(step.t // bin_width, [0.0, 0.0, 0])
            cell[0] += step.gt_mass
            cell[1] += step.hal_mass
            cell[2] += 1
    return tuple(
        CurveBin(
            lo=b * bin_width,
            hi=(b + 1) * bin_width,
            gt_mass=gt / n,
            hal_mass=hal / n,
            slots=n,
        )
        for b, (gt, hal, n) in sorted(sums.items())
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


def _article_cell(emissions: list[tuple[bool, float]]) -> ArticleCell:
    gt = [p for is_gt, p in emissions if is_gt]
    hal = [p for is_gt, p in emissions if not is_gt]
    total = len(emissions)
    return ArticleCell(
        gt_count=len(gt),
        hal_count=len(hal),
        gt_share=len(gt) / total if total else 0.0,
        hal_share=len(hal) / total if total else 0.0,
        gt_mean_prob=float(np.mean(gt)) if gt else 0.0,
        hal_mean_prob=float(np.mean(hal)) if hal else 0.0,
    )


def article_stats(runs: Sequence[RunStats], lexicon: TraceLexicon) -> ArticleStats:
    """How noun choice and noun confidence depend on the preceding article."""
    after_the: list[tuple[bool, float]] = []
    after_a: list[tuple[bool, float]] = []
    for run in runs:
        for prev, step in _noun_slots(run, lexicon):
            if step.chosen not in lexicon.noun_ids:
                continue
            emission = (step.chosen in lexicon.gt_ids, step.chosen_prob)
            if prev.chosen in lexicon.the_ids:
                after_the.append(emission)
            elif prev.chosen in lexicon.a_ids:
                after_a.append(emission)
    return ArticleStats(
        after_the=_article_cell(after_the),
        after_a=_article_cell(after_a),
    )


@dataclass(frozen=True)
class EntropyCell:
    mean_entropy: float
    count: int


ENTROPY_GROUPS = (
    "all_tokens",
    "all_nouns",
    "gt_nouns",
    "hal_nouns",
    "after_the",
    "after_a",
    "after_other",
)


def entropy_stats(
    runs: Sequence[RunStats], lexicon: TraceLexicon
) -> dict[str, EntropyCell]:
    """Mean step entropy by emission group.

    The "after_*" rows group *noun* emissions by the preceding token:
    after_the + after_other partition all_nouns, and after_a is a subset of
    after_other.
    """
    groups: dict[str, list[float]] = {name: [] for name in ENTROPY_GROUPS}
    for run in runs:
        prev_chosen = None
        for step in run.steps:
            groups["all_tokens"].append(step.entropy)
            if step.chosen in lexicon.noun_ids:
                groups["all_nouns"].append(step.entropy)
                is_gt = step.chosen in lexicon.gt_ids
                groups["gt_nouns" if is_gt else "hal_nouns"].append(step.entropy)
                if prev_chosen is not None and prev_chosen in lexicon.the_ids:
                    groups["after_the"].append(step.entropy)
                else:
                    groups["after_other"].append(step.entropy)
                    if prev_chosen is not None and prev_chosen in lexicon.a_ids:
                        groups["after_a"].append(step.entropy)
            prev_chosen = step.chosen
    return {
        name: EntropyCell(
            mean_entropy=float(np.mean(values)) if values else 0.0,
            count=len(values),
        )
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
    the_count = sum(1 for run in runs if run.steps and run.steps[0].token == "The")
    return SentenceInitialStats(
        the_fraction=the_count / len(runs),
        the_count=the_count,
        n_runs=len(runs),
    )


def hal_noun_rate(runs: Sequence[RunStats], lexicon: TraceLexicon) -> float:
    """Aggregate hallucinated share of emitted nouns across runs, multiplicity kept."""
    hal = nouns = 0
    for run in runs:
        for step in run.steps:
            if step.chosen in lexicon.noun_ids:
                nouns += 1
                hal += step.chosen in lexicon.hal_ids
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
    names = sorted(lexicon.gt_names | lexicon.hal_names)
    identity = ObjectLexicon.identity(names)
    gt = frozenset(gt_names)
    cognition = frozenset(cognition_names)
    captions: list[CaptionRecord] = []
    annotations: list[Annotation] = []
    for run in runs:
        run_id = f"{run.strategy}#{run.seed}"
        captions.append(CaptionRecord(image_id=run_id, tokens=run.tokens))
        annotations.append(
            Annotation(image_id=run_id, gt_objects=gt, cognition_objects=cognition)
        )
    return captions, annotations, identity


# -- trace files ------------------------------------------------------------------


def write_trace(
    path,
    record: GenerationRecord,
    lexicon: TraceLexicon,
    *,
    full_dist: bool = False,
) -> RunStats:
    """Write one run as JSONL: a header line, then one line per step.

    Per-step distributions are stored only when ``full_dist`` is set; the
    summary fields are always present and are everything the metrics here
    consume. Returns the summary that was written.
    """
    stats = summarize_record(record, lexicon)
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "kind": "run",
            "prompt_id": stats.prompt_id,
            "strategy": stats.strategy,
            "seed": stats.seed,
            "n_steps": len(stats.steps),
            "text": stats.text,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for step, full in zip(stats.steps, record.steps):
            line = {
                "kind": "step",
                "t": step.t,
                "chosen": step.chosen,
                "token": step.token,
                "entropy": step.entropy,
                "chosen_prob": step.chosen_prob,
                "gt_mass": step.gt_mass,
                "hal_mass": step.hal_mass,
                "provider_calls": step.provider_calls,
            }
            if full_dist:
                line["dist"] = [float(p) for p in full.dist.probs]
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return stats


def read_trace(path) -> RunStats:
    """Read one JSONL trace back into the summary form; a malformed record (say,
    an integer field holding a fraction) is an InputError naming the file and line."""
    steps: list[StepStats] = []
    header: dict | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(data, dict):
                raise InputError(f"{path}:{lineno}: a record must be a JSON object")
            kind = data.get("kind")
            if kind == "run":
                if header is not None:
                    raise InputError(f"{path}:{lineno}: duplicate run header")
                header, header_line = data, lineno
            elif kind == "step":
                try:
                    steps.append(
                        StepStats(
                            t=read_int(data["t"], "t"),
                            chosen=read_int(data["chosen"], "chosen"),
                            token=str(data["token"]),
                            entropy=float(data["entropy"]),
                            chosen_prob=float(data["chosen_prob"]),
                            gt_mass=float(data["gt_mass"]),
                            hal_mass=float(data["hal_mass"]),
                            provider_calls=read_int(data["provider_calls"], "provider_calls"),
                        )
                    )
                except (KeyError, TypeError, ValueError, ConfigError) as exc:
                    raise InputError(f"{path}:{lineno}: bad step record ({exc})") from exc
            else:
                raise InputError(f"{path}:{lineno}: unknown record kind {kind!r}")
    if header is None:
        raise InputError(f"{path}: missing run header")
    try:
        n_steps = read_int(header.get("n_steps", len(steps)), "n_steps")
        stats = RunStats(
            prompt_id=str(header["prompt_id"]),
            strategy=str(header["strategy"]),
            seed=read_int(header["seed"], "seed"),
            steps=tuple(steps),
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise InputError(
            f"{path}:{header_line}: bad run header ({type(exc).__name__}: {exc})"
        ) from exc
    if len(steps) != n_steps:
        raise InputError(f"{path}: header declares {n_steps} steps, found {len(steps)}")
    return stats
