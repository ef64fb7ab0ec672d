"""A synthetic captioning model with a controllable hallucination mechanism.

The scene emits token logits for a tiny article/noun/connective grammar:

    START -> article -> noun -> (connective -> article -> ...) | EOS

Two knobs drive everything downstream. First, "visual evidence" decays with
the step index: ground-truth noun logits sink and hallucination noun logits
rise by ``decay_depth * (1 - exp(-decay_kappa * t))``, so the gt/hal margin
shrinks and eventually flips sign. Second, articles condition the following
noun slot: after a grounding article (e.g. "The") hallucination logits are
suppressed by a per-article amount, which is what makes sentence-initial
token choice matter.

Grammar-inadmissible tokens are not masked out; they receive a large finite
penalty, so a decoding strategy that over-boosts a token can, in principle,
still emit it somewhere illegal. That failure mode is the point of the
candidate constraint.

``SyntheticProvider(scene)`` serves the scene's logits, and
``SyntheticProvider(scene, variant)`` the degraded view a contrastive
strategy uses as its second pass. Each row draws its noise from its own
``numpy.random.Generator``, its jitter ``TAPE_STEPS`` steps at a time.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import TokenId, Vocabulary
from .errors import ConfigError, ContractError

# A row's grammar state is one int code. The codes from AFTER_ARTICLE on are
# per article: AFTER_ARTICLE + k is the noun slot the k-th article opened.
START, AFTER_NOUN, AFTER_CONNECTIVE, TERMINAL, AFTER_ARTICLE = range(5)

NOISY_VISUAL = "noisy_visual"
PERTURBED_INSTRUCTION = "perturbed_instruction"
UNCONDITIONED = "unconditioned"
NEGATIVE_KINDS = (NOISY_VISUAL, PERTURBED_INSTRUCTION, UNCONDITIONED)

PRESET_NAMES = ("default", "no-decay", "strong-decay")

# The largest magnitude of a scene's logit-scale values: each base logit and
# article_grounding, decay_depth, grammar_penalty and noise_sigma. With B this bound, a
# noiseless row entry (base, decay, grounding) lies within 3B. A contrastive variant moves a
# noun group toward the mean of the gt and hal means (each a sum of such entries, finite for
# any vocabulary) by at most half their gap, 3B, and the grammar penalty, plain or permuted,
# takes at most B: 7B. numpy's normal sampler (a ziggurat whose tail draw is r - log1p(-u)/r,
# r = 3.654, u < 1 - 2**-53) never returns beyond 13.8 standard deviations, so jitter adds at
# most 14B. Every row a provider serves lies within 21B, about 1e101, far inside float range.
SCENE_BOUND = 1e100

TAPE_STEPS = 4  # jitter steps a row draws as one block, which holds what 4 one-step draws give


@dataclass(frozen=True)
class NegativeVariantSpec:
    """How the negative (distorted-evidence) provider differs from the scene.

    ``noisy_visual`` shrinks the gt/hal margin toward 0 by factor
    (1 - strength); ``unconditioned`` removes it entirely;
    ``perturbed_instruction`` blends the grammar-admissibility offsets with a
    randomly permuted copy of themselves, weighted by strength.
    """

    kind: str
    strength: float = 1.0

    def __post_init__(self):
        if self.kind not in NEGATIVE_KINDS:
            raise ConfigError(
                f"unknown negative variant {self.kind!r}; expected one of {NEGATIVE_KINDS}"
            )
        if not 0.0 <= self.strength <= 1.0:
            raise ConfigError(f"strength must lie in [0, 1], got {self.strength!r}")


@dataclass(frozen=True)
class SceneSpec:
    """One synthetic scene; its fields are a scene file's keys (the vocabulary as ``tokens``).

    ``base_logits`` is per token, aligned with ``vocabulary``, held as floats.
    The named groups must be disjoint subsets of the vocabulary; whatever is
    left over is filler and is never grammar-admissible. ``article_grounding``
    maps an article token to how strongly it suppresses hallucination-noun
    logits in the noun slot it opens.
    """

    vocabulary: Vocabulary
    base_logits: tuple[float, ...]
    articles: tuple[str, ...]
    gt_objects: tuple[str, ...]
    hal_objects: tuple[str, ...]
    connectives: tuple[str, ...]
    eos: str
    decay_kappa: float = 0.05
    decay_depth: float = 2.0
    noise_sigma: float = 0.3
    grammar_penalty: float = 12.0
    article_grounding: Mapping[str, float] = field(default_factory=dict)
    cognition_objects: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "base_logits", tuple(map(float, self.base_logits)))
        object.__setattr__(self, "article_grounding", dict(self.article_grounding))
        if len(self.base_logits) != self.vocabulary.size:
            raise ConfigError(
                f"base_logits has {len(self.base_logits)} entries for "
                f"{self.vocabulary.size} tokens"
            )
        groups = [self.articles, self.gt_objects, self.hal_objects,
                  self.connectives, (self.eos,)]
        seen: set[str] = set()
        for group in groups:
            for tok in group:
                if tok not in self.vocabulary:
                    raise ConfigError(f"scene token {tok!r} not in vocabulary")
                if tok in seen:
                    raise ConfigError(f"scene token {tok!r} appears in two groups")
                seen.add(tok)
        for name in ("articles", "gt_objects", "hal_objects", "connectives"):
            if not getattr(self, name):
                raise ConfigError(f"{name}: a scene needs at least one")
        bound = SCENE_BOUND
        for name, value, ok, rule in (
            ("decay_kappa", self.decay_kappa, self.decay_kappa > 0, "> 0"),
            ("decay_depth", self.decay_depth, 0 <= self.decay_depth <= bound, f"in [0, {bound:g}]"),
            ("noise_sigma", self.noise_sigma, 0 <= self.noise_sigma <= bound, f"in [0, {bound:g}]"),
            ("grammar_penalty", self.grammar_penalty, 0 < self.grammar_penalty <= bound,
             f"in (0, {bound:g}]"),
        ):
            if not (ok and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and {rule}, got {value!r}")
        # CHAIR reads a noun in any case, so no other token may lower-case onto one.
        nouns = {noun.lower(): noun for noun in (*self.gt_objects, *self.hal_objects)}
        for tok, logit in zip(self.vocabulary.tokens, self.base_logits):
            # A run's text is its tokens joined by spaces, and CHAIR reads words.
            if tok.split() != [tok]:
                raise ConfigError(f"scene token {tok!r} is empty or holds whitespace")
            if nouns.get(tok.lower(), tok) != tok:
                raise ConfigError(f"scene token {tok!r} is the noun "
                                  f"{nouns[tok.lower()]!r} under lower-casing")
            if not abs(logit) <= bound:
                raise ConfigError(f"base logit of {tok!r} must be finite and in "
                                  f"[-{bound:g}, {bound:g}], got {logit!r}")
        for tok, grounding in self.article_grounding.items():
            if tok not in self.articles:
                raise ConfigError(f"article_grounding key {tok!r} is not an article")
            if not abs(grounding) <= bound:
                raise ConfigError(f"article_grounding of {tok!r} must be finite and in "
                                  f"[-{bound:g}, {bound:g}], got {grounding!r}")
        for tok in self.cognition_objects:
            if tok not in self.hal_objects:
                raise ConfigError(
                    f"cognition object {tok!r} must be one of the hal objects"
                )
        head = [self.base_logits[self.vocabulary.id_of(a)] for a in self.articles]
        if head and max(head[1:], default=-np.inf) >= head[0]:
            raise ConfigError(
                "the first article must carry the strictly largest base logit"
            )

    # -- derived indexing ---------------------------------------------------

    @cached_property
    def base(self) -> np.ndarray:
        arr = np.asarray(self.base_logits, dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def article_ids(self) -> np.ndarray:
        return np.asarray([self.vocabulary.id_of(t) for t in self.articles])

    @cached_property
    def gt_ids(self) -> np.ndarray:
        return np.asarray([self.vocabulary.id_of(t) for t in self.gt_objects])

    @cached_property
    def hal_ids(self) -> np.ndarray:
        return np.asarray([self.vocabulary.id_of(t) for t in self.hal_objects])

    @cached_property
    def noun_ids(self) -> np.ndarray:
        return np.concatenate([self.gt_ids, self.hal_ids])

    @cached_property
    def connective_ids(self) -> np.ndarray:
        return np.asarray([self.vocabulary.id_of(t) for t in self.connectives])

    @cached_property
    def eos_id(self) -> int:
        return self.vocabulary.id_of(self.eos)

    @cached_property
    def _code_after(self) -> tuple[int | None, ...]:
        """The state code each token moves to, whatever the state before it
        (decoding under beta = 0 can emit anything anywhere).

        Filler maps to None: it keeps the state it is emitted in.
        """
        codes: list[int | None] = [None] * self.vocabulary.size
        for k, i in enumerate(self.article_ids):
            codes[i] = AFTER_ARTICLE + k
        for i in self.noun_ids:
            codes[i] = AFTER_NOUN
        for i in self.connective_ids:
            codes[i] = AFTER_CONNECTIVE
        codes[self.eos_id] = TERMINAL
        return tuple(codes)

    @cached_property
    def _penalty(self) -> np.ndarray:
        """The grammar lane per state code, one ``[codes, vocab]`` array:
        ``grammar_penalty`` on each inadmissible token, 0.0 on the admissible
        ones (filler is never admissible)."""
        lanes = np.full((AFTER_ARTICLE + len(self.articles), self.vocabulary.size),
                        self.grammar_penalty)
        lanes[START, self.article_ids] = 0.0
        lanes[AFTER_NOUN, self.connective_ids] = 0.0
        lanes[AFTER_NOUN, self.eos_id] = 0.0
        lanes[AFTER_CONNECTIVE, self.article_ids] = 0.0
        lanes[AFTER_ARTICLE:, self.noun_ids] = 0.0
        lanes.setflags(write=False)
        return lanes

    # -- grammar ------------------------------------------------------------

    def state_after(self, history: Sequence[TokenId]) -> int:
        """The grammar state code after ``history``, from START.

        Every non-filler token moves to the same state wherever it is
        emitted, and filler keeps the state, so the last non-filler token
        alone fixes the result: START if there is none.
        """
        table = self._code_after
        for token_id in reversed(history):
            code = table[token_id]
            if code is not None:
                return code
        return START


def decay_at(scene: SceneSpec, t: int) -> float:
    """Evidence decay magnitude at step t."""
    return scene.decay_depth * (1.0 - np.exp(-scene.decay_kappa * t))


def _noiseless_row(
    scene: SceneSpec, variant: NegativeVariantSpec | None, state: int, t: int
) -> np.ndarray:
    """The part of a row that depends only on (state, t): everything but the
    per-row permutation and jitter."""
    scores = scene.base.copy()
    if state >= AFTER_ARTICLE:  # a noun slot, opened by the article the code names
        d = decay_at(scene, t)
        scores[scene.gt_ids] -= d
        scores[scene.hal_ids] += d
        scores[scene.hal_ids] -= scene.article_grounding.get(
            scene.articles[state - AFTER_ARTICLE], 0.0)
    if variant is None or variant.kind in (NOISY_VISUAL, UNCONDITIONED):
        if variant is not None:
            shrink = 0.0 if variant.kind == UNCONDITIONED else 1.0 - variant.strength
            gt, hal = scores[scene.gt_ids], scores[scene.hal_ids]  # bit for bit what .mean() gives
            gt_mean, hal_mean = np.add.reduce(gt) / gt.size, np.add.reduce(hal) / hal.size
            mid = 0.5 * (gt_mean + hal_mean)
            scores[scene.gt_ids] += (mid + shrink * (gt_mean - mid)) - gt_mean
            scores[scene.hal_ids] += (mid + shrink * (hal_mean - mid)) - hal_mean
        # Subtracting 0.0 leaves admissible scores exactly as they are.
        scores -= scene._penalty[state]
    return scores


def scene_logit_rows(
    scene: SceneSpec,
    variant: NegativeVariantSpec | None,
    states: Sequence[int],
    t: int,
    rngs: Sequence[np.random.Generator],
    tapes: dict | None = None,
) -> np.ndarray:
    """Scene logits at step t for a batch of rows, as a fresh [rows, vocab] array.

    Row i is in the grammar state coded ``states[i]`` (as
    ``SceneSpec.state_after`` gives it) and draws from ``rngs[i]``.
    ``variant`` None gives the scene's own logits: base scores, decay,
    grounding, grammar penalty, jitter. A variant gives the degraded view
    used as a contrastive negative; the degradation happens before jitter,
    so positive and negative calls stay comparable draw for draw.

    The noiseless row is built once per distinct state; then each row gets
    its own draws, in this order: one permutation of its state's penalty
    lane (``perturbed_instruction`` only) and one normal vector, from the row's tape in
    ``tapes`` if given (not under ``perturbed_instruction``); none if ``noise_sigma == 0``.
    """
    if t < 0:
        raise ContractError(f"step index must be >= 0, got {t}")
    index: dict[int, int] = {}
    pick = [index.setdefault(state, len(index)) for state in states]
    unique = list(index)
    scores = np.array([_noiseless_row(scene, variant, s, t) for s in unique])
    if len(unique) < len(pick):
        scores = scores[pick]
    size = scores.shape[1]
    if variant is not None and variant.kind == PERTURBED_INSTRUCTION:
        # Scramble where the grammar penalty lands.
        penalty = np.take(scene._penalty, states, axis=0)
        permuted = np.array([lane[rng.permutation(size)] for lane, rng in zip(penalty, rngs)])
        scores -= (1.0 - variant.strength) * penalty + variant.strength * permuted
        tapes = None  # each step draws a permutation between the normals
    if scene.noise_sigma > 0 and tapes is None:
        for row, rng in zip(scores, rngs):
            row += rng.normal(0.0, scene.noise_sigma, size)
    elif scene.noise_sigma > 0:
        rows = []
        for rng in rngs:  # the row's next vector, from its tape or a new one
            row = next(tapes[rng], None) if rng in tapes else None
            if row is None:
                tapes[rng] = iter(rng.normal(0.0, scene.noise_sigma, (TAPE_STEPS, size)))
                row = next(tapes[rng])
            rows.append(row)
        scores += np.array(rows)
    return scores


class SyntheticProvider:
    """Logit provider backed by a scene: its own view, or with ``variant`` the
    degraded view a contrastive strategy uses as its negative.

    The grammar state of each row comes from the last non-filler token of
    its history (``SceneSpec.state_after``), so a call does not replay the
    history.

    ``logit_rows`` serves a batch of rows as one float64 ``[rows, vocab]`` array
    and ``logits`` is its one-row case, a ``[vocab]`` array. Every row draws
    its jitter (and permutation) from its own ``Generator``. Each instance counts
    the rows it was asked for (one per row per call): the per-step
    ``provider_calls`` telemetry and the bench call-count law are measured from it.
    Its jitter tapes (README "Providers"), keyed by each row's Generator, live as long
    as it: at most ``rows x TAPE_STEPS x vocab x 8`` bytes for the ``rows`` it has served.
    """

    def __init__(self, scene: SceneSpec, variant: NegativeVariantSpec | None = None):
        self.scene = scene
        self.variant = variant
        self.calls = 0
        self._tapes: dict = {}

    @property
    def vocab(self) -> Vocabulary:
        return self.scene.vocabulary

    @property
    def eos_id(self) -> int:
        return self.scene.eos_id

    def logit_rows(
        self,
        histories: Sequence[Sequence[TokenId]],
        t: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Scores [len(histories), vocab] for each history at step t, rng by rng."""
        self.calls += len(histories)
        states = [self.scene.state_after(history) for history in histories]
        return scene_logit_rows(self.scene, self.variant, states, t, rngs, self._tapes)

    def logits(
        self,
        history: Sequence[TokenId],
        t: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.logit_rows([history], t, [rng])[0]


# -- default scene and presets ----------------------------------------------

_ARTICLES = ("The", "In", "A", "a")
_GT = ("man", "dog", "car", "tree", "house", "boat", "horse", "bench")
_HAL = ("woman", "cat", "bus", "kite", "clock", "sofa", "sheep", "lamp")
_CONNECTIVES = ("and", "with", "beside", "near")
_EOS = "</s>"
_FILLER = (
    "is", "on", "of", "to", "it", "at", "by", "as",
    "sits", "stands", "looks", "runs",
    "big", "small", "red", "blue", "green", "old", "new",
    "two", "one", "very", "there",
)


def default_scene() -> SceneSpec:
    return SceneSpec(
        vocabulary=Vocabulary(_ARTICLES + _GT + _HAL + _CONNECTIVES + (_EOS,) + _FILLER),
        base_logits=((5.0, 3.3, 2.6, 2.2) + (3.0,) * len(_GT) + (1.0,) * len(_HAL)
                     + (2.0,) * len(_CONNECTIVES) + (0.0,) * (1 + len(_FILLER))),
        articles=_ARTICLES, gt_objects=_GT, hal_objects=_HAL,
        connectives=_CONNECTIVES, eos=_EOS,
        article_grounding={"The": 3.0, "In": 1.0, "A": 0.0, "a": 0.0},
        cognition_objects=_HAL[: len(_HAL) // 2],
    )


def preset(name: str) -> SceneSpec:
    """Named scene presets: "default", "no-decay", "strong-decay"."""
    if name == "default":
        return default_scene()
    if name == "no-decay":
        return replace(default_scene(), decay_depth=0.0)
    if name == "strong-decay":
        return replace(default_scene(), decay_depth=3.0, decay_kappa=0.08)
    raise ConfigError(f"unknown scene preset {name!r}; expected one of {PRESET_NAMES}")


# -- serialization ------------------------------------------------------------

# A scene file's keys are SceneSpec's fields, the vocabulary written as its tokens.
_SCENE_KEYS = {"tokens" if f.name == "vocabulary" else f.name: f for f in fields(SceneSpec)}


def scene_to_dict(scene: SceneSpec) -> dict:
    """Each field under its key, as JSON holds it: tuples as lists, mappings as dicts."""
    data = {key: getattr(scene, f.name) for key, f in _SCENE_KEYS.items()}
    data["tokens"] = data["tokens"].tokens
    return {key: list(value) if isinstance(value, tuple)
            else dict(value) if isinstance(value, Mapping) else value
            for key, value in data.items()}


def scene_from_dict(data: dict) -> SceneSpec:
    """The scene ``scene_to_dict`` wrote. A key that names no field is refused;
    each value is read by its field type's typed reader, which names the key,
    and a field left out takes SceneSpec's default."""
    # config imports this module
    from .config import read_float, read_float_list, read_keys, read_string, read_string_list

    def read_grounding(value, key):
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: {value!r} is not an object")
        return {article: read_float(grounding, key) for article, grounding in value.items()}

    read = {
        "Vocabulary": lambda value, key: Vocabulary(read_string_list(value, key)),
        "tuple[float, ...]": read_float_list,
        # An empty array is read as such; SceneSpec refuses it where a scene needs one.
        "tuple[str, ...]": read_string_list,
        "str": read_string,
        "float": read_float,
        "Mapping[str, float]": read_grounding,
    }
    read_keys(data, _SCENE_KEYS, "scene", required=[
        key for key, f in _SCENE_KEYS.items()
        if f.default is MISSING and f.default_factory is MISSING
    ])
    try:
        return SceneSpec(**{f.name: read[f.type](data[key], key)
                            for key, f in _SCENE_KEYS.items() if key in data})
    except ContractError as exc:  # duplicate tokens, or none
        raise ConfigError(f"tokens: {exc}") from exc
