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
plausibility constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import LogitVector, TokenId, Vocabulary
from .errors import ConfigError, ContractError

START = "start"
AFTER_ARTICLE = "after_article"
AFTER_NOUN = "after_noun"
AFTER_CONNECTIVE = "after_connective"
TERMINAL = "terminal"

NOISY_VISUAL = "noisy_visual"
PERTURBED_INSTRUCTION = "perturbed_instruction"
UNCONDITIONED = "unconditioned"
NEGATIVE_KINDS = (NOISY_VISUAL, PERTURBED_INSTRUCTION, UNCONDITIONED)

PRESET_NAMES = ("default", "no-decay", "strong-decay")


@dataclass(frozen=True)
class GrammarState:
    """Where the grammar is, plus which article opened the current noun slot."""

    state: str = START
    last_article: TokenId | None = None

    def __post_init__(self):
        if self.state not in (START, AFTER_ARTICLE, AFTER_NOUN, AFTER_CONNECTIVE, TERMINAL):
            raise ContractError(f"unknown grammar state {self.state!r}")


START_STATE = GrammarState()


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
    """Full description of one synthetic scene.

    ``base_logits`` is per token, aligned with ``vocabulary``. The named
    groups must be disjoint subsets of the vocabulary; whatever is left over
    is filler and is never grammar-admissible. ``article_grounding`` maps an
    article token to how strongly it suppresses hallucination-noun logits in
    the noun slot it opens.
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
        object.__setattr__(self, "article_grounding", dict(self.article_grounding))
        if len(self.base_logits) != self.vocabulary.size:
            raise ConfigError(
                f"base_logits has {len(self.base_logits)} entries for a "
                f"{self.vocabulary.size}-token vocabulary"
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
        if not self.articles or not self.gt_objects or not self.hal_objects:
            raise ConfigError("scene needs at least one article, gt object, and hal object")
        if not self.connectives:
            raise ConfigError("scene needs at least one connective")
        for name, value, ok, rule in (
            ("decay_kappa", self.decay_kappa, self.decay_kappa > 0, "> 0"),
            ("decay_depth", self.decay_depth, self.decay_depth >= 0, ">= 0"),
            ("noise_sigma", self.noise_sigma, self.noise_sigma >= 0, ">= 0"),
            ("grammar_penalty", self.grammar_penalty, self.grammar_penalty > 0, "> 0"),
        ):
            if not (ok and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and {rule}, got {value!r}")
        for tok, logit in zip(self.vocabulary.tokens, self.base_logits):
            if not math.isfinite(logit):
                raise ConfigError(f"base logit of {tok!r} must be finite, got {logit!r}")
        for tok, grounding in self.article_grounding.items():
            if tok not in self.articles:
                raise ConfigError(f"article_grounding key {tok!r} is not an article")
            if not math.isfinite(grounding):
                raise ConfigError(
                    f"article_grounding of {tok!r} must be finite, got {grounding!r}"
                )
        for tok in self.cognition_objects:
            if tok not in self.hal_objects:
                raise ConfigError(
                    f"cognition object {tok!r} must be one of the hal objects"
                )
        head = [float(self.base_logits[self.vocabulary.id_of(a)]) for a in self.articles]
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
    def _class_by_id(self) -> tuple[str, ...]:
        classes = ["filler"] * self.vocabulary.size
        for i in self.article_ids:
            classes[i] = "article"
        for i in self.gt_ids:
            classes[i] = "gt"
        for i in self.hal_ids:
            classes[i] = "hal"
        for i in self.connective_ids:
            classes[i] = "connective"
        classes[self.eos_id] = "eos"
        return tuple(classes)

    def class_of(self, token_id: TokenId) -> str:
        return self._class_by_id[token_id]

    @cached_property
    def _admissible(self) -> dict[str, np.ndarray]:
        n = self.vocabulary.size
        masks = {}
        for state, ids in (
            (START, self.article_ids),
            (AFTER_ARTICLE, self.noun_ids),
            (AFTER_NOUN, np.append(self.connective_ids, self.eos_id)),
            (AFTER_CONNECTIVE, self.article_ids),
            (TERMINAL, np.asarray([], dtype=int)),
        ):
            m = np.zeros(n, dtype=bool)
            m[ids] = True
            m.setflags(write=False)
            masks[state] = m
        return masks

    def admissible(self, state: GrammarState) -> np.ndarray:
        """Boolean lane of grammar-admissible tokens for this state."""
        return self._admissible[state.state]

    @cached_property
    def _penalty(self) -> dict[str, np.ndarray]:
        """Per state: ``grammar_penalty`` on inadmissible tokens, 0.0 elsewhere."""
        lanes = {}
        for state, admissible in self._admissible.items():
            lane = np.where(admissible, 0.0, self.grammar_penalty)
            lane.setflags(write=False)
            lanes[state] = lane
        return lanes

    @cached_property
    def grounding_by_id(self) -> dict[int, float]:
        return {
            self.vocabulary.id_of(tok): float(g)
            for tok, g in self.article_grounding.items()
        }

    # -- grammar ------------------------------------------------------------

    def transition(self, state: GrammarState, token_id: TokenId) -> GrammarState:
        """Next grammar state after emitting ``token_id``.

        Defined for every token (decoding under beta = 0 can emit anything
        anywhere): the token's class alone determines the move, and filler
        leaves the state unchanged.
        """
        cls = self.class_of(token_id)
        if cls == "article":
            return GrammarState(AFTER_ARTICLE, last_article=token_id)
        if cls in ("gt", "hal"):
            return GrammarState(AFTER_NOUN)
        if cls == "connective":
            return GrammarState(AFTER_CONNECTIVE)
        if cls == "eos":
            return GrammarState(TERMINAL)
        return state

    @cached_property
    def _state_by_id(self) -> tuple[GrammarState | None, ...]:
        """The state each non-filler token moves to, whatever the state before it.

        Filler maps to None: it keeps the state it is emitted in.
        """
        return tuple(
            None if cls == "filler" else self.transition(START_STATE, token_id)
            for token_id, cls in enumerate(self._class_by_id)
        )

    def state_after(self, history: Sequence[TokenId]) -> GrammarState:
        """The fold of ``transition`` over history, from START.

        Every non-filler token moves to the same state wherever it is
        emitted, and filler keeps the state, so the last non-filler token
        alone fixes the result: START if there is none.
        """
        table = self._state_by_id
        for token_id in reversed(history):
            state = table[token_id]
            if state is not None:
                return state
        return START_STATE


def decay_at(scene: SceneSpec, t: int) -> float:
    """Evidence decay magnitude at step t."""
    return scene.decay_depth * (1.0 - np.exp(-scene.decay_kappa * t))


def _scene_scores(scene: SceneSpec, state: GrammarState, t: int) -> np.ndarray:
    """Unperturbed per-token scores before admissibility and noise."""
    scores = scene.base.copy()
    if state.state == AFTER_ARTICLE:
        d = decay_at(scene, t)
        scores[scene.gt_ids] -= d
        scores[scene.hal_ids] += d
        if state.last_article is not None:
            grounding = scene.grounding_by_id.get(int(state.last_article), 0.0)
            scores[scene.hal_ids] -= grounding
    return scores


def _noiseless_row(
    scene: SceneSpec, variant: NegativeVariantSpec | None, state: GrammarState, t: int
) -> np.ndarray:
    """The part of a row that depends only on (state, t): everything but the
    per-row permutation and jitter."""
    scores = _scene_scores(scene, state, t)
    if variant is None or variant.kind in (NOISY_VISUAL, UNCONDITIONED):
        if variant is not None:
            shrink = 0.0 if variant.kind == UNCONDITIONED else 1.0 - variant.strength
            gt_mean = scores[scene.gt_ids].mean()
            hal_mean = scores[scene.hal_ids].mean()
            mid = 0.5 * (gt_mean + hal_mean)
            scores[scene.gt_ids] += (mid + shrink * (gt_mean - mid)) - gt_mean
            scores[scene.hal_ids] += (mid + shrink * (hal_mean - mid)) - hal_mean
        # Subtracting 0.0 leaves admissible scores exactly as they are.
        scores -= scene._penalty[state.state]
    return scores


def scene_logit_rows(
    scene: SceneSpec,
    variant: NegativeVariantSpec | None,
    states: Sequence[GrammarState],
    t: int,
    rngs: Sequence[np.random.Generator | None],
) -> np.ndarray:
    """Scene logits at step t for a batch of rows, as a fresh [rows, vocab] array.

    Row i is in grammar state ``states[i]`` and draws from ``rngs[i]``.
    ``variant`` None gives the scene's own logits: base scores, decay,
    grounding, grammar penalty, jitter. A variant gives the degraded view
    used as a contrastive negative; the degradation happens before jitter,
    so positive and negative calls stay comparable draw for draw.

    The noiseless row is built once per distinct state; then each row gets
    its own draws, in this order: one permutation (``perturbed_instruction``
    only) and one normal vector. A row whose rng is None draws nothing: no
    jitter, and ``perturbed_instruction`` reverses the penalty lane instead
    of permuting it. With ``noise_sigma == 0`` no normal vector is drawn.
    """
    if t < 0:
        raise ContractError(f"step index must be >= 0, got {t}")
    index: dict[GrammarState, int] = {}
    pick = [index.setdefault(state, len(index)) for state in states]
    unique = list(index)
    scores = np.array([_noiseless_row(scene, variant, s, t) for s in unique])
    if len(unique) < len(pick):
        scores = scores[pick]
    size = scores.shape[1]
    if variant is not None and variant.kind == PERTURBED_INSTRUCTION:
        # Scramble where the grammar penalty lands.
        offsets = np.array(
            [np.where(scene.admissible(s), 0.0, -scene.grammar_penalty) for s in unique]
        )
        if len(unique) < len(pick):
            offsets = offsets[pick]
        permuted = np.array([
            row[rng.permutation(size)] if rng is not None else row[::-1]
            for row, rng in zip(offsets, rngs)
        ])
        scores += (1.0 - variant.strength) * offsets + variant.strength * permuted
    if scene.noise_sigma > 0:
        for row, rng in zip(scores, rngs):
            if rng is not None:
                row += rng.normal(0.0, scene.noise_sigma, size)
    return scores


class SyntheticProvider:
    """Logit provider backed by a scene.

    The grammar state of each row comes from the last non-filler token of
    its history (``SceneSpec.state_after``), so a call does not replay the
    history.

    ``logit_rows`` serves a batch of rows in one call and ``logits`` is its
    one-row case. Each instance counts the rows it was asked for (one per
    row per call), which is what the per-step ``provider_calls`` telemetry
    and the bench call-count law are measured from.
    """

    variant: NegativeVariantSpec | None = None

    def __init__(self, scene: SceneSpec):
        self.scene = scene
        self.calls = 0

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
        rngs: Sequence[np.random.Generator | None],
    ) -> np.ndarray:
        """Scores [len(histories), vocab] for each history at step t, rng by rng."""
        self.calls += len(histories)
        states = [self.scene.state_after(history) for history in histories]
        return scene_logit_rows(self.scene, self.variant, states, t, rngs)

    def logits(
        self,
        history: Sequence[TokenId],
        t: int,
        rng: np.random.Generator | None = None,
    ) -> LogitVector:
        return LogitVector.of(self.logit_rows([history], t, [rng])[0])


class NegativeProvider(SyntheticProvider):
    """Provider serving the degraded-evidence view used by contrastive decoding."""

    def __init__(self, scene: SceneSpec, variant: NegativeVariantSpec):
        super().__init__(scene)
        self.variant = variant


# -- default scene and presets ----------------------------------------------

_ARTICLES = ("The", "In", "A", "a")
_ARTICLE_LOGITS = (5.0, 3.3, 2.6, 2.2)
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

GT_BASE = 3.0
HAL_BASE = 1.0
CONNECTIVE_BASE = 2.0
EOS_BASE = 0.0
FILLER_BASE = 0.0


def default_scene() -> SceneSpec:
    tokens = _ARTICLES + _GT + _HAL + _CONNECTIVES + (_EOS,) + _FILLER
    vocab = Vocabulary(tokens)
    base = np.zeros(vocab.size)
    for tok, logit in zip(_ARTICLES, _ARTICLE_LOGITS):
        base[vocab.id_of(tok)] = logit
    for tok in _GT:
        base[vocab.id_of(tok)] = GT_BASE
    for tok in _HAL:
        base[vocab.id_of(tok)] = HAL_BASE
    for tok in _CONNECTIVES:
        base[vocab.id_of(tok)] = CONNECTIVE_BASE
    base[vocab.id_of(_EOS)] = EOS_BASE
    for tok in _FILLER:
        base[vocab.id_of(tok)] = FILLER_BASE
    return SceneSpec(
        vocabulary=vocab,
        base_logits=tuple(float(x) for x in base),
        articles=_ARTICLES,
        gt_objects=_GT,
        hal_objects=_HAL,
        connectives=_CONNECTIVES,
        eos=_EOS,
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

def scene_to_dict(scene: SceneSpec) -> dict:
    return {
        "tokens": list(scene.vocabulary.tokens),
        "base_logits": [float(x) for x in scene.base_logits],
        "articles": list(scene.articles),
        "gt_objects": list(scene.gt_objects),
        "hal_objects": list(scene.hal_objects),
        "connectives": list(scene.connectives),
        "eos": scene.eos,
        "decay_kappa": scene.decay_kappa,
        "decay_depth": scene.decay_depth,
        "noise_sigma": scene.noise_sigma,
        "grammar_penalty": scene.grammar_penalty,
        "article_grounding": dict(scene.article_grounding),
        "cognition_objects": list(scene.cognition_objects),
    }


def scene_from_dict(data: dict) -> SceneSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"scene must be an object, got {type(data).__name__}")
    required = ("tokens", "base_logits", "articles", "gt_objects",
                "hal_objects", "connectives", "eos")
    for key in required:
        if key not in data:
            raise ConfigError(f"scene is missing required field {key!r}")
    try:
        return SceneSpec(
            vocabulary=Vocabulary(tuple(data["tokens"])),
            base_logits=tuple(float(x) for x in data["base_logits"]),
            articles=tuple(data["articles"]),
            gt_objects=tuple(data["gt_objects"]),
            hal_objects=tuple(data["hal_objects"]),
            connectives=tuple(data["connectives"]),
            eos=str(data["eos"]),
            decay_kappa=float(data.get("decay_kappa", 0.05)),
            decay_depth=float(data.get("decay_depth", 2.0)),
            noise_sigma=float(data.get("noise_sigma", 0.3)),
            grammar_penalty=float(data.get("grammar_penalty", 12.0)),
            article_grounding=dict(data.get("article_grounding", {})),
            cognition_objects=tuple(data.get("cognition_objects", ())),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scene: {exc}") from exc
