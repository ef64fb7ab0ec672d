"""Decoding strategies over an abstract logit provider.

A provider is anything with ``vocab``, ``eos_id``, a ``calls`` counter, and
``logits(history, t, rng) -> LogitVector``. Three decoding families are
implemented on top of it:

* plain ancestral sampling / greedy, optionally with the adaptive candidate
  constraint (one provider call per step);
* contrastive pairs: ``(1 + alpha) * l_pos - alpha * l_neg`` against a
  degraded second provider (two provider calls per step);
* first-logit boost: cache the raw step-0 logits once, then add them back
  into every later step scaled by a weight schedule (one provider call per
  step, plus vector math).

All three apply the candidate constraint the same way: the keep-set is
computed from the *original* (unadjusted) distribution and intersected into
the adjusted logits before the final softmax. The EOS token is re-allowed
after truncation so every run can terminate.

Each run owns its randomness: the seed is split into three independent
streams (sampling, positive-provider jitter, negative-provider jitter), so
two strategies given the same seed see identical positive-provider noise
regardless of how many extra calls either of them makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import (
    GenerationRecord,
    LogitVector,
    ProbDist,
    StepTrace,
    TokenId,
    Vocabulary,
    argmax,
    entropy,
    sample,
    softmax,
)
from .errors import ConfigError, ContractError, ExclusionError
from .plausibility import CandidateMask, apply_mask, candidate_set
from .simulator import NEGATIVE_KINDS, NOISY_VISUAL, PERTURBED_INSTRUCTION, UNCONDITIONED
from .weighting import WeightSchedule, weight_at

BASELINE = "baseline"
GREEDY = "greedy"
VCD = "vcd"
ICD = "icd"
M3ID = "m3id"
FLB = "flb"
STRATEGY_KINDS = (BASELINE, GREEDY, VCD, ICD, M3ID, FLB)
CONTRASTIVE_KINDS = (VCD, ICD, M3ID)

L0_FULL = "full"
L0_NOUNS_ONLY = "nouns_only"
L0_THE_ONLY = "the_only"
L0_MASKS = (L0_FULL, L0_NOUNS_ONLY, L0_THE_ONLY)

SAMPLE = "sample"
GREEDY_MODE = "greedy"

_NEGATIVE_KIND_FOR = {
    VCD: NOISY_VISUAL,
    ICD: PERTURBED_INSTRUCTION,
    M3ID: UNCONDITIONED,
}
_DEFAULT_STRENGTH = {VCD: 0.7, ICD: 1.0, M3ID: 1.0}


class LogitProvider(Protocol):
    """Structural interface every decode loop consumes."""

    vocab: Vocabulary
    eos_id: int
    calls: int

    def logits(
        self,
        history: Sequence[TokenId],
        t: int,
        rng: np.random.Generator | None = None,
    ) -> LogitVector: ...


@dataclass(frozen=True)
class FirstLogitCache:
    """The raw step-0 logits, captured before any masking or adjustment."""

    logits: LogitVector


@dataclass(frozen=True)
class ContrastiveConfig:
    """Settings for one contrastive pairing.

    ``strength`` parameterizes the negative provider's degradation; None
    defers to the per-kind default (0.7 for the noisy-visual negative, 1.0
    otherwise).
    """

    alpha: float = 1.0
    negative_kind: str = NOISY_VISUAL
    beta: float = 0.1
    strength: float | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.negative_kind not in NEGATIVE_KINDS:
            raise ConfigError(
                f"unknown negative kind {self.negative_kind!r}; "
                f"expected one of {NEGATIVE_KINDS}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta!r}")
        if self.strength is not None and not 0.0 <= self.strength <= 1.0:
            raise ConfigError(f"strength must lie in [0, 1], got {self.strength!r}")


@dataclass(frozen=True)
class FlbConfig:
    """Settings for the first-logit boost: schedule, constraint, ablation mask."""

    schedule: WeightSchedule = field(default_factory=WeightSchedule)
    beta: float = 0.1
    l0_mask: str = L0_FULL

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta!r}")
        if self.l0_mask not in L0_MASKS:
            raise ConfigError(
                f"unknown l0 mask {self.l0_mask!r}; expected one of {L0_MASKS}"
            )


# -- pure per-step operations --------------------------------------------------


def contrastive_adjust(l_pos: LogitVector, l_neg: LogitVector, alpha: float) -> LogitVector:
    """(1 + alpha) * positive - alpha * negative, masks unioned."""
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha!r}")
    if l_pos.size != l_neg.size:
        raise ContractError(
            f"positive size {l_pos.size} does not match negative size {l_neg.size}"
        )
    scores = (1.0 + alpha) * l_pos.scores - alpha * l_neg.scores
    return LogitVector(scores, l_pos.mask | l_neg.mask)


def capture_first_logit(
    provider: LogitProvider, rng: np.random.Generator | None = None
) -> FirstLogitCache:
    """One provider call with empty history; the result is cached for the run."""
    return FirstLogitCache(provider.logits((), 0, rng))


def mask_l0(
    cache: FirstLogitCache,
    mode: str,
    vocab: Vocabulary,
    noun_ids: Sequence[TokenId] | None = None,
) -> LogitVector:
    """Turn the cached first logits into a per-token additive contribution.

    Entries outside the selected mode contribute exactly 0 (they are zeroed,
    not given a raw zero logit): ``nouns_only`` keeps noun entries,
    ``the_only`` keeps the single "The" entry, ``full`` keeps everything.
    Entries excluded in the cache itself also contribute 0.
    """
    if mode not in L0_MASKS:
        raise ConfigError(f"unknown l0 mask {mode!r}; expected one of {L0_MASKS}")
    contrib = np.where(cache.logits.mask, 0.0, cache.logits.scores)
    if mode == L0_NOUNS_ONLY:
        if noun_ids is None or len(noun_ids) == 0:
            raise ConfigError("nouns_only mask needs a nonempty noun id list")
        keep = np.zeros(contrib.shape[0], dtype=bool)
        keep[np.asarray(noun_ids)] = True
        contrib = np.where(keep, contrib, 0.0)
    elif mode == L0_THE_ONLY:
        if "The" not in vocab:
            raise ConfigError('the_only mask needs a "The" token in the vocabulary')
        keep = np.zeros(contrib.shape[0], dtype=bool)
        keep[vocab.id_of("The")] = True
        contrib = np.where(keep, contrib, 0.0)
    # contrib is a fresh array, finite everywhere: masked entries were zeroed.
    return LogitVector._trusted(contrib, np.zeros(contrib.shape[0], dtype=bool))


def boost(l_t: LogitVector, l0_contrib: LogitVector, w_t: float) -> LogitVector:
    """Add the weighted first-logit contribution onto the current scores."""
    if l_t.size != l0_contrib.size:
        raise ContractError(
            f"step size {l_t.size} does not match contribution size {l0_contrib.size}"
        )
    return LogitVector(l_t.scores + w_t * l0_contrib.scores, l_t.mask)


def _constrain(
    adjusted: LogitVector,
    original: ProbDist,
    beta: float,
    eos_id: TokenId | None,
) -> LogitVector:
    """Candidate mask from the original distribution, EOS re-allowed."""
    cmask = candidate_set(original, beta)
    if eos_id is not None:
        cmask = cmask.with_allowed(eos_id)
    return apply_mask(adjusted, cmask)


def _constrain_fast(
    scores: np.ndarray,
    base_mask: np.ndarray,
    raw: LogitVector,
    temperature: float,
    beta: float,
    eos_id: TokenId | None,
) -> LogitVector:
    """Single-pass equivalent of softmax + candidate_set + with_allowed + apply_mask.

    The keep-set comes from the distribution of ``raw`` (the unadjusted
    logits) and is applied to ``scores`` under ``base_mask``. Used by the
    decode loops to build one vector per step without the intermediate
    containers or the full probability vector. It repeats the arithmetic of
    masked_probs and of the candidate threshold, so it agrees with the
    composed public operations bit for bit: the largest probability is
    exactly ``1 / total``, because the shifted exponentials hold an exact
    1.0 at the maximum, and masked entries have probability 0.
    """
    mask = raw.mask
    n_masked = np.count_nonzero(mask)
    size = mask.shape[0]
    if n_masked == size:
        raise ExclusionError("softmax over a fully masked vector")
    if n_masked:
        live = ~mask
        scaled = raw.scores[live]
    else:
        scaled = raw.scores
    if temperature != 1.0:
        scaled = scaled / temperature
    exps = np.exp(scaled - scaled[scaled.argmax()])
    total = exps.sum()
    cut = beta * (1.0 / total)
    if n_masked:
        dropped = np.full(size, 0.0 < cut)
        dropped[live] = exps / total < cut
    else:
        dropped = exps / total < cut
    if eos_id is not None:
        dropped[eos_id] = False
    combined = dropped if base_mask is mask and not n_masked else base_mask | dropped
    # The most likely token has probability exactly 1 / total, so with
    # beta <= 1 it survives the cut; only a wider base mask or beta > 1 can
    # exclude every token.
    if (base_mask is not mask or beta > 1.0) and np.count_nonzero(combined) == size:
        raise ExclusionError("candidate mask excluded every unmasked token")
    # scores is either a provider vector's (already immutable) array or a
    # fresh arithmetic result; combined is always fresh. Both satisfy the
    # _trusted contract: finite where unmasked, no writable outside alias.
    return LogitVector._trusted(scores, combined)


def flb_step(
    l_t: LogitVector,
    l0_contrib: LogitVector,
    w_t: float,
    beta: float,
    *,
    temperature: float = 1.0,
    eos_id: TokenId | None = None,
) -> ProbDist:
    """One boosted, constrained step: softmax(constrain(l_t + w_t * l0)).

    The candidate set is computed from the *un-boosted* distribution and then
    applied to the boosted logits.
    """
    original = softmax(l_t, temperature)
    adjusted = _constrain(boost(l_t, l0_contrib, w_t), original, beta, eos_id)
    return softmax(adjusted, temperature)


# -- decode loops ---------------------------------------------------------------


def _spawn_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    streams = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(s) for s in streams)


def _check_run_args(max_steps: int, mode: str, temperature: float):
    if max_steps < 1:
        raise ConfigError(f"max_steps must be >= 1, got {max_steps}")
    if mode not in (SAMPLE, GREEDY_MODE):
        raise ConfigError(f"mode must be 'sample' or 'greedy', got {mode!r}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature!r}")


def _choose(
    adjusted: LogitVector,
    dist: ProbDist,
    mode: str,
    rng: np.random.Generator,
) -> TokenId:
    if mode == GREEDY_MODE:
        return argmax(adjusted)
    return sample(dist, rng)


def _run_loop(
    provider: LogitProvider,
    step_fn: Callable[[int, Sequence[TokenId], np.random.Generator], tuple[LogitVector, LogitVector]],
    *,
    prompt_id: str,
    label: str,
    max_steps: int,
    seed: int,
    mode: str,
    temperature: float,
    pos_rng: np.random.Generator,
    sample_rng: np.random.Generator,
    extra_providers: tuple[LogitProvider, ...] = (),
) -> GenerationRecord:
    """Shared decode loop: step_fn maps (t, history, rng) -> (raw, adjusted)."""
    providers = (provider, *extra_providers)
    history: list[TokenId] = []
    steps: list[StepTrace] = []
    for t in range(max_steps):
        calls_before = sum(p.calls for p in providers)
        raw, adjusted = step_fn(t, tuple(history), pos_rng)
        dist = softmax(adjusted, temperature)
        chosen = _choose(adjusted, dist, mode, sample_rng)
        steps.append(
            StepTrace(
                step_index=t,
                raw_logits=raw,
                adjusted_logits=adjusted,
                dist=dist,
                chosen=chosen,
                entropy_nats=entropy(dist),
                provider_calls=sum(p.calls for p in providers) - calls_before,
            )
        )
        history.append(chosen)
        if chosen == provider.eos_id:
            break
    return GenerationRecord(
        prompt_id=prompt_id,
        strategy=label,
        seed=seed,
        steps=tuple(steps),
        text=provider.vocab.render(history),
    )


def decode_baseline(
    provider: LogitProvider,
    *,
    prompt_id: str = "scene",
    max_steps: int = 60,
    seed: int = 0,
    mode: str = SAMPLE,
    temperature: float = 1.0,
    beta: float | None = None,
    label: str | None = None,
) -> GenerationRecord:
    """Plain ancestral sampling (or greedy), one provider call per step.

    With ``beta`` set, the candidate constraint is applied to the raw logits
    before sampling; with ``beta=None`` this is unconstrained decoding.
    """
    _check_run_args(max_steps, mode, temperature)
    sample_rng, pos_rng, _ = _spawn_rngs(seed)
    if label is None:
        base = GREEDY_MODE if mode == GREEDY_MODE else BASELINE
        label = base if beta is None else f"{base}(beta={beta:g})"

    def step(t, history, rng):
        raw = provider.logits(history, t, rng)
        if beta is None:
            return raw, raw
        return raw, _constrain_fast(
            raw.scores, raw.mask, raw, temperature, beta, provider.eos_id
        )

    return _run_loop(
        provider, step,
        prompt_id=prompt_id, label=label, max_steps=max_steps, seed=seed,
        mode=mode, temperature=temperature, pos_rng=pos_rng, sample_rng=sample_rng,
    )


def decode_contrastive(
    provider: LogitProvider,
    negative_provider: LogitProvider,
    cfg: ContrastiveConfig,
    *,
    prompt_id: str = "scene",
    max_steps: int = 60,
    seed: int = 0,
    mode: str = SAMPLE,
    temperature: float = 1.0,
    label: str | None = None,
) -> GenerationRecord:
    """Contrastive decoding against a degraded provider, two calls per step.

    The candidate constraint comes from the positive distribution alone and
    is applied to the combined logits.
    """
    _check_run_args(max_steps, mode, temperature)
    sample_rng, pos_rng, neg_rng = _spawn_rngs(seed)
    if label is None:
        label = f"contrastive({cfg.negative_kind},alpha={cfg.alpha:g},beta={cfg.beta:g})"

    def step(t, history, rng):
        raw = provider.logits(history, t, rng)
        neg = negative_provider.logits(history, t, neg_rng)
        combined = (1.0 + cfg.alpha) * raw.scores - cfg.alpha * neg.scores
        return raw, _constrain_fast(
            combined, raw.mask | neg.mask, raw, temperature, cfg.beta, provider.eos_id
        )

    return _run_loop(
        provider, step,
        prompt_id=prompt_id, label=label, max_steps=max_steps, seed=seed,
        mode=mode, temperature=temperature, pos_rng=pos_rng, sample_rng=sample_rng,
        extra_providers=(negative_provider,),
    )


def decode_flb(
    provider: LogitProvider,
    cfg: FlbConfig,
    *,
    prompt_id: str = "scene",
    max_steps: int = 60,
    seed: int = 0,
    mode: str = SAMPLE,
    temperature: float = 1.0,
    noun_ids: Sequence[TokenId] | None = None,
    label: str | None = None,
) -> GenerationRecord:
    """First-logit boosted decoding, one provider call per step.

    Step 0 captures the raw logits and samples from their constrained
    softmax unboosted (under the increasing schedule w_0 = 0 anyway; the
    other schedules follow the same step-0 rule, so a token never boosts
    itself). Steps t >= 1 add ``w_t`` times the masked step-0 contribution.
    """
    _check_run_args(max_steps, mode, temperature)
    sample_rng, pos_rng, _ = _spawn_rngs(seed)
    if label is None:
        sched = cfg.schedule
        label = (
            f"flb({sched.kind},gamma={sched.gamma:g},lam={sched.lam:g},"
            f"beta={cfg.beta:g},mask={cfg.l0_mask})"
        )

    eos_id = provider.eos_id
    # The masked step-0 logits; captured inside step 0 so its provider call
    # lands in that step's trace.
    contrib = None

    def step(t, history, rng):
        nonlocal contrib
        if t == 0:
            cache = capture_first_logit(provider, rng)
            contrib = mask_l0(cache, cfg.l0_mask, provider.vocab, noun_ids).scores
            raw = cache.logits
            boosted = raw.scores
        else:
            # The weighted contribution does not depend on this step's logits.
            lift = weight_at(cfg.schedule, t) * contrib
            raw = provider.logits(history, t, rng)
            boosted = raw.scores + lift
        return raw, _constrain_fast(boosted, raw.mask, raw, temperature, cfg.beta, eos_id)

    return _run_loop(
        provider, step,
        prompt_id=prompt_id, label=label, max_steps=max_steps, seed=seed,
        mode=mode, temperature=temperature, pos_rng=pos_rng, sample_rng=sample_rng,
    )


# -- strategy descriptors --------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """A named, fully resolved decoding configuration.

    Exactly one variant payload is active: ``contrastive`` for vcd/icd/m3id,
    ``flb`` for flb, the optional ``beta`` for baseline/greedy.
    """

    kind: str
    beta: float | None = None
    contrastive: ContrastiveConfig | None = None
    flb: FlbConfig | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(
                f"unknown strategy {self.kind!r}; expected one of {STRATEGY_KINDS}"
            )
        if self.kind in CONTRASTIVE_KINDS:
            if self.contrastive is None:
                object.__setattr__(
                    self, "contrastive",
                    ContrastiveConfig(negative_kind=_NEGATIVE_KIND_FOR[self.kind]),
                )
            if self.flb is not None or self.beta is not None:
                raise ConfigError(f"{self.kind} takes only contrastive settings")
            if self.contrastive.negative_kind != _NEGATIVE_KIND_FOR[self.kind]:
                raise ConfigError(
                    f"{self.kind} requires the {_NEGATIVE_KIND_FOR[self.kind]} negative, "
                    f"got {self.contrastive.negative_kind!r}"
                )
        elif self.kind == FLB:
            if self.flb is None:
                object.__setattr__(self, "flb", FlbConfig())
            if self.contrastive is not None or self.beta is not None:
                raise ConfigError("flb takes only flb settings")
        else:
            if self.contrastive is not None or self.flb is not None:
                raise ConfigError(f"{self.kind} takes no contrastive or flb settings")
            if self.beta is not None and not 0.0 <= self.beta <= 1.0:
                raise ConfigError(f"beta must lie in [0, 1], got {self.beta!r}")

    @property
    def mode(self) -> str:
        return GREEDY_MODE if self.kind == GREEDY else SAMPLE

    def resolved_strength(self) -> float:
        if self.contrastive is None:
            raise ConfigError(f"{self.kind} has no negative provider")
        if self.contrastive.strength is not None:
            return self.contrastive.strength
        return _DEFAULT_STRENGTH[self.kind]

    def label(self) -> str:
        if self.kind in (BASELINE, GREEDY):
            if self.beta is None:
                return self.kind
            return f"{self.kind}(beta={self.beta:g})"
        if self.kind in CONTRASTIVE_KINDS:
            cfg = self.contrastive
            return (
                f"{self.kind}(alpha={cfg.alpha:g},beta={cfg.beta:g},"
                f"strength={self.resolved_strength():g})"
            )
        cfg = self.flb
        return (
            f"flb({cfg.schedule.kind},gamma={cfg.schedule.gamma:g},"
            f"lam={cfg.schedule.lam:g},beta={cfg.beta:g},mask={cfg.l0_mask})"
        )


_SCHEDULE_ALIASES = {
    "increasing": "increasing", "inc": "increasing",
    "decreasing": "decreasing", "dec": "decreasing",
    "constant": "constant", "const": "constant",
}
_MASK_ALIASES = {
    "full": L0_FULL,
    "nouns_only": L0_NOUNS_ONLY, "nouns": L0_NOUNS_ONLY,
    "the_only": L0_THE_ONLY, "the": L0_THE_ONLY,
}


def _parse_float(kind: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{kind}: {key} expects a number, got {value!r}") from None


def parse_strategy(text: str) -> Strategy:
    """Parse a descriptor like ``flb:gamma=0.3,lambda=0.05,beta=0.1,mask=full``.

    The part before the colon is the strategy kind; the rest is a
    comma-separated key=value list. Recognized keys depend on the kind:
    ``beta`` for baseline/greedy; ``alpha``, ``beta``, ``strength`` for the
    contrastive kinds; ``gamma``, ``lambda`` (or ``lam``), ``beta``,
    ``schedule``, ``mask`` for flb. A key given twice, or with an empty
    value, is a ConfigError, never a silent default.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in STRATEGY_KINDS:
        raise ConfigError(
            f"unknown strategy {kind!r}; expected one of {STRATEGY_KINDS}"
        )
    params: dict[str, str] = {}
    if rest.strip():
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ConfigError(f"malformed strategy parameter {part!r} in {text!r}")
            key, value = key.strip().lower(), value.strip()
            if not value:
                raise ConfigError(f"{kind}: {key} has an empty value in {text!r}")
            if kind == FLB and key == "lam":
                key = "lambda"
            if key in params:
                raise ConfigError(f"{kind}: {key} is given more than once in {text!r}")
            params[key] = value

    def take_float(key: str, default: float | None) -> float | None:
        if key not in params:
            return default
        return _parse_float(kind, key, params.pop(key))

    if kind in (BASELINE, GREEDY):
        beta = take_float("beta", None)
        strategy = Strategy(kind=kind, beta=beta)
    elif kind in CONTRASTIVE_KINDS:
        alpha = take_float("alpha", 1.0)
        beta = take_float("beta", 0.1)
        strength = take_float("strength", None)
        strategy = Strategy(
            kind=kind,
            contrastive=ContrastiveConfig(
                alpha=alpha, negative_kind=_NEGATIVE_KIND_FOR[kind],
                beta=beta, strength=strength,
            ),
        )
    else:
        gamma = take_float("gamma", 0.3)
        lam = take_float("lambda", 0.05)
        beta = take_float("beta", 0.1)
        sched_name = params.pop("schedule", "increasing").lower()
        if sched_name not in _SCHEDULE_ALIASES:
            raise ConfigError(f"unknown schedule {sched_name!r}")
        mask_name = params.pop("mask", "full").lower()
        if mask_name not in _MASK_ALIASES:
            raise ConfigError(f"unknown l0 mask {mask_name!r}")
        strategy = Strategy(
            kind=FLB,
            flb=FlbConfig(
                schedule=WeightSchedule(_SCHEDULE_ALIASES[sched_name], gamma, lam),
                beta=beta,
                l0_mask=_MASK_ALIASES[mask_name],
            ),
        )
    if params:
        raise ConfigError(
            f"unknown parameter(s) {sorted(params)} for strategy {kind!r}"
        )
    return strategy
