"""Decoding strategies over an abstract logit provider.

A provider is anything with ``vocab``, ``eos_id``, a ``calls`` counter, and
``logits(history, t, rng) -> LogitVector``; it may also offer
``logit_rows(histories, t, rngs) -> [rows, vocab] array`` to serve many rows
in one call. Three decoding families are implemented on top of it:

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

:func:`decode` is the one decode loop. It runs all seeds of one strategy in
lockstep: each seed is a row, every per-step operation works on
``[rows, vocab]`` arrays, and a row retires when it emits EOS. A single run
is the one-row case. ``boost``, ``core.softmax``, ``core.entropy`` and the
``plausibility`` operations are the one-vector references the row kernels
are tested against; the contrastive combination (``_combine``) and the
step-0 contribution (``_l0_lane``, ``_l0_rows``) exist only as row kernels.

Each row owns its randomness: its seed is split into three independent
streams (sampling, positive-provider jitter, negative-provider jitter), and
no stream is shared between rows. A row draws in a fixed order: one jitter
vector per provider call (after one permutation, for the
perturbed-instruction negative) and one uniform per sampled step. So a
seed's record does not depend on which other seeds share its batch, and two
strategies given the same seed see identical positive-provider noise
regardless of how many extra calls either of them makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .core import (
    GenerationRecord,
    LogitVector,
    ProbDist,
    StepTrace,
    TokenId,
    Vocabulary,
    _col,
    _greedy_rows,
    _listed,
    _sample_rows,
    _unchecked,
)
from .errors import ConfigError, ContractError, ExclusionError
from .simulator import NOISY_VISUAL, PERTURBED_INSTRUCTION, UNCONDITIONED
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

_NEGATIVE_KIND_FOR = {
    VCD: NOISY_VISUAL,
    ICD: PERTURBED_INSTRUCTION,
    M3ID: UNCONDITIONED,
}
_DEFAULT_STRENGTH = {VCD: 0.7, ICD: 1.0, M3ID: 1.0}


class LogitProvider(Protocol):
    """Structural interface the decode loop consumes.

    A provider may also offer ``logit_rows(histories, t, rngs)``, returning
    a fresh ``[rows, vocab]`` score array, to serve all rows of a step in
    one call; without it the loop calls ``logits`` once per row.
    """

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
class ContrastiveConfig:
    """Settings for one contrastive pairing.

    ``strength`` parameterizes the negative provider's degradation; None
    defers to the per-kind default (0.7 for the noisy-visual negative, 1.0
    otherwise).
    """

    alpha: float = 1.0
    beta: float = 0.1
    strength: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha!r}")
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


def _combine(pos: np.ndarray, neg: np.ndarray, alpha: float) -> np.ndarray:
    """The contrastive combination of positive and negative scores."""
    return (1.0 + alpha) * pos - alpha * neg


def boost(l_t: LogitVector, l0_contrib: LogitVector, w_t: float) -> LogitVector:
    """Add the weighted first-logit contribution onto the current scores."""
    if l_t.size != l0_contrib.size:
        raise ContractError(
            f"step size {l_t.size} does not match contribution size {l0_contrib.size}"
        )
    return LogitVector(l_t.scores + w_t * l0_contrib.scores, l_t.mask)


# -- row kernels ----------------------------------------------------------------
#
# Each kernel takes one row as a 1-d [vocab] array or several as a
# [rows, vocab] array, and repeats, row by row, the arithmetic of the
# one-vector references, so the two agree bit for bit. The decode loop
# hands a lone row over as a 1-d array: numpy runs the same arithmetic on it
# with less overhead (per-row values are scalars, and a row's maximum is read
# at its argmax). A mask of None means no entry is masked. Reductions over a
# row's unmasked entries are taken over those entries packed together, as
# the one-vector operations take them: numpy's pairwise summation groups a
# zero-padded row differently.


def _row_max(x: np.ndarray):
    """Each row's largest entry, shaped to broadcast against the rows."""
    if x.ndim == 1:
        return x[x.argmax()]
    return x.max(axis=1, keepdims=True)


def _groups(keep: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Rows that keep equally many entries: (row indices, None for all rows; their lanes).

    Packing a group's kept entries gives a rectangular block, and a reduction
    along the last axis of a contiguous block equals the one-dimensional
    reduction of each row's packed entries.
    """
    if keep.ndim == 2:
        counts = keep.sum(axis=1)
        if not (counts == counts[0]).all():
            return [(rows, keep[rows]) for rows in (
                np.flatnonzero(counts == count) for count in np.unique(counts)
            )]
    return [(None, keep)]


def _packed(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's kept entries, packed; all rows keep equally many."""
    block = x[keep]
    return block if keep.ndim == 1 else block.reshape(keep.shape[0], -1)


def _entropies(p: np.ndarray):
    """Entropy in nats of each row of probabilities, over its positive entries."""
    support = p > 0.0
    if np.count_nonzero(support) == support.size:
        return -(p * np.log(p)).sum(axis=-1)
    groups = _groups(support)
    out = np.empty(p.shape[0]) if len(groups) > 1 else None
    for rows, keep in groups:
        q = _packed(p if rows is None else p[rows], keep)
        ent = -(q * np.log(q)).sum(axis=-1)
        if out is None:
            return ent
        out[rows] = ent
    return out


def _normalised(block: np.ndarray):
    """Softmax of each row of a block with nothing masked, and the rows' totals.

    The totals are the sums of the max-shifted exponentials, whose largest
    is exactly 1.0, so a row's largest probability is exactly ``1 / total``.
    """
    exps = np.exp(block - _row_max(block))
    total = exps.sum(axis=-1)
    return exps / _col(total), total


def _softmax(scores: np.ndarray, mask: np.ndarray | None, temperature: float, entropy: bool = False):
    """Each row's softmax over its unmasked entries: (probabilities, totals, entropies).

    Row by row this is ``core.softmax`` (masked entries get exactly 0) and,
    with ``entropy``, ``core.entropy``; entropies are None without it.
    """
    scaled = scores / temperature if temperature != 1.0 else scores
    if mask is None:
        probs, totals = _normalised(scaled)
        return probs, totals, _entropies(probs) if entropy else None
    probs = np.zeros(scaled.shape)
    groups = _groups(~mask)
    if len(groups) > 1:
        totals, entropies = np.empty(scaled.shape[0]), np.empty(scaled.shape[0])
    for rows, keep in groups:
        p, total = _normalised(_packed(scaled if rows is None else scaled[rows], keep))
        ent = _entropies(p) if entropy else None
        if rows is None:
            probs[keep] = p.ravel()
            return probs, total, ent
        spread = np.zeros((rows.size, scaled.shape[1]))
        spread[keep] = p.ravel()
        probs[rows] = spread
        totals[rows] = total
        if entropy:
            entropies[rows] = ent
    return probs, totals, entropies if entropy else None


def _candidate_mask(
    raw: np.ndarray,
    raw_mask: np.ndarray | None,
    base_mask: np.ndarray | None,
    temperature: float,
    beta: float,
    eos_id: TokenId | None,
) -> np.ndarray:
    """``base_mask`` plus the tokens outside each row's candidate set.

    Row by row, ``apply_mask`` of ``candidate_set(softmax(raw), beta)`` with
    EOS re-allowed: a token stays iff its probability under the raw
    distribution reaches beta times the largest one, which is exactly
    ``1 / total``. Masked raw tokens have probability 0.
    """
    probs, total, _ = _softmax(raw, raw_mask, temperature)
    dropped = probs < _col(beta * (1.0 / total))
    if eos_id is not None:
        dropped[..., eos_id] = False
    if base_mask is None:
        return dropped
    mask = base_mask | dropped
    # The most likely raw token survives the cut (beta <= 1), so only a base
    # mask wider than the raw one can exclude every token.
    if base_mask is not raw_mask and mask.all(axis=-1).any():
        raise ExclusionError("candidate mask excluded every unmasked token")
    return mask


def _l0_lane(mode: str, vocab: Vocabulary, noun_ids: Sequence[TokenId] | None) -> np.ndarray | None:
    """The tokens whose step-0 logits the boost adds back; None for all of them."""
    if mode not in L0_MASKS:
        raise ConfigError(f"unknown l0 mask {mode!r}; expected one of {L0_MASKS}")
    if mode == L0_FULL:
        return None
    keep = np.zeros(vocab.size, dtype=bool)
    if mode == L0_NOUNS_ONLY:
        if noun_ids is None or len(noun_ids) == 0:
            raise ConfigError("nouns_only mask needs a nonempty noun id list")
        keep[np.asarray(noun_ids)] = True
    else:
        if "The" not in vocab:
            raise ConfigError('the_only mask needs a "The" token in the vocabulary')
        keep[vocab.id_of("The")] = True
    return keep


def _l0_rows(raw: np.ndarray, raw_mask: np.ndarray | None, lane: np.ndarray | None) -> np.ndarray:
    """Each row's additive step-0 contribution: 0 outside the lane and where masked."""
    contrib = raw if raw_mask is None else np.where(raw_mask, 0.0, raw)
    if lane is not None:
        contrib = np.where(lane, contrib, 0.0)
    return contrib


# -- the decode loop --------------------------------------------------------------


def _check_run_args(max_steps: int, temperature: float):
    if max_steps < 1:
        raise ConfigError(f"max_steps must be >= 1, got {max_steps}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"temperature must be finite and positive, got {temperature!r}")


def _provider_rows(
    provider: LogitProvider,
    histories: list[list[TokenId]],
    t: int,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray | None]:
    """One pass of the provider over the rows: scores and mask (None if none).

    A provider with ``logit_rows`` serves all rows in one call; any other is
    called through ``logits`` once per row. A lone row comes back 1-d.
    """
    n = len(histories)
    logit_rows = getattr(provider, "logit_rows", None)
    if logit_rows is not None:
        scores, mask = logit_rows(histories, t, rngs), None
        if n == 1 and scores.ndim == 2:
            scores = scores[0]
    else:
        vectors = [provider.logits(tuple(h), t, rng) for h, rng in zip(histories, rngs)]
        if n == 1:
            scores, mask = vectors[0].scores, vectors[0].mask
        else:
            scores = np.array([v.scores for v in vectors])
            mask = np.array([v.mask for v in vectors])
        if not np.count_nonzero(mask):
            mask = None
    shape = (provider.vocab.size,) if n == 1 else (n, provider.vocab.size)
    if scores.shape != shape or scores.dtype != np.float64:
        raise ContractError(
            f"provider returned {scores.dtype} scores of shape {scores.shape} for "
            f"{n} rows of a {provider.vocab.size}-token vocabulary"
        )
    finite = np.isfinite(scores)
    if mask is not None:
        finite |= mask
        if mask.all(axis=-1).any():
            raise ExclusionError("softmax over a fully masked vector")
    if np.count_nonzero(finite) != finite.size:
        raise ContractError(f"provider returned non-finite unmasked scores at step {t}")
    return scores, mask


def _check_step(
    t: int, probs: np.ndarray, mask: np.ndarray | None, chosen: list[TokenId],
    scores: np.ndarray, temperature: float, label: str,
):
    """The checks ProbDist and StepTrace make, for all rows of one step."""
    sums = _listed(probs.sum(axis=-1))
    if np.count_nonzero(probs < 0.0) or not all(abs(s - 1.0) <= 1e-9 for s in sums):
        # The provider's rows are checked finite, so scores that are not
        # finite once adjusted and scaled come from the user's settings.
        scaled = scores / temperature
        if not np.isfinite(scaled if mask is None else scaled[~mask]).all():
            raise ConfigError(
                f"{label}: the adjusted scores overflow at step {t}, temperature {temperature!r}"
            )
        raise ContractError(f"step {t}: probabilities sum to {sums!r}, not 1")
    rows = probs.reshape(len(chosen), -1)
    masks = None if mask is None else mask.reshape(len(chosen), -1)
    for j, c in enumerate(chosen):
        if not rows[j, c] > 0.0 or (masks is not None and masks[j, c]):
            raise ContractError(f"step {t} chose a masked or zero-probability token {c}")


def _frozen(*arrays: np.ndarray | None) -> None:
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)


# Settings that overflow make inf, then nan in the softmax's max shift;
# _check_step reports them as a ConfigError, so numpy's warnings would only
# repeat it on stderr. Entered once per call, this exempts all of decode from
# the suite's RuntimeWarning filter; the finite-provider-row and probability
# checks still catch what it silences (entropy reads only positive entries).
@np.errstate(over="ignore", invalid="ignore")
def decode(
    strategy: "Strategy",
    provider: LogitProvider,
    seeds: Sequence[int],
    *,
    negative: LogitProvider | None = None,
    noun_ids: Sequence[TokenId] | None = None,
    prompt_id: str = "scene",
    max_steps: int = 60,
    temperature: float = 1.0,
) -> list[GenerationRecord]:
    """Decode one run of ``strategy`` per seed, all in lockstep; records in seed order.

    Each seed is one row. At step t every unfinished row makes its provider
    calls (``negative`` too, for the contrastive kinds), and the strategy's
    adjustment, the candidate constraint, the softmax, the choice and the
    entropy are computed for all rows at once. A row retires when it emits
    EOS or reaches ``max_steps``. Each row's record is what decoding its seed
    alone gives, bit for bit: rows share no random stream and every
    reduction is taken row by row.
    """
    _check_run_args(max_steps, temperature)
    if not seeds:
        return []
    kind = strategy.kind
    contrastive = kind in CONTRASTIVE_KINDS
    if contrastive and negative is None:
        raise ConfigError(f"{kind} needs a negative provider")
    label = strategy.label()
    greedy = kind == GREEDY
    eos_id = provider.eos_id
    if contrastive:
        alpha, beta = strategy.contrastive.alpha, strategy.contrastive.beta
    elif kind == FLB:
        beta = strategy.flb.beta
        lane = _l0_lane(strategy.flb.l0_mask, provider.vocab, noun_ids)
    else:
        beta = strategy.beta

    # Three streams per seed (sampling, positive jitter, negative jitter);
    # a Generator is built only for the streams this strategy draws from.
    streams = [np.random.SeedSequence(seed).spawn(3) for seed in seeds]
    sample_rngs = [None if greedy else np.random.default_rng(s[0]) for s in streams]
    pos_rngs = [np.random.default_rng(s[1]) for s in streams]
    neg_rngs = [np.random.default_rng(s[2]) for s in streams] if contrastive else None

    no_mask = np.zeros(provider.vocab.size, dtype=bool)
    no_mask.setflags(write=False)
    histories: list[list[TokenId]] = [[] for _ in seeds]
    traces: list[list[StepTrace]] = [[] for _ in seeds]
    live = list(range(len(seeds)))
    contrib = None
    for t in range(max_steps):
        n = len(live)
        if kind == FLB and t > 0:
            # The weighted contribution does not depend on this step's logits.
            lift = weight_at(strategy.flb.schedule, t) * contrib
        calls = provider.calls + (negative.calls if contrastive else 0)
        rows_history = [histories[i] for i in live]
        raw, raw_mask = _provider_rows(provider, rows_history, t, [pos_rngs[i] for i in live])
        scores, base_mask = raw, raw_mask
        if contrastive:
            neg, neg_mask = _provider_rows(negative, rows_history, t, [neg_rngs[i] for i in live])
            scores = _combine(raw, neg, alpha)
            if neg_mask is not None:
                base_mask = neg_mask if raw_mask is None else raw_mask | neg_mask
        elif kind == FLB:
            if t == 0:
                contrib = _l0_rows(raw, raw_mask, lane)
            else:
                scores = raw + lift
        calls = provider.calls + (negative.calls if contrastive else 0) - calls
        per_row, extra = divmod(calls, n)
        if extra:
            raise ContractError(f"step {t}: {calls} provider calls do not split over {n} rows")

        mask = base_mask
        if beta is not None:
            mask = _candidate_mask(raw, raw_mask, base_mask, temperature, beta, eos_id)
        probs, _, entropies = _softmax(scores, mask, temperature, entropy=True)
        if greedy:
            chosen = _greedy_rows(scores, mask)
        else:
            draws = [sample_rngs[i].random() for i in live]
            chosen = _sample_rows(probs, draws[0] if n == 1 else np.array(draws))
        _check_step(t, probs, mask, chosen, scores, temperature, label)
        entropies = _listed(entropies)

        _frozen(raw, raw_mask, scores, mask, probs)
        same = scores is raw and mask is raw_mask
        rows = zip(
            live, chosen, entropies,
            (raw,) if n == 1 else raw,
            (no_mask,) * n if raw_mask is None else (raw_mask,) if n == 1 else raw_mask,
            (scores,) if n == 1 else scores,
            (no_mask,) * n if mask is None else (mask,) if n == 1 else mask,
            (probs,) if n == 1 else probs,
        )
        for i, c, ent, raw_row, raw_mask_row, scores_row, mask_row, probs_row in rows:
            raw_vec = _unchecked(LogitVector, scores=raw_row, mask=raw_mask_row)
            traces[i].append(_unchecked(
                StepTrace,
                step_index=t,
                raw_logits=raw_vec,
                adjusted_logits=raw_vec if same else _unchecked(
                    LogitVector, scores=scores_row, mask=mask_row
                ),
                dist=_unchecked(ProbDist, probs=probs_row),
                chosen=c,
                entropy_nats=ent,
                provider_calls=per_row,
            ))
            histories[i].append(c)

        if eos_id in chosen:
            going = [c != eos_id for c in chosen]
            live = [i for i, g in zip(live, going) if g]
            if not live:
                break
            if contrib is not None:
                contrib = contrib[going] if len(live) > 1 else contrib[going.index(True)]
    return [
        GenerationRecord(
            prompt_id=prompt_id,
            strategy=label,
            seed=seed,
            steps=tuple(steps),
            text=provider.vocab.render(history),
        )
        for seed, steps, history in zip(seeds, traces, histories)
    ]


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
                object.__setattr__(self, "contrastive", ContrastiveConfig())
            if self.flb is not None or self.beta is not None:
                raise ConfigError(f"{self.kind} takes only contrastive settings")
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
    def negative_kind(self) -> str | None:
        """The negative provider's degradation; None for the kinds without one."""
        return _NEGATIVE_KIND_FOR.get(self.kind)

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
            contrastive=ContrastiveConfig(alpha=alpha, beta=beta, strength=strength),
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
