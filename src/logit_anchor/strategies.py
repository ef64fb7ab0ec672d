"""Decoding strategies over an abstract logit provider.

A provider (``LogitProvider``) has ``vocab``, ``eos_id``, a ``calls`` counter and
``logit_rows(histories, t, rngs) -> [rows, vocab] array``, which serves a step's rows in
one call, the route of every provider the package builds; ``logits(history, t, rng) ->
[vocab] array`` is the per-row fallback kept for outside wrappers such as the benchmark
replay's timing wrapper. Three decoding families are implemented on top of it:

* plain ancestral sampling / greedy, optionally with the adaptive candidate
  constraint (one provider call per step);
* contrastive pairs: ``(1 + alpha) * l_pos - alpha * l_neg`` against a
  degraded second provider (two provider calls per step);
* first-logit boost: cache the raw step-0 logits once, then add them back
  into every later step scaled by a weight schedule (one provider call per
  step, plus vector math).

A schedule (``WeightSchedule``) maps the step t (the first generated token is
t = 0) to the boost's nonnegative weight (``weight_at``), in one of three shapes:

    increasing   w_t = gamma * (1 - exp(-lam * t))
    decreasing   w_t = gamma * exp(-lam * t)
    constant     w_t = gamma

The increasing shape starts at exactly 0 and saturates at gamma; for
practical purposes it has converged (within 1e-6) by t = ceil(14 / lam).

All three apply the candidate constraint the same way: the keep-set is
computed from the *original* (unadjusted) distribution and intersected into
the adjusted logits before the final softmax. The EOS token is re-allowed
after truncation so every run can terminate. Providers mask nothing.

Every setting is a field of one frozen ``Strategy``; ``SETTINGS`` lists the
ones each kind takes and their defaults, which fill any left out, and
``_RANGES`` the range of each. Descriptor text is parsed in ``config``:
``Strategy(kind="flb", schedule=WeightSchedule(gamma=0.5), beta=0.2)`` is
the descriptor ``flb:gamma=0.5,beta=0.2`` (``config.parse_strategy``).

:func:`decode` is the one decode loop. It runs every (strategy, seed) run in
lockstep: each run is a row, a strategy's rows one contiguous lane, every
per-step operation works on ``[rows, vocab]`` arrays (a lane's adjustment on
its slice), and a row retires when it emits EOS. A single run is the one-row
case. Every per-step operation has one implementation, a row kernel in this
module: the contrastive combination (``_combine``), the step-0 contribution
(``_l0_lane``, ``_l0_rows``) and its lift, the candidate constraint
(``_candidate_mask``), the softmax (``_softmax``, which divides by the
temperature and normalises through ``_normalised``), the entropy
(``_entropies``) and the choice (``_sample_rows``, ``_greedy_rows``). The
tests compare them against independent one-vector references of their own.

Each row owns its randomness: its seed is split into three independent
streams (sampling, positive-provider jitter, negative-provider jitter), and
no stream is shared between rows. A row draws in a fixed order: one jitter
vector per provider call (after one permutation, for the perturbed-instruction
negative), and sampled step t takes the t-th uniform of its sampling stream. So a
seed's record does not depend on which other seeds share its batch, and two
strategies given the same seed see identical positive-provider noise
regardless of how many extra calls either of them makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from typing import Protocol, Sequence

import numpy as np

from .core import (
    PROB_SLACK, GenerationRecord, LogitVector, ProbDist, StepTrace, TokenId, Vocabulary,
)
from .errors import ConfigError, ContractError
from .simulator import NOISY_VISUAL, PERTURBED_INSTRUCTION, UNCONDITIONED

BASELINE = "baseline"
GREEDY = "greedy"
VCD = "vcd"
ICD = "icd"
M3ID = "m3id"
FLB = "flb"
STRATEGY_KINDS = (BASELINE, GREEDY, VCD, ICD, M3ID, FLB)
CONTRASTIVE_KINDS = (VCD, ICD, M3ID)

DEFAULT_MAX_STEPS = 60
DEFAULT_TEMPERATURE = 1.0
UNIFORM_BLOCK = 16  # the uniforms a sampled row draws at once from its sampling stream

L0_FULL = "full"
L0_NOUNS_ONLY = "nouns_only"
L0_THE_ONLY = "the_only"
L0_MASKS = (L0_FULL, L0_NOUNS_ONLY, L0_THE_ONLY)

# The negative provider's degradation for each contrastive kind.
NEGATIVE_KIND_FOR = {
    VCD: NOISY_VISUAL,
    ICD: PERTURBED_INSTRUCTION,
    M3ID: UNCONDITIONED,
}


class LogitProvider(Protocol):
    """Structural interface the decode loop consumes.

    ``logit_rows(histories, t, rngs)``, the route of every provider the package builds,
    returns a fresh float64 ``[rows, vocab]`` array of finite scores, nothing masked, for a
    step's rows; ``logits``, declared here, returns one ``[vocab]`` row, the per-row fallback
    kept for outside wrappers such as the benchmark replay's. ``rng`` is always the row's
    own ``Generator`` (``rngs`` one per row), never None, held by the decode loop for the
    run: a provider may draw ahead from it and keep the draws.
    """

    vocab: Vocabulary
    eos_id: int
    calls: int

    def logits(
        self,
        history: Sequence[TokenId],
        t: int,
        rng: np.random.Generator,
    ) -> np.ndarray: ...


# -- row kernels ----------------------------------------------------------------
#
# Each kernel takes one row as a 1-d [vocab] array or several as a
# [rows, vocab] array, and gives each row, bit for bit, what the same
# arithmetic on that row alone gives, so a row's record does not depend on
# the rows beside it. The decode loop hands a lone row over as a 1-d array:
# numpy runs the same arithmetic on it with less overhead (per-row values
# are scalars, and a row's maximum is read at its argmax). A mask of None
# means no entry is masked. Reductions over a row's unmasked entries are
# taken over those entries packed together: numpy's pairwise summation
# groups a zero-padded row differently.


def _col(values):
    """Per-row values shaped to broadcast against the rows (a scalar for one row)."""
    return values if values.ndim == 0 else values[:, None]


def _listed(values: np.ndarray) -> list:
    """Per-row values as a list, one item per row."""
    items = values.tolist()
    return items if isinstance(items, list) else [items]


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


def _normalised(block: np.ndarray, temperature: float):
    """Softmax of each row of a block with nothing masked, and the rows' totals.

    The one place a row is divided by ``temperature`` and shifted by its
    largest entry before exponentiation. The totals are the sums of the
    shifted exponentials, whose largest is exactly 1.0, so a row's largest
    probability is exactly ``1 / total``.
    """
    scaled = block / temperature if temperature != 1.0 else block
    top = scaled[scaled.argmax()] if scaled.ndim == 1 else scaled.max(axis=1, keepdims=True)
    exps = np.exp(scaled - top)
    total = exps.sum(axis=-1)
    return exps / _col(total), total


def _softmax(scores: np.ndarray, mask: np.ndarray | None, temperature: float):
    """Each row's softmax over its unmasked entries (``_normalised``), masked entries
    exactly 0, and each row's entropy (``_entropies``): (probabilities, entropies)."""
    if mask is None:
        probs, _ = _normalised(scores, temperature)
        return probs, _entropies(probs)
    probs = np.zeros(scores.shape)
    groups = _groups(~mask)
    if len(groups) > 1:
        entropies = np.empty(scores.shape[0])
    for rows, keep in groups:
        p, _ = _normalised(_packed(scores if rows is None else scores[rows], keep), temperature)
        if rows is None:
            probs[keep] = p.ravel()
            return probs, _entropies(p)
        spread = np.zeros((rows.size, scores.shape[1]))
        spread[keep] = p.ravel()
        probs[rows] = spread
        entropies[rows] = _entropies(p)
    return probs, entropies


def _index_sums(p: np.ndarray, index: np.ndarray):
    """Each row's sum of its entries at ``index``, bit for bit ``row[index].sum()``.

    The gathered ``[rows, n]`` block comes out column-major, and an axis sum of
    it may add in another order than numpy's pairwise sum of one row; made
    contiguous, its axis sum adds each row with the one-row loop.
    """
    if p.ndim == 1:
        return np.add.reduce(p[index])  # what p[index].sum() runs
    return np.add.reduce(np.ascontiguousarray(p[:, index]), axis=1)


def _below_cut(probs: np.ndarray, top, beta: float) -> np.ndarray:
    """The entries below ``beta`` times ``top``, their row's largest probability
    (one value per row, shaped to broadcast); with ``beta <= 1`` the largest stays."""
    return probs < beta * top


def _candidate_mask(raw: np.ndarray, temperature: float, beta: float, eos_id: TokenId | None):
    """The tokens outside each row's candidate set, with EOS re-allowed.

    A token stays iff its probability under the raw (unadjusted)
    distribution reaches beta (one for all rows, or a column of one per row)
    times the largest one, which is exactly ``1 / total``; so the largest stays.
    """
    probs, total = _normalised(raw, temperature)
    dropped = _below_cut(probs, _col(1.0 / total), beta)
    if eos_id is not None:
        dropped[..., eos_id] = False
    return dropped


def _combine(pos: np.ndarray, neg: np.ndarray, alpha: float) -> np.ndarray:
    """The contrastive combination of positive and negative scores."""
    return (1.0 + alpha) * pos - alpha * neg


def _l0_lane(mode: str, vocab: Vocabulary, noun_ids: Sequence[TokenId] | None) -> np.ndarray | None:
    """The tokens whose step-0 logits the boost adds back; None for all of them.

    ``mode`` is one of L0_MASKS, as Strategy checks.
    """
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


def _l0_rows(raw: np.ndarray, lane: np.ndarray | None) -> np.ndarray:
    """Each row's additive step-0 contribution: 0 outside the lane."""
    return raw if lane is None else np.where(lane, raw, 0.0)


def _sample_rows(probs: np.ndarray, draws) -> list[TokenId]:
    """Inverse-CDF choice per row, from one uniform each (a scalar for one row).

    The choice is the first token whose running sum over the row's positive
    support exceeds ``u * total``. Zero entries add exactly 0, so the full
    row's running sums are the support's, and a zero entry never exceeds first.
    """
    cum = probs.cumsum(axis=-1)
    last = cum[..., -1]
    u = draws * last
    chosen = (cum > _col(u)).argmax(axis=-1).tolist()
    if probs.ndim == 1:
        probs, chosen, u, last = probs[None], [chosen], [u], [last]
    for j, (uj, lj) in enumerate(zip(u, last)):
        if uj >= lj:  # u reached the total: take the last supported token
            chosen[j] = int(np.flatnonzero(probs[j])[-1])
    return chosen


def _greedy_rows(scores: np.ndarray, mask: np.ndarray | None) -> list[TokenId]:
    """Each row's highest-scoring unmasked token, ties toward the lowest id."""
    best = scores if mask is None else np.where(mask, -np.inf, scores)
    return _listed(best.argmax(axis=-1))


# -- the decode loop --------------------------------------------------------------


def check_run_args(max_steps: int, temperature: float):
    """The one check of the run arguments; ``config.RunConfig`` makes it too."""
    if max_steps < 1:
        raise ConfigError(f"max_steps must be >= 1, got {max_steps}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"temperature must be finite and positive, got {temperature!r}")


def _checked(scores, shape: tuple[int, ...], call: str) -> np.ndarray:
    """``scores`` if it is a float64 array of ``shape``; anything else is a ContractError."""
    if isinstance(scores, np.ndarray) and scores.shape == shape and scores.dtype == np.float64:
        return scores
    got = f"{scores.dtype} {scores.shape}" if isinstance(scores, np.ndarray) else type(scores).__name__
    raise ContractError(f"provider returned {got} from {call}, not float64 scores of shape {shape}")


def _provider_rows(
    provider: LogitProvider,
    histories: list[list[TokenId]],
    t: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """One pass of the provider over the rows, checked: their scores, a lone row 1-d.

    ``logit_rows`` serves all rows in one call, else ``logits`` is called once per row.
    This is the one check of provider output: what ``LogitProvider`` does not allow is a ContractError.
    """
    n, size = len(histories), provider.vocab.size
    logit_rows = getattr(provider, "logit_rows", None)
    if logit_rows is not None:
        scores = _checked(logit_rows(histories, t, rngs), (n, size), "logit_rows")
        if n == 1:
            scores = scores[0]
    else:
        rows = [_checked(provider.logits(tuple(h), t, rng), (size,), "logits")
                for h, rng in zip(histories, rngs)]
        scores = rows[0] if n == 1 else np.array(rows)
    if np.count_nonzero(np.isfinite(scores)) != scores.size:
        raise ContractError(f"provider returned non-finite scores at step {t}")
    return scores


def _check_step(
    t: int, probs: np.ndarray, mask: np.ndarray | None, chosen: list[TokenId],
    scores: np.ndarray, temperature: float, labels: Sequence[str],
) -> list[float]:
    """The one check of a step's outcome, for all rows at once (``labels``: each row's strategy).

    Each row's probabilities are nonnegative and sum to 1 within PROB_SLACK, and
    its chosen token is unmasked and has positive probability. Returns each
    row's probability of its chosen token.
    """
    sums = _listed(probs.sum(axis=-1))
    if np.count_nonzero(probs < 0.0) or not all(abs(s - 1.0) <= PROB_SLACK for s in sums):
        # The provider's rows are checked finite, so scores that are not
        # finite once adjusted and scaled come from the user's settings.
        finite = np.isfinite(scores / temperature) | (False if mask is None else mask)
        overflow = np.flatnonzero(~finite.reshape(len(chosen), -1).all(axis=1))
        if overflow.size:
            raise ConfigError(f"{labels[overflow[0]]}: the adjusted scores overflow at step {t}, "
                              f"temperature {temperature!r}")
        raise ContractError(f"step {t}: probabilities go negative or sum to {sums!r}, not 1")
    rows = probs.reshape(len(chosen), -1)
    masks = None if mask is None else mask.reshape(len(chosen), -1)
    picked = []
    for j, c in enumerate(chosen):
        p = float(rows[j, c])
        if not p > 0.0 or (masks is not None and masks[j, c]):
            raise ContractError(f"step {t} chose a masked or zero-probability token {c}")
        picked.append(p)
    return picked


def _share(calls: int, rows: int, t: int) -> int:
    """Each row's part of one pass's provider ``calls``; an uneven split is a ContractError."""
    if calls % rows:
        raise ContractError(f"step {t}: {calls} provider calls do not split over {rows} rows")
    return calls // rows


@dataclass(eq=False)
class _Lane:
    """One strategy's ``size`` live rows, at ``span`` in the batch, and their state."""

    strategy: "Strategy"
    negative: LogitProvider | None
    keep: np.ndarray | None
    size: int
    span: slice | None = None
    contrib: np.ndarray | None = None
    calls: int = 0


def _placed(lanes: list[_Lane]):
    """Lay the lanes out in order; the rows' beta: one for all (None: no cut), or a column."""
    for lane, stop in zip(lanes, accumulate(lane.size for lane in lanes)):
        lane.span = slice(None) if len(lanes) == 1 else slice(stop - lane.size, stop)
    betas = [lane.strategy.beta for lane in lanes]
    if len(set(betas)) > 1:
        return np.repeat([beta or 0.0 for beta in betas], [lane.size for lane in lanes])[:, None]
    return betas[0] if betas else None


# Settings that overflow make inf, then nan in the softmax's max shift;
# _check_step reports them as a ConfigError, so numpy's warnings would only
# repeat it on stderr. Entered once per call, this exempts all of decode from
# the suite's RuntimeWarning filter; the finite-provider-row and probability
# checks still catch what it silences (entropy reads only positive entries).
@np.errstate(over="ignore", invalid="ignore")
def decode(
    strategies: Sequence["Strategy"],
    provider: LogitProvider,
    seeds: Sequence[int],
    *,
    negatives: Sequence[LogitProvider | None] = (),
    gt_ids: Sequence[TokenId] = (),
    hal_ids: Sequence[TokenId] = (),
    prompt_id: str = "scene",
    max_steps: int = DEFAULT_MAX_STEPS,
    temperature: float = DEFAULT_TEMPERATURE,
    record: bool = False,
) -> list[GenerationRecord]:
    """Decode one run per (strategy, seed), all in lockstep; records by strategy, then seed.

    Each run is a row, a strategy's rows one contiguous lane. At step t one
    ``provider`` pass serves every unfinished row, a contrastive lane makes a
    pass of its ``negatives`` provider (one per strategy, None for others),
    each lane adjusts its slice and a greedy lane chooses its rows; the cut
    (each row at its strategy's beta), the softmax, the sampled choice and the
    ``GenerationRecord`` summary columns (gt and hal mass: the probability of
    ``gt_ids``, of ``hal_ids``, the nouns of flb's ``nouns_only`` mask) run over all rows.
    A row retires at EOS or ``max_steps``. Each record is what decoding its run
    alone gives, bit for bit: rows share no random stream, and reductions go row
    by row. Only with ``record`` does a record keep each step's ``StepTrace``:
    plain read-only records sharing the loop's arrays (logits, mask, probabilities).
    """
    check_run_args(max_steps, temperature)
    eos_id = provider.eos_id
    gt_index, hal_index = (np.array(sorted(set(ids)), dtype=np.intp) for ids in (gt_ids, hal_ids))
    nouns = np.concatenate((gt_index, hal_index))

    # Three streams per seed (sampling, positive jitter, negative jitter);
    # a row builds a Generator only for the streams its strategy draws from.
    streams = [np.random.SeedSequence(seed).spawn(3) for seed in seeds]
    lanes, labels, sample_rngs, pos_rngs, neg_rngs = [], [], [], [], []
    for strategy, negative in zip(strategies, negatives or [None] * len(strategies), strict=True):
        kind, contrastive = strategy.kind, strategy.kind in CONTRASTIVE_KINDS
        if contrastive and negative is None:
            raise ConfigError(f"{kind} needs a negative provider")
        keep = _l0_lane(strategy.l0_mask, provider.vocab, nouns) if kind == FLB else None
        lanes.append(_Lane(strategy, negative if contrastive else None, keep, len(seeds)))
        labels += [strategy.label()] * len(seeds)
        sample_rngs += [None if kind == GREEDY else np.random.default_rng(s[0]) for s in streams]
        pos_rngs += [np.random.default_rng(s[1]) for s in streams]
        neg_rngs += [np.random.default_rng(s[2]) if contrastive else None for s in streams]
    beta = _placed(lanes)

    no_mask = np.zeros(provider.vocab.size, dtype=bool)
    no_mask.setflags(write=False)
    histories: list[list[TokenId]] = [[] for _ in labels]
    summaries: list[list[tuple]] = [[] for _ in labels]
    traces: list[list[StepTrace]] = [[] for _ in labels]
    # The live rows, in batch order: their record index, history, label and streams.
    live, rows_history, row_labels = list(range(len(labels))), list(histories), labels
    for t in range(max_steps):
        if not live:
            break
        n, whole, calls = len(live), len(lanes) == 1, provider.calls
        raw = _provider_rows(provider, rows_history, t, pos_rngs)
        share, parts = _share(provider.calls - calls, n, t), []
        for lane in lanes:
            lane.calls, part, strategy = share, raw if whole else raw[lane.span], lane.strategy
            if lane.negative is not None:
                calls = lane.negative.calls
                neg = _provider_rows(lane.negative, rows_history[lane.span], t, neg_rngs[lane.span])
                lane.calls += _share(lane.negative.calls - calls, lane.size, t)
                part = _combine(part, neg, strategy.alpha)
            elif strategy.kind == FLB and t:
                part = part + weight_at(strategy.schedule, t) * lane.contrib
            elif strategy.kind == FLB:
                lane.contrib = _l0_rows(part, lane.keep)
            parts.append(part)
        scores = parts[0] if whole else np.concatenate(parts)
        mask = None if beta is None else _candidate_mask(raw, temperature, beta, eos_id)
        probs, entropies = _softmax(scores, mask, temperature)
        sampled, picks = [rng is not None for rng in sample_rngs], iter(())
        if t % UNIFORM_BLOCK == 0:  # rows in lockstep: step t takes column t % UNIFORM_BLOCK
            uniforms = np.array([g.random(UNIFORM_BLOCK) for g in compress(sample_rngs, sampled)])
        if len(uniforms):  # every sampled row in one call
            draws = uniforms[:, t % UNIFORM_BLOCK]
            picks = iter(_sample_rows(probs if len(draws) == n else probs[sampled],
                                      draws[0] if n == 1 else draws))
        chosen = []
        for lane in lanes:
            if lane.strategy.kind == GREEDY:
                chosen += _greedy_rows(scores[lane.span], None if mask is None else mask[lane.span])
            else:
                chosen += islice(picks, lane.size)
        chosen_probs = _check_step(t, probs, mask, chosen, scores, temperature, row_labels)
        entropies = _listed(entropies)

        columns = zip(
            live, chosen, entropies, chosen_probs,
            _listed(_index_sums(probs, gt_index)), _listed(_index_sums(probs, hal_index)),
        )
        for lane in lanes:
            for i, c, ent, p, gt, hal in columns if whole else islice(columns, lane.size):
                summaries[i].append((c, ent, p, gt, hal, lane.calls))
                histories[i].append(c)
        if record:
            # Read-only rows: a record can share them with no writable alias.
            rows = []
            for arr in (raw, scores, mask, probs):
                if arr is not None:
                    arr.setflags(write=False)
                rows.append((no_mask,) * n if arr is None else (arr,) if n == 1 else arr)
            for i, c, ent, raw_row, scores_row, mask_row, probs_row in zip(
                live, chosen, entropies, *rows
            ):
                traces[i].append(StepTrace(
                    t, LogitVector(raw_row, no_mask), LogitVector(scores_row, mask_row),
                    ProbDist(probs_row), c, ent, summaries[i][-1][-1],
                ))

        if eos_id in chosen:
            going = [c != eos_id for c in chosen]
            uniforms = uniforms[list(compress(going, sampled))]
            live, rows_history, row_labels, sample_rngs, pos_rngs, neg_rngs = (
                list(compress(col, going))
                for col in (live, rows_history, row_labels, sample_rngs, pos_rngs, neg_rngs)
            )
            for lane in lanes:
                kept = going[lane.span]
                lane.size = sum(kept)
                if lane.contrib is not None and lane.size:
                    lane.contrib = lane.contrib[kept if len(live) > 1 else kept.index(True)]
            lanes = [lane for lane in lanes if lane.size]
            beta = _placed(lanes)
    return [
        GenerationRecord(prompt_id, label, seed, *zip(*steps),
                         steps=tuple(trace) if record else None)
        for label, seed, steps, trace in zip(labels, [*seeds] * len(strategies), summaries, traces)
    ]


# -- strategy settings -----------------------------------------------------------

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"
SCHEDULE_KINDS = (INCREASING, DECREASING, CONSTANT)
DEFAULT_GAMMA = 0.3
DEFAULT_LAM = 0.05


@dataclass(frozen=True)
class WeightSchedule:
    """A named schedule shape with its two scalars.

    gamma is the asymptotic (or initial, for the decreasing shape) weight and
    must be >= 0; lam is the rate and must be > 0 for the two exponential
    shapes. lam is ignored by the constant shape but still validated.
    """

    kind: str = INCREASING
    gamma: float = DEFAULT_GAMMA
    lam: float = DEFAULT_LAM

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ConfigError(f"lam must be finite and > 0, got {self.lam!r}")

    def converged_step(self) -> int:
        """First step at which |w_t - gamma| < 1e-6 is guaranteed (increasing)."""
        return math.ceil(14.0 / self.lam)


def weight_at(schedule: WeightSchedule, t: int) -> float:
    """Evaluate the schedule at step t >= 0."""
    if t < 0:
        raise ConfigError(f"step index must be >= 0, got {t}")
    if schedule.kind == INCREASING:
        return schedule.gamma * (1.0 - math.exp(-schedule.lam * t))
    if schedule.kind == DECREASING:
        return schedule.gamma * math.exp(-schedule.lam * t)
    return schedule.gamma


# The settings each kind takes, with their defaults: the one place a strategy
# default is written (a schedule's gamma and lam default in WeightSchedule).
# A beta of None means no candidate constraint.
_CONTRASTIVE = {"alpha": 1.0, "beta": 0.1}
SETTINGS = {
    BASELINE: {"beta": None},
    GREEDY: {"beta": None},
    VCD: {**_CONTRASTIVE, "strength": 0.7},
    ICD: {**_CONTRASTIVE, "strength": 1.0},
    M3ID: {**_CONTRASTIVE, "strength": 1.0},
    FLB: {"schedule": WeightSchedule(), "beta": 0.1, "l0_mask": L0_FULL},
}

# The one range check of each setting: (test, what the value must be). A
# schedule is checked by WeightSchedule when it is built.
_RANGES = {
    "beta": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "alpha": (lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"),
    "strength": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "schedule": (lambda v: isinstance(v, WeightSchedule), "must be a WeightSchedule"),
    "l0_mask": (lambda v: v in L0_MASKS, f"must be one of {L0_MASKS}"),
}


@dataclass(frozen=True)
class Strategy:
    """A named, fully resolved decoding configuration.

    ``SETTINGS`` lists the settings each kind takes. One left unset (None) is
    filled from the kind's default; one the kind does not take must stay None.
    """

    kind: str
    beta: float | None = None
    alpha: float | None = None
    strength: float | None = None
    schedule: WeightSchedule | None = None
    l0_mask: str | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(
                f"unknown strategy {self.kind!r}; expected one of {STRATEGY_KINDS}"
            )
        takes = SETTINGS[self.kind]
        for name, (ok, must) in _RANGES.items():
            value = getattr(self, name)
            if name not in takes:
                if value is not None:
                    raise ConfigError(f"{self.kind} takes no {name} setting, got {value!r}")
            elif value is None:
                object.__setattr__(self, name, takes[name])
            elif not ok(value):
                raise ConfigError(f"{name} {must}, got {value!r}")

    def label(self) -> str:
        """The kind and its settings in ``SETTINGS`` order, each number printed with ``:g``
        unless that text reads back to another float, then with ``repr``."""
        def shown(name, value):
            return f"{name}={value:g}" if float(f"{value:g}") == value else f"{name}={value!r}"
        parts = []
        for name in SETTINGS[self.kind]:
            value = getattr(self, name)
            if name == "schedule":
                parts += [value.kind, shown("gamma", value.gamma), shown("lam", value.lam)]
            elif value is not None:  # a beta-less baseline or greedy shows no settings
                parts.append(f"mask={value}" if name == "l0_mask" else shown(name, value))
        return f"{self.kind}({','.join(parts)})" if parts else self.kind
