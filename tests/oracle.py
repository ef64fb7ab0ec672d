"""References the tests compare the package against bit for bit.

The one-vector references for the decode loop's per-step operations each
work on one plain ``[vocab]`` array (and a boolean mask, True for an
excluded token) and are written out on their own, independent of the loop's
row kernels. The per-step trace metrics walk each run's ``steps`` one at a
time and add in that order, independent of the package's column reductions,
and classify tokens by id sets written from the scene's token lists,
independent of the package's ``TraceLexicon`` rows. The grammar fold moves
token by token through a table written from the scene's token lists,
independent of the simulator's own table. ``capitalised_scene`` is the scene
the CHAIR checks share beside the default one.
"""

from __future__ import annotations

import json

import numpy as np

from logit_anchor.metrics import (
    ArticleCell,
    ArticleStats,
    CurveBin,
    EntropyCell,
    SentenceInitialStats,
)
from logit_anchor.simulator import (
    AFTER_ARTICLE, AFTER_CONNECTIVE, AFTER_NOUN, START, TERMINAL, preset, scene_from_dict,
    scene_to_dict,
)


def softmax(scores: np.ndarray, mask: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Masked softmax with max-subtraction: masked tokens get exactly zero.

    ``temperature`` divides the unmasked scores before exponentiation.
    """
    live = ~mask
    scaled = scores[live]
    if temperature != 1.0:
        scaled = scaled / temperature
    shifted = scaled - scaled.max()
    exps = np.exp(shifted)
    probs = np.zeros(scores.shape[0], dtype=np.float64)
    probs[live] = exps / exps.sum()
    return probs


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def boost(scores: np.ndarray, l0_contrib: np.ndarray, w_t: float) -> np.ndarray:
    """The current scores plus the weighted first-logit contribution."""
    return scores + w_t * l0_contrib


def candidate_set(probs: np.ndarray, beta: float, eos_id: int | None = None) -> np.ndarray:
    """The kept tokens: probability at least beta times the maximum, EOS re-allowed."""
    allowed = probs >= beta * float(probs.max())
    if eos_id is not None:
        allowed[eos_id] = True
    return allowed


def apply_mask(mask: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The exclusion lane with every token outside ``allowed`` added; it never un-excludes."""
    return mask | ~allowed


def grammar_state(scene, history) -> int:
    """The grammar state code after ``history``, folded from START token by token:
    an article leads to the noun slot it opens, a noun to AFTER_NOUN, a
    connective to AFTER_CONNECTIVE, EOS to TERMINAL; filler keeps the state."""
    vocab = scene.vocabulary
    move = {vocab.id_of(a): AFTER_ARTICLE + k for k, a in enumerate(scene.articles)}
    move.update({vocab.id_of(n): AFTER_NOUN for n in scene.gt_objects + scene.hal_objects})
    move.update({vocab.id_of(c): AFTER_CONNECTIVE for c in scene.connectives})
    move[vocab.id_of(scene.eos)] = TERMINAL
    state = START
    for token_id in history:
        state = move.get(token_id, state)
    return state


# -- per-step trace metrics -----------------------------------------------------


class _Classes:
    """Token-id sets of a scene: its gt and hal objects, and its articles, also
    grouped by lower case into "the" and "a"."""

    def __init__(self, scene):
        def ids(tokens):
            return {scene.vocabulary.id_of(t) for t in tokens}

        self.gt_objects, self.hal_objects = ids(scene.gt_objects), ids(scene.hal_objects)
        self.nouns = self.gt_objects | self.hal_objects
        self.articles = ids(scene.articles)
        self.the = ids(a for a in scene.articles if a.lower() == "the")
        self.a = ids(a for a in scene.articles if a.lower() == "a")


def _noun_slots(run, classes):
    """(prev_step, step) pairs where the previous emission was an article."""
    for prev, step in zip(run.steps, run.steps[1:]):
        if prev.chosen in classes.articles:
            yield prev, step


def positional_curves(runs, scene, bin_width):
    classes = _Classes(scene)
    sums: dict[int, list[float]] = {}
    for run in runs:
        for _, step in _noun_slots(run, classes):
            cell = sums.setdefault(step.t // bin_width, [0.0, 0.0, 0])
            cell[0] += step.gt_mass
            cell[1] += step.hal_mass
            cell[2] += 1
    return tuple(
        CurveBin(lo=b * bin_width, hi=(b + 1) * bin_width, gt_mass=gt / n, hal_mass=hal / n,
                 slots=n)
        for b, (gt, hal, n) in sorted(sums.items())
    )


def _article_cell(emissions):
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


def article_stats(runs, scene):
    classes = _Classes(scene)
    after_the, after_a = [], []
    for run in runs:
        for prev, step in _noun_slots(run, classes):
            if step.chosen not in classes.nouns:
                continue
            emission = (step.chosen in classes.gt_objects, step.chosen_prob)
            if prev.chosen in classes.the:
                after_the.append(emission)
            elif prev.chosen in classes.a:
                after_a.append(emission)
    return ArticleStats(after_the=_article_cell(after_the), after_a=_article_cell(after_a))


def entropy_stats(runs, scene):
    classes = _Classes(scene)
    names = ("all_tokens", "all_nouns", "gt_nouns", "hal_nouns", "after_the", "after_a",
             "after_other")
    groups: dict[str, list[float]] = {name: [] for name in names}
    for run in runs:
        prev_chosen = None
        for step in run.steps:
            groups["all_tokens"].append(step.entropy)
            if step.chosen in classes.nouns:
                groups["all_nouns"].append(step.entropy)
                is_gt = step.chosen in classes.gt_objects
                groups["gt_nouns" if is_gt else "hal_nouns"].append(step.entropy)
                if prev_chosen is not None and prev_chosen in classes.the:
                    groups["after_the"].append(step.entropy)
                else:
                    groups["after_other"].append(step.entropy)
                    if prev_chosen is not None and prev_chosen in classes.a:
                        groups["after_a"].append(step.entropy)
            prev_chosen = step.chosen
    return {
        name: EntropyCell(mean_entropy=float(np.mean(values)) if values else 0.0,
                          count=len(values))
        for name, values in groups.items()
    }


def sentence_initial_stats(runs):
    the_count = sum(1 for run in runs if run.steps and run.steps[0].token == "The")
    return SentenceInitialStats(
        the_fraction=the_count / len(runs), the_count=the_count, n_runs=len(runs)
    )


def hal_noun_rate(runs, scene):
    classes = _Classes(scene)
    hal = nouns = 0
    for run in runs:
        for step in run.steps:
            if step.chosen in classes.nouns:
                nouns += 1
                hal += step.chosen in classes.hal_objects
    return hal / nouns if nouns else 0.0


def capitalised_scene():
    """The default scene with the gt nouns "Man" and "Dog" and the hal nouns "Cat"
    (a cognition object) and "Sheep" spelt with a capital: CHAIR reads any case."""
    text = json.dumps(scene_to_dict(preset("default")))
    for noun in ("man", "dog", "cat", "sheep"):
        text = text.replace(f'"{noun}"', f'"{noun.capitalize()}"')
    return scene_from_dict(json.loads(text))
