#!/usr/bin/env python3
"""Which part of the cached first-step logits does the work?

Compares boosting with the full cached vector against boosting only its noun
entries (nouns_only) or only the "The" entry (the_only), with the
unconstrained baseline as reference. Also prints how often each variant
starts its output with "The", since raising that article is one of the
mechanisms by which the boost grounds later nouns.
"""

import argparse

from logit_anchor import (
    DEFAULT_GAMMA,
    DEFAULT_LAM,
    Strategy,
    TraceLexicon,
    WeightSchedule,
    hal_noun_rate,
    run_many,
    sentence_initial_stats,
    summarize_record,
)
from logit_anchor.config import resolve_scene


def main(args):
    scene, scene_name = resolve_scene(args.scene)
    lexicon = TraceLexicon.from_scene(scene)
    schedule = WeightSchedule("increasing", args.gamma, args.lam)

    def flb(mask):
        return Strategy(kind="flb", schedule=schedule, l0_mask=mask)

    variants = [
        ("baseline", Strategy(kind="baseline")),
        ("nouns_only", flb("nouns_only")),
        ("the_only", flb("the_only")),
        ("full", flb("full")),
    ]
    records = run_many(
        scene, [s for _, s in variants], range(args.runs), max_steps=args.max_steps,
    )
    by_label = {}
    for record in records:
        by_label.setdefault(record.strategy, []).append(
            summarize_record(record, lexicon)
        )

    print(f"scene={scene_name} runs={args.runs} gamma={args.gamma} lam={args.lam}\n")
    print(f"{'variant':<12} {'hal noun rate':>14} {'starts with The':>16}")
    for name, strategy in variants:
        runs = by_label[strategy.label()]
        rate = hal_noun_rate(runs, lexicon)
        initial = sentence_initial_stats(runs).the_fraction
        print(f"{name:<12} {rate:>14.4f} {initial:>16.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="default")
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    parser.add_argument("--lam", "--lambda", type=float, default=DEFAULT_LAM, dest="lam")
    parser.add_argument("--max-steps", type=int, default=60, dest="max_steps")
    main(parser.parse_args())
