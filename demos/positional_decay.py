#!/usr/bin/env python3
"""Show how grounding decays with generation position, and what boosting does.

Runs the unconstrained baseline and the boosted sampler on the same scene,
then tabulates mean ground-truth vs hallucinated probability mass at noun
slots, binned by step index. On the default scene the hallucinated share
overtakes the grounded share in later bins; with --scene no-decay the curves
stay flat.
"""

import argparse

from logit_anchor import (
    Strategy,
    TraceLexicon,
    parse_strategy,
    positional_curves,
    run_many,
    summarize_record,
)
from logit_anchor.config import resolve_scene


def curve_table(scene, strategy, seeds, max_steps, bin_width):
    lexicon = TraceLexicon.from_scene(scene)
    records = run_many(scene, [strategy], seeds, max_steps=max_steps)
    runs = [summarize_record(r, lexicon) for r in records]
    return positional_curves(runs, lexicon, bin_width=bin_width)


def main(args):
    scene, scene_name = resolve_scene(args.scene)
    seeds = range(args.runs)
    strategies = [
        ("baseline", Strategy(kind="baseline")),
        ("boosted", parse_strategy("flb")),
    ]
    print(f"scene={scene_name} runs={args.runs} max_steps={args.max_steps}")
    for name, strategy in strategies:
        bins = curve_table(scene, strategy, seeds, args.max_steps, args.bin_width)
        print(f"\n{name} ({strategy.label()})")
        print(f"{'steps':>10} {'gt mass':>9} {'hal mass':>9} {'slots':>6}")
        for b in bins:
            bar = "#" * round(40 * b.hal_mass)
            print(f"{b.lo:>4}-{b.hi:<5} {b.gt_mass:>9.4f} {b.hal_mass:>9.4f} {b.slots:>6} {bar}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="default",
                        help="preset name or scene JSON path")
    parser.add_argument("--runs", type=int, default=150)
    parser.add_argument("--max-steps", type=int, default=60, dest="max_steps")
    parser.add_argument("--bin-width", type=int, default=10, dest="bin_width")
    main(parser.parse_args())
