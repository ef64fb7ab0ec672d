#!/usr/bin/env python3
"""Run several decoding strategies on one scene and print a metrics table.

Every run is treated as a caption of the scene: any emitted noun outside the
scene's ground-truth set counts as a hallucination. The table shows chair_i
(hallucinated share of mentions), cover (ground-truth objects reached),
the combined object score, the hallucinated-noun emission rate, and the
provider calls each strategy needs per generated token.
"""

import argparse

from logit_anchor import (
    TraceLexicon,
    hal_noun_rate,
    parse_strategy,
    run_many,
    simulated_metrics,
    summarize_record,
)
from logit_anchor.config import resolve_scene

DEFAULT_STRATEGIES = "baseline;vcd;icd;m3id;flb"


def main(args):
    scene, scene_name = resolve_scene(args.scene)
    strategies = [parse_strategy(s) for s in args.strategies.split(";") if s.strip()]
    lexicon = TraceLexicon.from_scene(scene)
    seeds = range(args.runs)

    records = run_many(scene, strategies, seeds, max_steps=args.max_steps)
    by_label = {}
    for record in records:
        by_label.setdefault(record.strategy, []).append(
            summarize_record(record, lexicon)
        )

    print(f"scene={scene_name} runs={args.runs} max_steps={args.max_steps}\n")
    header = f"{'strategy':<56} {'chair_i':>8} {'cover':>7} {'score':>7} {'hal rate':>9} {'calls/tok':>10}"
    print(header)
    print("-" * len(header))
    for strategy in strategies:
        runs = by_label[strategy.label()]
        corpus = simulated_metrics(runs, lexicon, scene.cognition_objects)
        tokens = sum(len(r.chosen) for r in runs)
        calls = sum(sum(r.provider_calls) for r in runs)
        print(
            f"{strategy.label():<56} {corpus.chair_i:>8.4f} {corpus.cover:>7.4f} "
            f"{corpus.object_score:>7.4f} {hal_noun_rate(runs, lexicon):>9.4f} "
            f"{calls / tokens:>10.2f}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="default")
    parser.add_argument("--strategies", default=DEFAULT_STRATEGIES,
                        help="semicolon-separated strategy descriptors")
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--max-steps", type=int, default=60, dest="max_steps")
    main(parser.parse_args())
