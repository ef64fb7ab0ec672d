#!/usr/bin/env python3
"""Next-token entropy around noun emissions, split by the preceding article.

Two related observations on the default scene: hallucinated-noun emissions
happen at visibly higher entropy than grounded ones, and nouns sampled right
after "The" are both lower-entropy and more often grounded than nouns after
the other articles (the scene grounds "The" hardest). Boosting shifts both
tables toward the grounded side.
"""

import argparse

from logit_anchor import (
    Strategy,
    TraceLexicon,
    article_stats,
    entropy_stats,
    parse_strategy,
    run_many,
    summarize_record,
)
from logit_anchor.config import resolve_scene

GROUPS = ("all_nouns", "gt_nouns", "hal_nouns", "after_the", "after_a", "after_other")


def main(args):
    scene, scene_name = resolve_scene(args.scene)
    lexicon = TraceLexicon.from_scene(scene)
    strategies = [
        ("baseline", Strategy(kind="baseline")),
        ("boosted", parse_strategy("flb")),
    ]
    print(f"scene={scene_name} runs={args.runs}\n")
    for name, strategy in strategies:
        records = run_many(scene, [strategy], range(args.runs), max_steps=args.max_steps)
        runs = [summarize_record(r, lexicon) for r in records]

        cells = entropy_stats(runs, lexicon)
        print(f"{name}: mean next-token entropy (nats)")
        for group in GROUPS:
            cell = cells[group]
            print(f"  {group:<12} {cell.mean_entropy:7.4f}  (n={cell.count})")

        arts = article_stats(runs, lexicon)
        for label, cell in (("after The", arts.after_the), ("after A/a", arts.after_a)):
            total = cell.gt_count + cell.hal_count
            if total:
                print(f"  {label:<12} grounded {cell.gt_count}/{total} ({cell.gt_share:.3f})")
        print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="default")
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--max-steps", type=int, default=60, dest="max_steps")
    main(parser.parse_args())
