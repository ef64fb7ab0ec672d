#!/usr/bin/env python3
"""Score the bundled 5-caption corpus and show how extraction works.

For each caption the script prints the object mentions found by the
longest-match lexicon scan and whether each one is grounded in the
annotation's ground-truth set, then the aggregated corpus metrics. The
numbers are exact small fractions, which makes this corpus a convenient
worked example for the metric definitions.
"""

import argparse

from logit_anchor import corpus_metrics, extract_objects
from logit_anchor.metrics import golden_corpus


def main(args):
    captions, annotations, lexicon = golden_corpus()
    gt_by_id = {a.image_id: a for a in annotations}

    for caption in captions:
        annotation = gt_by_id[caption.image_id]
        mentions = extract_objects(caption, lexicon)
        print(f"{caption.image_id}: {' '.join(caption.tokens)}")
        for mention in mentions:
            grounded = mention.obj in annotation.gt_objects
            tag = "ok " if grounded else "HAL"
            print(f"    [{tag}] {mention.obj} (token {mention.position})")
        missed = set(annotation.gt_objects) - {m.obj for m in mentions}
        if missed and args.verbose:
            print(f"    not mentioned: {', '.join(sorted(missed))}")
        print()

    report = corpus_metrics(captions, annotations, lexicon)
    counts = report.counts
    print(f"chair_i      = {report.chair_i:.4f}  ({counts.hallucinated}/{counts.mentions} mentions hallucinated)")
    print(f"chair_s      = {report.chair_s:.4f}  ({counts.hal_captions}/{counts.matched} captions with a hallucination)")
    print(f"cover        = {report.cover:.4f}  ({counts.covered}/{counts.gt} ground-truth objects reached)")
    print(f"cog          = {report.cog:.4f}  ({counts.cognition_hits}/{counts.hallucinated} hallucinations in the plausible set)")
    print(f"object_score = {report.object_score:.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="also list annotated objects each caption missed")
    main(parser.parse_args())
