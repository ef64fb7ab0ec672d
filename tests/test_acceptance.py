"""Release gate: twelve checks covering exactness, equivalence, direction,
cost accounting, and determinism.

Each check prints one "[acceptance] C<n> <name>: PASS" (or FAIL) line on the
real terminal, bypassing capture, so a plain pytest run shows the verdicts.
Statistical checks run on fixed seeds and are therefore exactly reproducible;
the thresholds below are pinned, not tuned per run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import oracle
from logit_anchor import (
    CostModel,
    Strategy,
    TraceLexicon,
    WeightSchedule,
    cli,
    entropy_stats,
    hal_noun_rate,
    object_score,
    parse_strategy,
    positional_curves,
    run_bench,
    run_many,
    scene_from_dict,
    scene_to_dict,
    sentence_initial_stats,
    summarize_record,
    weight_at,
)
from logit_anchor.metrics import corpus_metrics, golden_corpus
from logit_anchor.simulator import AFTER_CONNECTIVE, START, default_scene
from logit_anchor.strategies import _below_cut, _entropies


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(n: int, name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] C{n} {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"[acceptance] C{n} {name}: PASS")

    return _report


def summarized(scene, lexicon, strategy, seeds, max_steps=60):
    records = run_many(scene, [strategy], seeds, max_steps=max_steps, jobs=4)
    return [summarize_record(r, lexicon) for r in records]


@pytest.fixture(scope="module")
def paired_arms():
    """200-seed default-scene runs for baseline, full FLB, and both masks."""
    scene = default_scene()
    lexicon = TraceLexicon.from_scene(scene)
    seeds = tuple(range(200))
    arms = {
        name: summarized(scene, lexicon, parse_strategy(text), seeds)
        for name, text in (
            ("baseline", "baseline"),
            ("full", "flb"),
            ("nouns_only", "flb:mask=nouns"),
            ("the_only", "flb:mask=the"),
        )
    }
    return scene, lexicon, arms


def per_seed_rates(runs, lexicon) -> np.ndarray:
    return np.asarray([hal_noun_rate([run], lexicon) for run in runs])


def test_c01_weight_schedule_exactness(report):
    with report(1, "weight schedule exactness"):
        start = time.perf_counter()
        schedule = WeightSchedule("increasing", gamma=0.3, lam=0.05)
        for t in (0, 1, 5, 20, 100):
            closed = 0.3 * (1.0 - math.exp(-0.05 * t))
            assert abs(weight_at(schedule, t) - closed) <= 1e-12
        weights = [weight_at(schedule, t) for t in range(400)]
        assert all(a <= b for a, b in zip(weights, weights[1:]))
        assert schedule.converged_step() == 280
        for t in range(280, 400):
            assert abs(weights[t] - 0.3) < 1e-6
        assert time.perf_counter() - start < 1.0


def test_c02_plausibility_oracle_equivalence(report):
    with report(2, "plausibility oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240)
        for _ in range(10_000):
            size = int(rng.integers(2, 65))
            probs = rng.random(size)
            probs /= probs.sum()
            beta = float(rng.random())
            # The loop's cut, given the probabilities and their largest.
            got = ~_below_cut(probs, probs.max(), beta)
            top = max(float(p) for p in probs)
            want = [float(p) >= beta * top for p in probs]
            assert got.tolist() == want
            assert got[int(np.argmax(probs))]
        assert time.perf_counter() - start < 5.0


def test_c03_degeneracy_equivalences(report):
    with report(3, "degeneracy equivalences"):
        start = time.perf_counter()
        scene = default_scene()
        seeds = tuple(range(50))
        constrained = Strategy(kind="baseline", beta=0.1)
        pure = Strategy(kind="baseline")
        pairs = [
            (parse_strategy("flb:gamma=0"), constrained),
            (parse_strategy("vcd:alpha=0"), constrained),
            (parse_strategy("flb:gamma=0,beta=0"), pure),
        ]
        for reduced, target in pairs:
            got = run_many(scene, [reduced], seeds, max_steps=60)
            want = run_many(scene, [target], seeds, max_steps=60)
            for g, w in zip(got, want):
                assert g.token_ids == w.token_ids
        assert time.perf_counter() - start < 10.0


def test_c04_call_count_law(report):
    with report(4, "call count law"):
        scene = default_scene()
        single = ("baseline", "greedy", "flb")
        double = ("vcd", "icd", "m3id")
        strategies = [parse_strategy(s) for s in single + double]
        expected = {
            strategy.label(): 1 if text in single else 2
            for text, strategy in zip(single + double, strategies)
        }
        records = run_many(scene, strategies, range(10), max_steps=40, record=True)
        for record in records:
            k = expected[record.strategy]
            assert record.steps
            assert all(step.provider_calls == k for step in record.steps)
            assert sum(step.provider_calls for step in record.steps) \
                == k * len(record.steps)
        bench = run_bench(
            scene, strategies, range(10), max_steps=40, min_tokens=100
        )
        for strategy in strategies:
            row = bench.row(strategy.label())
            k = expected[strategy.label()]
            assert row.provider_calls_per_token == float(k)
            assert row.provider_calls == k * row.tokens_measured


def test_c05_latency_direction(report):
    with report(5, "latency direction"):
        start = time.perf_counter()
        scene = default_scene()
        strategies = [
            Strategy(kind="baseline"),
            parse_strategy("vcd"),
            parse_strategy("flb"),
        ]
        bench = run_bench(
            scene, strategies, range(60),
            CostModel("padded", 500.0), max_steps=60, min_tokens=2000,
        )
        for row in bench.rows:
            assert row.tokens_measured >= 2000
        base = bench.row("baseline").wall_ms_per_token
        vcd_ratio = bench.row(strategies[1].label()).wall_ms_per_token / base
        flb_ratio = bench.row(strategies[2].label()).wall_ms_per_token / base
        assert 1.8 <= vcd_ratio <= 2.2
        assert flb_ratio <= 1.05
        assert time.perf_counter() - start < 120.0


def test_c06_metric_golden_corpus(report):
    with report(6, "metric golden corpus"):
        captions, annotations, lexicon = golden_corpus()
        got = corpus_metrics(captions, annotations, lexicon)
        assert got.chair_i == float(Fraction(4, 14))
        assert got.chair_s == float(Fraction(4, 5))
        assert got.cover == float(Fraction(10, 11))
        assert got.recall == float(Fraction(10, 11))
        assert got.cog == float(Fraction(3, 4))
        assert got.object_score == pytest.approx(float(Fraction(125, 154)), abs=1e-12)
        assert object_score(6.1, 50.4, percent=True) == pytest.approx(72.15, abs=0.001)


def test_c07_decay_mitigation_direction(report, paired_arms):
    with report(7, "decay mitigation direction"):
        start = time.perf_counter()
        scene, lexicon, arms = paired_arms
        base_rates = per_seed_rates(arms["baseline"], lexicon)
        flb_rates = per_seed_rates(arms["full"], lexicon)
        assert hal_noun_rate(arms["full"], lexicon) \
            < hal_noun_rate(arms["baseline"], lexicon)
        wins = int((flb_rates < base_rates).sum())
        losses = int((flb_rates > base_rates).sum())
        n = wins + losses
        p_value = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n
        assert p_value < 0.01
        late = lambda runs: next(
            b for b in positional_curves(runs, lexicon, bin_width=20) if b.lo == 40
        )
        assert late(arms["full"]).hal_mass <= late(arms["baseline"]).hal_mass
        assert time.perf_counter() - start < 60.0


def test_c08_ablation_ordering(report, paired_arms):
    with report(8, "ablation ordering"):
        start = time.perf_counter()
        scene, lexicon, arms = paired_arms
        base = hal_noun_rate(arms["baseline"], lexicon)
        nouns_only = hal_noun_rate(arms["nouns_only"], lexicon)
        the_only = hal_noun_rate(arms["the_only"], lexicon)
        full = hal_noun_rate(arms["full"], lexicon)
        assert nouns_only < base
        assert the_only < base
        best_arm = "nouns_only" if nouns_only <= the_only else "the_only"
        diffs = per_seed_rates(arms["full"], lexicon) \
            - per_seed_rates(arms[best_arm], lexicon)
        stderr = float(diffs.std(ddof=1)) / math.sqrt(len(diffs))
        assert full <= min(nouns_only, the_only) + stderr
        assert time.perf_counter() - start < 120.0


def test_c09_beta_zero_failure_regression(report):
    with report(9, "beta=0 failure regression"):
        start = time.perf_counter()
        spec = scene_to_dict(default_scene())
        spec["base_logits"][spec["tokens"].index("The")] = 9.0
        spike = scene_from_dict(spec)
        article_ids = {int(spike.vocabulary.id_of(a)) for a in spike.articles}

        def runs_with_misplaced_article(strategy, seeds) -> int:
            records = run_many(spike, [strategy], seeds, max_steps=60, jobs=4, record=True)
            bad = 0
            for record in records:
                chosen = [step.chosen for step in record.steps]
                hit = False
                for t, token in enumerate(chosen):
                    state = oracle.grammar_state(spike, chosen[:t])
                    inadmissible = state not in (START, AFTER_CONNECTIVE)
                    if token in article_ids and inadmissible:
                        hit = True
                bad += hit
            return bad

        unconstrained = runs_with_misplaced_article(
            parse_strategy("flb:beta=0"), range(50)
        )
        constrained = runs_with_misplaced_article(
            parse_strategy("flb:beta=0.1"), range(200)
        )
        assert unconstrained >= 1
        assert constrained == 0
        assert time.perf_counter() - start < 30.0


def test_c10_entropy_pipeline(report, paired_arms):
    with report(10, "entropy pipeline"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            size = int(rng.integers(2, 65))
            probs = rng.random(size)
            probs /= probs.sum()
            brute = -sum(float(p) * math.log(float(p)) for p in probs if p > 0)
            assert abs(float(_entropies(probs)) - brute) <= 1e-9
        _, lexicon, arms = paired_arms
        cells = entropy_stats(arms["baseline"], lexicon)
        assert cells["hal_nouns"].count > 0 and cells["gt_nouns"].count > 0
        assert cells["hal_nouns"].mean_entropy > cells["gt_nouns"].mean_entropy
        assert time.perf_counter() - start < 30.0


def test_c11_sentence_initial_shift(report, paired_arms):
    with report(11, "sentence initial shift"):
        start = time.perf_counter()
        _, _, arms = paired_arms
        base = sentence_initial_stats(arms["baseline"]).the_fraction
        boosted = sentence_initial_stats(arms["full"]).the_fraction
        assert boosted > base
        assert time.perf_counter() - start < 30.0


def test_c12_determinism(report, tmp_path, monkeypatch):
    with report(12, "determinism"):
        monkeypatch.delenv("LOGIT_ANCHOR_SEED", raising=False)
        outs = [tmp_path / f"run{i}" for i in range(3)]
        for out, jobs in zip(outs, ("1", "1", "4")):
            code = cli.main([
                "simulate", "--strategies", "baseline;vcd;flb",
                "--seeds", "0:6", "--max-steps", "25",
                "--jobs", jobs, "--out", str(out), "--format", "json",
            ])
            assert code == 0
        reference = (outs[0] / "report.json").read_bytes()
        assert (outs[1] / "report.json").read_bytes() == reference
        assert (outs[2] / "report.json").read_bytes() == reference
        assert json.loads(reference)["strategies"]
