"""Cost model parsing and exact provider-call accounting."""

from __future__ import annotations

import re
import time

import numpy as np
import pytest

from logit_anchor import runner
from logit_anchor import (
    ConfigError,
    CostModel,
    InputError,
    PaddedProvider,
    Strategy,
    SyntheticProvider,
    parse_cost_model,
    parse_strategy,
    run_bench,
)


class TestCostModel:
    def test_parse_cheap(self):
        assert parse_cost_model("cheap") == CostModel("cheap", 0.0)
        assert parse_cost_model("  CHEAP ") == CostModel("cheap", 0.0)

    def test_parse_padded(self):
        assert parse_cost_model("padded:500") == CostModel("padded", 500.0)
        assert parse_cost_model("padded:2.5") == CostModel("padded", 2.5)

    @pytest.mark.parametrize(
        "text", ["padded", "padded:", "padded:soon", "warp", "cheap:5",
                 "padded:nan", "padded:inf", "padded:1_0", "padded:٣"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_cost_model(text)

    def test_pad_longer_than_a_second_rejected(self):
        """A 1e308 us pad passed the finite-and-positive check, and every call then hung."""
        assert parse_cost_model("padded:1e6").pad_us == 1e6
        for text, named in (("padded:1e308", "1e+308"), ("padded:1000000.5", "1000000.5")):
            with pytest.raises(ConfigError, match=re.escape(named)):
                parse_cost_model(text)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            CostModel("padded", 0.0)
        with pytest.raises(ConfigError):
            CostModel("cheap", 1.0)
        with pytest.raises(ConfigError):
            CostModel("metered")


class TestPaddedProvider:
    def test_delegates_and_counts(self, scene):
        inner = SyntheticProvider(scene)
        padded = PaddedProvider(inner, pad_us=200.0)
        assert padded.vocab is inner.vocab
        assert padded.eos_id == inner.eos_id
        start = time.perf_counter()
        (row,) = padded.logit_rows([()], 0, [np.random.default_rng(3)])
        elapsed = time.perf_counter() - start
        assert padded.calls == inner.calls == 1
        assert elapsed >= 200e-6
        assert type(row) is np.ndarray and row.dtype == np.float64
        assert row.shape == (scene.vocabulary.size,)
        bare = SyntheticProvider(scene)
        assert (row == bare.logit_rows([()], 0, [np.random.default_rng(3)])[0]).all()

    def test_pads_once_per_row(self, scene):
        histories = [(), (1,), (1, 2)]
        padded = PaddedProvider(SyntheticProvider(scene), pad_us=200.0)
        start = time.perf_counter()
        rows = padded.logit_rows(histories, 2, [np.random.default_rng(s) for s in range(3)])
        elapsed = time.perf_counter() - start
        assert padded.calls == 3
        assert elapsed >= 3 * 200e-6
        bare = SyntheticProvider(scene).logit_rows(
            histories, 2, [np.random.default_rng(s) for s in range(3)]
        )
        assert rows.shape == (3, scene.vocabulary.size) and (rows == bare).all()


class TestRunBench:
    def test_cheap_call_ratios_exact(self, scene):
        strategies = [
            Strategy(kind="baseline"),
            parse_strategy("vcd"),
            parse_strategy("flb"),
        ]
        report = run_bench(
            scene, strategies, seeds=range(4), max_steps=30, min_tokens=1
        )
        by = {row.strategy: row for row in report.rows}
        assert by["baseline"].provider_calls_per_token == 1.0
        assert by[strategies[1].label()].provider_calls_per_token == 2.0
        assert by[strategies[2].label()].provider_calls_per_token == 1.0
        for row in report.rows:
            assert row.runs == 4
            assert row.tokens_measured >= 4  # every run emits something
            assert row.wall_ms_per_token > 0.0

    def test_strategies_interleave_seed_by_seed(self, scene, monkeypatch):
        order = []
        inner = runner._decode

        def logging_decode(scene, strategies, seeds, wrap=None, **kwargs):
            (strategy,), (seed,) = strategies, seeds  # one run at a time
            order.append((seed, strategy.label()))
            records = inner(scene, strategies, seeds, wrap, **kwargs)
            assert records[0].steps is None  # the bench reads no per-step vectors
            return records

        monkeypatch.setattr(runner, "_decode", logging_decode)
        strategies = [Strategy(kind="baseline"), parse_strategy("vcd")]
        report = run_bench(scene, strategies, seeds=range(3), max_steps=5, min_tokens=1)
        labels = [s.label() for s in strategies]
        assert order == [(seed, label) for seed in range(3) for label in labels]
        assert [row.strategy for row in report.rows] == labels

    def test_min_tokens_enforced(self, scene):
        with pytest.raises(InputError, match="at least 1000"):
            run_bench(scene, [Strategy(kind="baseline")], seeds=range(2), max_steps=10)

    def test_negative_min_tokens_rejected_before_decoding(self, scene, monkeypatch):
        def no_decoding(*args, **kwargs):
            raise AssertionError("bench decoded a run")

        monkeypatch.setattr(runner, "_decode", no_decoding)
        with pytest.raises(ConfigError, match="min_tokens must be >= 0, got -5"):
            run_bench(scene, [Strategy(kind="baseline")], seeds=range(2), min_tokens=-5)

    @pytest.mark.parametrize("labels, message", [
        ([], "strategies: no strategies given"),
        (["flb", "flb"], "strategy labels must be unique within one run: 'flb"),
    ], ids=["empty", "repeated"])
    def test_bad_strategy_list_rejected_before_decoding(self, scene, monkeypatch, labels, message):
        """An empty list used to give an empty report, and a repeated one two rows
        under one label."""
        def no_decoding(*args, **kwargs):
            raise AssertionError("bench decoded a run")

        monkeypatch.setattr(runner, "_decode", no_decoding)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_bench(scene, [parse_strategy(label) for label in labels], seeds=range(2))

    @pytest.mark.parametrize("seeds, message", [
        ((), "seeds: no seeds given"),
        ((-1,), "seeds: seed -1 is not an integer in [0, 2**64)"),
        ((0, 0), "seeds: duplicate seeds"),
    ], ids=["empty", "negative", "repeated"])
    def test_bad_seed_list_rejected_before_decoding(self, scene, monkeypatch, seeds, message):
        """No seeds used to decode nothing, then divide by zero tokens."""
        def no_decoding(*args, **kwargs):
            raise AssertionError("bench decoded a run")

        monkeypatch.setattr(runner, "_decode", no_decoding)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_bench(scene, [Strategy(kind="baseline")], seeds=seeds, min_tokens=0)

    def test_padded_run_takes_the_rows_route(self, scene, monkeypatch):
        """Padded runs went through the per-row ``logits`` route; they take ``logit_rows``
        as bare runs do."""
        def no_logits(self, history, t, rng):
            raise AssertionError("a padded run called logits")

        monkeypatch.setattr(SyntheticProvider, "logits", no_logits)
        strategies = [Strategy(kind="baseline"), parse_strategy("vcd")]
        report = run_bench(scene, strategies, seeds=range(2), cost_model=CostModel("padded", 1.0),
                           max_steps=5, min_tokens=1)
        assert [row.provider_calls_per_token for row in report.rows] == [1.0, 2.0]

    def test_row_lookup(self, scene):
        report = run_bench(
            scene, [Strategy(kind="baseline")], seeds=range(2), max_steps=10,
            min_tokens=1,
        )
        assert report.row("baseline").strategy == "baseline"
        with pytest.raises(InputError):
            report.row("nope")

    def test_padded_overhead_accounting(self, scene):
        cost = parse_cost_model("padded:300")
        report = run_bench(
            scene, [Strategy(kind="baseline")], seeds=range(3),
            cost_model=cost, max_steps=20, min_tokens=1,
        )
        row = report.rows[0]
        # one 0.3 ms pad per call, so wall time per token must exceed the pad
        assert row.wall_ms_per_token >= 0.3
        assert row.overhead_ms_per_token == pytest.approx(
            row.wall_ms_per_token - 0.3 * row.provider_calls_per_token
        )
        d = report.to_dict()
        assert d["cost_model"] == {"kind": "padded", "pad_us": 300.0}
        assert d["rows"][0]["strategy"] == "baseline"
