"""End-to-end CLI checks: file outputs, determinism, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from logit_anchor import cli
from logit_anchor.cli import main, sanitize_label
from logit_anchor.config import SEED_ENV_VAR

DATA = Path(cli.__file__).parent / "data"
GOLDEN = [
    "--captions", str(DATA / "golden_captions.jsonl"),
    "--annotations", str(DATA / "golden_annotations.json"),
    "--lexicon", str(DATA / "golden_lexicon.json"),
]


@pytest.fixture(autouse=True)
def _no_env_seeds(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--strategies", "baseline;flb", "--seeds", "0,1",
            "--max-steps", "20", "--out", out,
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "curves.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["scene"] == "default"
        assert manifest["seeds"] == [0, 1]
        assert manifest["max_steps"] == 20
        assert manifest["full_dist"] is False
        labels = manifest["strategies"]
        assert labels[0] == "baseline"
        for label in labels:
            for seed in (0, 1):
                assert (out / "traces" / sanitize_label(label) / f"{seed}.jsonl").exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report["strategies"]) == set(labels)
        block = report["strategies"]["baseline"]
        assert block["traces"]["provider_calls_per_token"] == 1.0
        assert capsys.readouterr().out.startswith("simulated 4 runs")

    def test_byte_determinism_and_jobs(self, tmp_path):
        outs = [tmp_path / f"o{i}" for i in range(3)]
        jobs = ["1", "1", "4"]
        for out, j in zip(outs, jobs):
            assert run_cli(
                "simulate", "--strategies", "baseline;vcd", "--seeds", "0:3",
                "--max-steps", "15", "--jobs", j, "--out", out,
            ) == 0
        ref = (outs[0] / "report.json").read_bytes()
        for out in outs[1:]:
            assert (out / "report.json").read_bytes() == ref
            assert (out / "report.csv").read_bytes() == (outs[0] / "report.csv").read_bytes()
        trace = "traces/baseline/2.jsonl"
        assert (outs[2] / trace).read_bytes() == (outs[0] / trace).read_bytes()

    def test_full_dist_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0",
            "--max-steps", "5", "--full-dist", "--out", out,
        ) == 0
        trace = out / "traces" / "baseline" / "0.jsonl"
        assert b'"dist"' in trace.read_bytes()
        assert json.loads((out / "manifest.json").read_text())["full_dist"] is True

    def test_format_json_only(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0",
            "--max-steps", "5", "--format", "json", "--out", out,
        ) == 0
        assert (out / "report.json").exists()
        assert not (out / "report.csv").exists()
        assert not (out / "curves.csv").exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "41,42")
        out = tmp_path / "out"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0:9",
            "--max-steps", "5", "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [41, 42]
        assert (out / "traces" / "baseline" / "42.jsonl").exists()

    def test_bad_strategy_exits_2(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--strategies", "warp", "--out", tmp_path / "o"
        ) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor, message", [
        ("flb:lambda=", "lambda has an empty value"),
        ("baseline:beta=0.1,beta=0.2", "beta is given more than once"),
    ])
    def test_silent_default_descriptor_exits_2(self, tmp_path, capsys, descriptor, message):
        assert run_cli(
            "simulate", "--strategies", descriptor, "--seeds", "0",
            "--out", tmp_path / "o",
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_bad_scene_exits_2(self, tmp_path):
        assert run_cli(
            "simulate", "--scene", "atlantis", "--out", tmp_path / "o"
        ) == 2

    @pytest.mark.parametrize("flags, message", [
        (("--strategies", "vcd:alpha=inf"), "alpha must be finite"),
        (("--strategies", "vcd:alpha=nan"), "alpha must be finite"),
        (("--temperature", "nan"), "temperature must be finite"),
        (("--temperature", "inf"), "temperature must be finite"),
    ])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flags, message):
        assert run_cli(
            "simulate", *flags, "--seeds", "0", "--max-steps", "5", "--out", tmp_path / "o"
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, label", [
        (("--strategies", "flb:gamma=1e308"), "flb(increasing,gamma=1e+308,"),
        (("--strategies", "vcd:alpha=1e308"), "vcd(alpha=1e+308,"),
        (("--strategies", "baseline", "--temperature", "1e-320"), "baseline: "),
    ])
    def test_overflowing_setting_exits_2(self, tmp_path, capsys, flags, label):
        assert run_cli("simulate", *flags, "--seeds", "0:3", "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {label}") and "step " in err and "temperature" in err
        assert not (tmp_path / "o").exists()

    def test_large_safe_setting_decodes(self, tmp_path):
        assert run_cli(
            "simulate", "--strategies", "flb:gamma=1e200", "--seeds", "0:3",
            "--out", tmp_path / "o",
        ) == 0

    @pytest.mark.parametrize("edit, message", [
        ({"noise_sigma": float("nan")}, "noise_sigma must be finite"),
        ({"decay_kappa": float("nan")}, "decay_kappa must be finite"),
        ({"decay_depth": float("inf")}, "decay_depth must be finite"),
        ({"grammar_penalty": float("inf")}, "grammar_penalty must be finite"),
        ({"base_logits": 0}, "base logit of 'The' must be finite"),
    ])
    def test_non_finite_scene_value_exits_2(self, tmp_path, capsys, scene, edit, message):
        from logit_anchor import scene_to_dict

        spec = scene_to_dict(scene)
        if "base_logits" in edit:
            spec["base_logits"][edit["base_logits"]] = float("nan")
        else:
            spec.update(edit)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))  # writes NaN / Infinity, which json reads back
        assert run_cli(
            "simulate", "--scene", path, "--seeds", "0", "--max-steps", "5",
            "--out", tmp_path / "o",
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_closed_stdout_exits_cleanly(self, tmp_path):
        import os
        import subprocess
        import sys

        out = tmp_path / "o"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop(SEED_ENV_VAR, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "logit_anchor.cli", "simulate", "--seeds", "0:5",
             "--max-steps", "10", "--format", "json", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader goes away before anything is printed
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"BrokenPipeError" not in err
        report = json.loads((out / "report.json").read_text())
        assert len(report["strategies"]) == 5
        assert len(list((out / "traces").rglob("*.jsonl"))) == 25


class TestEvaluateCorpus:
    def test_golden_values(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("evaluate", *GOLDEN, "--out", out)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "chair_i=0.2857" in stdout
        assert "chair_s=0.8000" in stdout
        assert "cover=0.9091" in stdout
        assert "cog=0.7500" in stdout
        assert "object_score=0.8117" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["corpus"]["counts"]["mentions"] == 14
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("chair_i,chair_s,cover")
        assert len(csv_lines) == 2

    def test_no_out_still_prints(self, capsys):
        assert run_cli("evaluate", *GOLDEN) == 0
        assert "object_score=" in capsys.readouterr().out

    def test_missing_flags_exit_2(self, capsys):
        assert run_cli("evaluate", "--captions", GOLDEN[1]) == 2
        assert "--annotations" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        argv = list(GOLDEN)
        argv[1] = str(tmp_path / "absent.jsonl")
        assert run_cli("evaluate", *argv) == 3

    def test_malformed_captions_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "text": "a dog"}\n{oops\n')
        argv = list(GOLDEN)
        argv[1] = str(bad)
        assert run_cli("evaluate", *argv) == 3
        assert "bad.jsonl:2" in capsys.readouterr().err

    def test_bad_lexicon_exits_3(self, tmp_path):
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps({"cat": ["kitty"], "kitten": ["kitty"]}))
        argv = list(GOLDEN)
        argv[5] = str(lex)
        assert run_cli("evaluate", *argv) == 3

    @pytest.mark.parametrize("index, name, edit, key", [
        (5, "lex.json", lambda lex: {**lex, "dog": 5}, "'dog'"),
        (1, "caps.jsonl", lambda caps: [*caps, {"id": "img9", "tokens": 5}], "'tokens'"),
        (3, "ann.json", lambda ann: [{**ann[0], "gt_objects": "dog"}, *ann[1:]], "gt_objects"),
        (3, "ann.json", lambda ann: [{**ann[0], "cognition_objects": "cat"}, *ann[1:]],
         "cognition_objects"),
    ], ids=["lexicon_forms", "caption_tokens", "gt_objects", "cognition_objects"])
    def test_malformed_value_exits_3_naming_file_and_key(
        self, tmp_path, capsys, index, name, edit, key
    ):
        source = Path(GOLDEN[index])
        if name.endswith(".jsonl"):
            lines = [json.loads(line) for line in source.read_text().splitlines()]
            text = "\n".join(json.dumps(line) for line in edit(lines)) + "\n"
        else:
            text = json.dumps(edit(json.loads(source.read_text())))
        bad = tmp_path / name
        bad.write_text(text)
        argv = list(GOLDEN)
        argv[index] = str(bad)
        assert run_cli("evaluate", *argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and key in err

    @pytest.mark.parametrize("index", [3, 5], ids=["annotations", "lexicon"])
    def test_unreadable_json_input_exits_3(self, tmp_path, capsys, index):
        argv = list(GOLDEN)
        argv[index] = str(tmp_path / "absent.json")
        assert run_cli("evaluate", *argv) == 3
        assert "absent.json" in capsys.readouterr().err


def _add_notes_file(strategy_dir):
    path = strategy_dir / "notes.jsonl"
    path.write_text("{}\n")
    return path


def _edit_line(path, index, edit):
    """Replace line ``index`` of a JSONL file by ``edit`` of its record."""
    lines = path.read_text().splitlines()
    lines[index] = json.dumps(edit(json.loads(lines[index])))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEvaluateTraces:
    def test_rescore_matches_simulate_report(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline;flb", "--seeds", "0:4",
            "--max-steps", "20", "--out", sim_out,
        ) == 0
        eval_out = tmp_path / "eval"
        assert run_cli("evaluate", "--traces", sim_out, "--out", eval_out) == 0
        assert (eval_out / "report.json").read_bytes() == \
            (sim_out / "report.json").read_bytes()
        assert (eval_out / "report.csv").read_bytes() == \
            (sim_out / "report.csv").read_bytes()

    def test_not_a_trace_dir_exits_3(self, tmp_path, capsys):
        assert run_cli("evaluate", "--traces", tmp_path) == 3
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda m: {**m, "bin_width": "x"}, "bin_width"),
        (lambda m: {k: v for k, v in m.items() if k != "scene_spec"}, "scene_spec"),
        (lambda m: [m], "JSON object"),
        (lambda m: {**m, "bin_width": 0}, "bin_width"),
    ], ids=["bin_width_text", "no_scene_spec", "array", "bin_width_zero"])
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, edit, named):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0", "--max-steps", "5",
            "--out", sim_out,
        ) == 0
        manifest = sim_out / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and named in err

    @pytest.mark.parametrize("edit", [
        _add_notes_file,
        lambda d: _edit_line(
            d / "0.jsonl", 0, lambda h: {k: v for k, v in h.items() if k != "seed"}
        ),
        lambda d: _edit_line(d / "0.jsonl", 0, lambda h: {**h, "n_steps": "x"}),
        lambda d: _edit_line(d / "0.jsonl", 1, lambda s: list(s.values())),
        lambda d: _edit_line(d / "0.jsonl", 0, lambda h: {**h, "seed": 1}),
    ], ids=["other_jsonl_file", "header_without_seed", "n_steps_text", "step_array",
            "header_seed_not_file_name"])
    def test_malformed_trace_exits_3_naming_the_file(self, tmp_path, capsys, edit):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0:2", "--max-steps", "5",
            "--out", sim_out,
        ) == 0
        bad = edit(sim_out / "traces" / "baseline")
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}")

    @pytest.mark.parametrize("line, field, value", [
        (0, "seed", 3.5), (0, "n_steps", 5.0001), (1, "t", 2.9), (1, "chosen", 1.5),
        (1, "provider_calls", True),
    ])
    def test_non_integer_trace_field_exits_3_naming_it(
        self, tmp_path, capsys, line, field, value
    ):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0", "--max-steps", "5",
            "--out", sim_out,
        ) == 0
        bad = _edit_line(
            sim_out / "traces" / "baseline" / "0.jsonl", line, lambda r: {**r, field: value}
        )
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line + 1}: ") and f"{field}: {value!r}" in err


class TestSweep:
    def test_small_grid_ranked(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--gammas", "0,0.3", "--lams", "0.05", "--betas", "0.1",
            "--seeds", "0:6", "--max-steps", "25", "--out", out,
        )
        assert code == 0
        data = json.loads((out / "sweep.json").read_text())
        rows = data["rows"]
        assert len(rows) == 2
        assert [r["rank"] for r in rows] == [1, 2]
        assert rows[0]["best"] is True and rows[1]["best"] is False
        assert rows[0]["object_score"] >= rows[1]["object_score"]
        # boosting beats the gamma=0 cell on the default scene
        assert rows[0]["gamma"] == 0.3
        assert (out / "sweep.csv").read_text().splitlines()[0].startswith("rank,best")
        assert "rank=1" in capsys.readouterr().out

    def test_config_file_and_unknown_key(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "gammas": [0.3], "lams": [0.05], "seeds": [0, 1], "max_steps": 10,
        }))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        assert len(json.loads((out / "sweep.json").read_text())["rows"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gamas": [0.3]}))
        assert run_cli("sweep", "--config", bad, "--out", out) == 2

    def test_repeated_grid_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "sweep", "--gammas", "0.3,0.3", "--lams", "0.05", "--seeds", "0:2",
            "--max-steps", "5", "--out", out,
        ) == 2
        err = capsys.readouterr().err
        assert "'flb(increasing,gamma=0.3,lam=0.05,beta=0.1,mask=full)' repeats" in err
        assert not out.exists()


class TestBench:
    def test_cheap_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "bench", "--strategies", "baseline;vcd;flb", "--seeds", "0:3",
            "--max-steps", "20", "--min-tokens", "10", "--out", out,
        )
        assert code == 0
        data = json.loads((out / "bench.json").read_text())
        assert data["cost_model"] == {"kind": "cheap", "pad_us": 0.0}
        by = {r["strategy"]: r for r in data["rows"]}
        assert by["baseline"]["provider_calls_per_token"] == 1.0
        assert [r for r in by if r.startswith("vcd")]
        vcd = next(r for r in data["rows"] if r["strategy"].startswith("vcd"))
        assert vcd["provider_calls_per_token"] == 2.0
        assert (out / "bench.csv").exists()
        assert "calls/token" in capsys.readouterr().out

    def test_min_tokens_exit_3(self, tmp_path):
        assert run_cli(
            "bench", "--strategies", "baseline", "--seeds", "0",
            "--max-steps", "5", "--out", tmp_path / "o",
        ) == 3

    def test_bad_cost_model_exit_2(self, tmp_path):
        assert run_cli(
            "bench", "--cost-model", "metered", "--out", tmp_path / "o"
        ) == 2


class TestAblate:
    def test_four_variants(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--seeds", "0:5", "--max-steps", "25", "--out", out,
        )
        assert code == 0
        data = json.loads((out / "ablate.json").read_text())
        assert [r["variant"] for r in data["rows"]] == \
            ["baseline", "nouns_only", "the_only", "full"]
        assert data["gamma"] == 0.3 and data["lam"] == 0.05 and data["beta"] == 0.1
        lines = (out / "ablate.csv").read_text().splitlines()
        assert len(lines) == 5
        assert "hal_rate=" in capsys.readouterr().out


BAD_CONFIG_VALUES = [
    ("max_steps", "abc"),
    ("seeds", [1.5, 2]),
    ("seeds", [1.5]),
    ("seeds", 5),
    ("seeds", [True]),
    ("temperature", "hot"),
]


class TestConfigFileValues:
    @pytest.mark.parametrize("command, key, value", [
        *[(command, key, value)
          for command in ("simulate", "sweep") for key, value in BAD_CONFIG_VALUES],
        ("simulate", "bin_width", "x"),
        ("sweep", "gammas", [0.3, "x"]),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, command, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [0], "max_steps": 3, key: value}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()


    @pytest.mark.parametrize("command", ["simulate", "sweep", "bench", "ablate"])
    def test_empty_seed_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run_cli(command, "--seeds", "", "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: seeds: no seeds given")
        assert not out.exists()


# The columns sweep and ablate rows share with simulate's report.
SHARED_METRICS = ("chair_i", "chair_s", "cover", "cog", "object_score", "hal_noun_rate")


class TestSharedScoring:
    """simulate, sweep and ablate score a strategy's runs the same way."""

    def test_ablate_and_sweep_rows_equal_simulate_report(self, tmp_path):
        common = ("--seeds", "0:6", "--max-steps", "25", "--format", "json")
        assert run_cli(
            "simulate", "--strategies", "baseline;flb:mask=nouns;flb:mask=the;flb",
            *common, "--out", tmp_path / "sim",
        ) == 0
        report = json.loads((tmp_path / "sim" / "report.json").read_text())["strategies"]

        def simulated(label):
            corpus, traces = report[label]["corpus"], report[label]["traces"]
            return {
                **{key: corpus[key] for key in SHARED_METRICS[:-1]},
                "hal_noun_rate": traces["hal_noun_rate"],
                "sentence_initial_the": traces["sentence_initial_the"]["fraction"],
            }

        assert run_cli("ablate", *common, "--out", tmp_path / "ablate") == 0
        rows = json.loads((tmp_path / "ablate" / "ablate.json").read_text())["rows"]
        assert sorted(row["label"] for row in rows) == sorted(report)
        for row in rows:
            columns = (*SHARED_METRICS, "sentence_initial_the")
            assert {key: row[key] for key in columns} == simulated(row["label"])

        assert run_cli(
            "sweep", "--gammas", "0.3", "--lams", "0.05", "--betas", "0.1",
            *common, "--out", tmp_path / "sweep",
        ) == 0
        (row,) = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"]
        assert row["label"] == "flb(increasing,gamma=0.3,lam=0.05,beta=0.1,mask=full)"
        expected = simulated(row["label"])
        assert {key: row[key] for key in SHARED_METRICS} == \
            {key: expected[key] for key in SHARED_METRICS}


class TestParser:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_sanitize_label(self):
        assert sanitize_label("flb(increasing,gamma=0.3)") == "flb(increasing,gamma=0.3)"
        assert sanitize_label("a b/c") == "a_b_c"
