"""End-to-end CLI checks: file outputs, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logit_anchor import cli, metrics, runner
from logit_anchor.cli import main, sanitize_label
from logit_anchor.config import SEED_ENV_VAR, SIMULATE_KEYS
from logit_anchor.metrics import CaptionRecord, load_captions_jsonl
from logit_anchor.simulator import default_scene, scene_to_dict

DATA = Path(cli.__file__).parent / "data"
# A JSON value nested far deeper than the decoder's recursion allows.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
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


def _misspelled_knobs(spec):
    return {**spec, "noise_sgima": 5.0, "decay_depht": 9.0}


def _integer_eos(spec):
    return {**spec, "tokens": ["7" if t == "</s>" else t for t in spec["tokens"]], "eos": 7}


def _comma_string_arrays(spec):
    return {**spec, "tokens": ",".join(spec["tokens"]), "articles": ",".join(spec["articles"])}


def _string_number(spec):
    return {**spec, "noise_sigma": "0.3"}


# Scene edits that used to run at exit 0 on a default, a str() reading or a
# reading as flag text, and what an error must name.
BAD_SCENES = pytest.mark.parametrize("edit, named", [
    (_misspelled_knobs, ["'noise_sgima'", "'decay_depht'"]), (_integer_eos, ["eos: 7 "]),
    (_comma_string_arrays, ["tokens: 'The,In,A,a,man,", "is not an array"]),
    (_string_number, ["noise_sigma: '0.3' is not a number"]),
], ids=["misspelled_knobs", "integer_eos", "comma_string_arrays", "string_number"])


class TestSimulate:
    def test_out_holding_an_earlier_run_exits_2(self, tmp_path, capsys):
        """A second run into one --out left the first run's traces/baseline/3..5.jsonl
        beside its own, so evaluate --traces then refused the directory."""
        out = tmp_path / "out"
        argv = ["simulate", "--strategies", "baseline", "--max-steps", "10", "--out", out]
        assert run_cli(*argv, "--seeds", "0:6") == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli(*argv, "--seeds", "0:3") == 2
        assert capsys.readouterr().err == \
            f"error: --out {out}: holds manifest.json and traces of an earlier run\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert run_cli("evaluate", "--traces", out, "--out", tmp_path / "eval") == 0
        assert (tmp_path / "eval" / "report.json").read_bytes() == before[out / "report.json"]

    def test_out_holding_only_traces_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "traces").mkdir(parents=True)
        assert run_cli("simulate", "--seeds", "0", "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out}: holds traces of an earlier run\n"
        assert list(out.iterdir()) == [out / "traces"]

    def test_strategies_apart_only_past_g_precision_run_side_by_side(self, tmp_path):
        """:g printed gamma 0.3000001 as 0.3, so these two strategies shared one label
        and the run exited 2."""
        out = tmp_path / "out"
        assert run_cli("simulate", "--strategies", "flb:gamma=0.3;flb:gamma=0.3000001",
                       "--seeds", "0:2", "--max-steps", "5", "--out", out) == 0
        labels = json.loads((out / "manifest.json").read_text())["strategies"]
        assert [label.split(",")[1] for label in labels] == ["gamma=0.3", "gamma=0.3000001"]
        assert run_cli("evaluate", "--traces", out) == 0

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
        # One batch: the lane whose rows overflow is named, not the first lane.
        (("--strategies", "baseline;flb:gamma=1e308"), "flb(increasing,gamma=1e+308,"),
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

    @pytest.mark.parametrize("flags, named", [
        (["--captions", "/nonexistent.jsonl"], "--captions"),
        (GOLDEN, "--captions, --annotations, --lexicon"),
    ], ids=["captions", "all"])
    def test_corpus_flags_with_traces_exit_2(self, tmp_path, capsys, flags, named):
        """--traces used to win, and --captions went unread."""
        assert run_cli("evaluate", "--traces", tmp_path, *flags) == 2
        assert capsys.readouterr().err == (f"error: --traces re-scores a simulate output; "
                                           f"{named} cannot be given with it\n")

    def test_empty_traces_exits_2(self, capsys):
        """``--traces ''`` fell into corpus mode, whose error asked for --traces."""
        assert run_cli("evaluate", "--traces", "") == 2
        assert capsys.readouterr().err == \
            "error: --traces: '' is empty, not a simulate output directory\n"

    def test_lexicon_not_an_object_exits_3_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "lexicon.json"
        bad.write_text('["dog"]\n')
        assert run_cli("evaluate", *GOLDEN[:4], "--lexicon", bad) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: lexicon must be an object mapping names to form lists")

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
        # A misspelled optional key used to be skipped, and cog read 0.0000 for 0.7500.
        (3, "ann.json", lambda ann: [
            {("cognition_objets" if k == "cognition_objects" else k): v for k, v in a.items()}
            for a in ann], ": unknown annotation keys ['cognition_objets']"),
        # Both forms used to be read as the tokens alone.
        (1, "caps.jsonl", lambda caps: [*caps, {"id": "img9", "text": "a dog", "tokens": ["cat"]}],
         ":6: a caption holds exactly one of 'text' and 'tokens'"),
        (1, "caps.jsonl", lambda caps: [{**caps[0], "txt": "a cat"}, *caps[1:]],
         ":1: unknown caption keys ['txt']"),
        (1, "caps.jsonl", lambda caps: [{"id": "img1"}, *caps[1:]],
         ":1: a caption holds exactly one of 'text' and 'tokens'"),
    ], ids=["lexicon_forms", "caption_tokens", "gt_objects", "cognition_objects",
            "cognition_objects_misspelled", "caption_text_and_tokens", "caption_unknown_key",
            "caption_without_text"])
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

    @pytest.mark.parametrize("index, name, edit, message", [
        (1, "caps.jsonl", lambda caps: [{**caps[0], "id": None}, *caps[1:]],
         ":1: 'id': None is not a string or an integer"),
        (1, "caps.jsonl", lambda caps: [caps[0], {**caps[1], "id": True}, *caps[2:]],
         ":2: 'id': True is not a string or an integer"),
        (1, "caps.jsonl", lambda caps: [*caps, {"id": "img9", "tokens": ["a", 7]}],
         ":6: 'tokens': 7 is not a string"),
        (1, "caps.jsonl", lambda caps: [{**caps[0], "text": 5}, *caps[1:]],
         ":1: 'text': 5 is not a string"),
        (3, "ann.json", lambda ann: [{**ann[0], "id": None}, *ann[1:]],
         ": annotations[0]: id: None is not a string or an integer"),
        (3, "ann.json", lambda ann: [{**ann[0], "gt_objects": [7]}, *ann[1:]],
         ": annotations[0] (id 'img1'): gt_objects: 7 is not a string"),
        (3, "ann.json", lambda ann: [{**ann[0], "cognition_objects": [1.5]}, *ann[1:]],
         ": annotations[0] (id 'img1'): cognition_objects: 1.5 is not a string"),
        # The message used to be the same whichever annotation held the value.
        (3, "ann.json", lambda ann: [ann[0], {"id": 2, "gt_objects": 5}, *ann[2:]],
         ": annotations[1] (id '2'): gt_objects: 5 is not an array"),
        (5, "lex.json", lambda lex: {**lex, "dog": ["dog", 7]},
         ": lexicon entry 'dog': 7 is not a string"),
        # An empty lexicon used to end in a traceback from max() of no words.
        (5, "lex.json", lambda lex: {}, ": a lexicon needs at least one object"),
    ], ids=["caption_id_null", "caption_id_bool", "caption_token_int", "caption_text_int",
            "annotation_id_null", "gt_object_int", "cognition_object_float",
            "second_annotation_gt_objects", "lexicon_form_int", "lexicon_empty"])
    def test_value_of_another_json_type_exits_3(self, tmp_path, capsys, index, name, edit,
                                                message):
        """Ids, names, forms and tokens used to be read with str(): an id null matched an
        annotation "None", and the token 7 the object "7"."""
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
        assert capsys.readouterr().err == f"error: {bad}{message}\n"

    def test_integer_ids_read_as_their_decimal_strings(self, tmp_path, capsys):
        caps, ann = tmp_path / "caps.jsonl", tmp_path / "ann.json"
        caps.write_text('{"id": 7, "text": "a dog"}\n{"id": "8", "tokens": ["cat"]}\n')
        ann.write_text('[{"id": "7", "gt_objects": ["dog"]}, {"id": 8, "gt_objects": ["dog"]}]')
        assert run_cli("evaluate", "--captions", caps, "--annotations", ann,
                       "--lexicon", GOLDEN[5]) == 0
        assert capsys.readouterr().out.startswith("captions=2/2 chair_i=0.5000 ")

    @pytest.mark.parametrize("index", [3, 5], ids=["annotations", "lexicon"])
    def test_unreadable_json_input_exits_3(self, tmp_path, capsys, index):
        argv = list(GOLDEN)
        argv[index] = str(tmp_path / "absent.json")
        assert run_cli("evaluate", *argv) == 3
        assert "absent.json" in capsys.readouterr().err

    def test_caption_holding_a_raw_line_separator_is_one_caption(self, tmp_path, capsys):
        """str.splitlines used to cut this valid JSON line in two at U+2028."""
        caps = tmp_path / "caps.jsonl"
        caps.write_text('{"id": "img1", "text": "A dog\u2028on a bench"}\n', encoding="utf-8")
        argv = list(GOLDEN)
        argv[1] = str(caps)
        assert run_cli("evaluate", *argv) == 0
        assert capsys.readouterr().out.startswith("captions=1/1 ")
        assert load_captions_jsonl(caps.read_text(encoding="utf-8")) == [
            CaptionRecord("img1", ("A", "dog", "on", "a", "bench"))]

    def test_captions_line_holding_only_a_no_break_space_exits_3(self, tmp_path, capsys):
        """JSON whitespace is space, tab, CR and LF: the line used to be read as blank."""
        caps = tmp_path / "caps.jsonl"
        lines = Path(GOLDEN[1]).read_text().splitlines()
        caps.write_text("\n".join([*lines, "\u00a0"]) + "\n", encoding="utf-8")
        argv = list(GOLDEN)
        argv[1] = str(caps)
        assert run_cli("evaluate", *argv) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {caps}:{len(lines) + 1}: malformed JSON (Expecting value)")

    @pytest.mark.parametrize("index", [1, 3, 5], ids=["captions", "annotations", "lexicon"])
    @pytest.mark.parametrize("spoil", ["invalid_utf8", "deep_nesting"])
    def test_undecodable_corpus_file_exits_3_naming_it(self, tmp_path, capsys, index, spoil):
        """A 0xff byte and 100,000 nested lists each used to end in a traceback (exit 1)."""
        source = Path(GOLDEN[index])
        bad = tmp_path / source.name
        if spoil == "invalid_utf8":
            bad.write_bytes(source.read_bytes() + b"\xff\n")
            message = f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
        else:
            bad.write_text(DEEP_JSON + "\n")
            line = ":1" if source.suffix == ".jsonl" else ""
            message = f"error: {bad}{line}: malformed JSON (nested too deeply)"
        argv = list(GOLDEN)
        argv[index] = str(bad)
        assert run_cli("evaluate", *argv) == 3
        assert capsys.readouterr().err.startswith(message)


def _add_notes_file(strategy_dir):
    path = strategy_dir / "notes.jsonl"
    path.write_text("{}\n")
    return path


def _delete_trace(strategy_dir):
    """Deleting one trace used to score the others, while the report still listed its seed."""
    path = strategy_dir / "1.jsonl"
    path.unlink()
    return f"{path}: missing; the manifest lists seed 1"


def _copy_trace(source, path):
    path.write_bytes(source.read_bytes())
    return f"{path}: not the trace of a manifest seed"


def _edit_line(path, index, edit):
    """Replace line ``index`` of a JSONL file by ``edit`` of its record."""
    lines = path.read_text().splitlines()
    lines[index] = json.dumps(edit(json.loads(lines[index])))
    path.write_text("\n".join(lines) + "\n")
    return path


def _rewrite_steps(path, edit):
    """Replace a trace's steps by ``edit`` of them, keeping t, n_steps and text consistent."""
    header, *steps = map(json.loads, path.read_text().splitlines())
    steps = [{**step, "t": t} for t, step in enumerate(edit(steps))]
    header = {**header, "n_steps": len(steps), "text": " ".join(s["token"] for s in steps)}
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in [header, *steps]))
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

    def test_missing_strategy_directory_exits_3_naming_it(self, tmp_path, capsys):
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--strategies", "baseline;flb", "--seeds", "0",
                       "--max-steps", "5", "--out", sim_out) == 0
        label = json.loads((sim_out / "manifest.json").read_text())["strategies"][1]
        shutil.rmtree(sim_out / "traces" / sanitize_label(label))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err == \
            f"error: {sim_out}: missing trace directory for {label!r}\n"

    def test_not_a_trace_dir_exits_3(self, tmp_path, capsys):
        assert run_cli("evaluate", "--traces", tmp_path) == 3
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda m: {**m, "bin_width": "x"}, "bin_width"),
        (lambda m: {k: v for k, v in m.items() if k != "scene_spec"}, "scene_spec"),
        (lambda m: [m], "JSON object"),
        (lambda m: {**m, "bin_width": 0}, "bin_width"),
        # The fields below are copied into report.json, which used to take any value.
        (lambda m: {**m, "max_steps": "abc"}, "max_steps: 'abc'"),
        (lambda m: {**m, "temperature": [1]}, "temperature: [1]"),
        (lambda m: {**m, "seeds": "zz"}, "seeds: 'zz'"),
        (lambda m: {k: v for k, v in m.items() if k != "scene"}, "missing key 'scene'"),
        (lambda m: {**m, "max_steps": 0}, "max_steps must be >= 1, got 0"),
        (lambda m: {**m, "temperature": 0.0}, "temperature must be finite and positive, got 0.0"),
        # Values of another JSON type than simulate writes, once read as flag text.
        (lambda m: {**m, "max_steps": "10"}, "max_steps: '10' is not an integer"),
        (lambda m: {**m, "seeds": ["0", 1.0, 2]}, "seeds: '0' is not an integer"),
        (lambda m: {**m, "seeds": "0"}, "seeds: '0' is not an array"),
        (lambda m: {**m, "scene_spec": {**m["scene_spec"], "noise_sigma": "0.3"}},
         "noise_sigma: '0.3' is not a number"),
        # A key simulate does not write: a misspelled bin_width was scored at 20.
        (lambda m: {**{k: v for k, v in m.items() if k != "bin_width"},
                    "bin_widht": m["bin_width"]}, "unknown manifest keys ['bin_widht']"),
    ], ids=["bin_width_text", "no_scene_spec", "array", "bin_width_zero", "max_steps_text",
            "temperature_list", "seeds_text", "no_scene", "max_steps_zero", "temperature_zero",
            "max_steps_string", "seeds_strings_and_floats", "seeds_seed_string",
            "scene_spec_string_number", "misspelled_bin_width"])
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, edit, named):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0", "--max-steps", "5",
            "--out", sim_out,
        ) == 0
        manifest = sim_out / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out, "--out", tmp_path / "eval") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and named in err
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_manifest_without_bin_width_takes_the_default(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--strategies", "baseline", "--seeds", "0:2",
                       "--max-steps", "30", "--out", sim_out) == 0
        manifest = sim_out / "manifest.json"
        data = json.loads(manifest.read_text())
        assert data.pop("bin_width") == 20
        manifest.write_text(json.dumps(data))
        assert run_cli("evaluate", "--traces", sim_out, "--out", tmp_path / "eval") == 0
        assert (tmp_path / "eval" / "report.json").read_bytes() == \
            (sim_out / "report.json").read_bytes()

    @BAD_SCENES
    def test_bad_scene_spec_key_exits_3_naming_it(self, tmp_path, capsys, edit, named):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0", "--max-steps", "5",
            "--out", sim_out,
        ) == 0
        manifest = sim_out / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "scene_spec": edit(data["scene_spec"])}))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out, "--out", tmp_path / "eval") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and all(t in err for t in named), err
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("edit", [
        _add_notes_file,
        lambda d: _edit_line(
            d / "0.jsonl", 0, lambda h: {k: v for k, v in h.items() if k != "seed"}
        ),
        lambda d: _edit_line(d / "0.jsonl", 0, lambda h: {**h, "n_steps": "x"}),
        lambda d: _edit_line(d / "0.jsonl", 1, lambda s: list(s.values())),
        lambda d: _edit_line(d / "0.jsonl", 0, lambda h: {**h, "seed": 1}),
        # The files must be exactly one <seed>.jsonl per manifest seed.
        _delete_trace,
        lambda d: _copy_trace(d / "1.jsonl", d / "2.jsonl"),
        lambda d: _copy_trace(d / "1.jsonl", d / "01.jsonl"),
    ], ids=["other_jsonl_file", "header_without_seed", "n_steps_text", "step_array",
            "header_seed_not_file_name", "deleted_seed", "seed_not_in_manifest",
            "seed_name_not_canonical"])
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

    @pytest.mark.parametrize("field, value, number", [
        ("entropy", True, 1), ("chosen_prob", "0.5", 1), ("gt_mass", "0", 0), ("hal_mass", False, 0),
    ])
    def test_float_field_not_a_json_number_exits_3_naming_it(
        self, tmp_path, capsys, field, value, number
    ):
        """A bool or a numeric string in a float field used to be scored (true as 1.0)."""
        sim_out, path = self._simulated(tmp_path)
        _edit_line(path, 2, lambda r: {**r, field: number})  # an int is a JSON number
        assert run_cli("evaluate", "--traces", sim_out) == 0
        bad = _edit_line(path, 2, lambda r: {**r, field: value})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:3: bad step record ({field}: {value!r} is not a number)"
        )

    def _simulated(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0", "--max-steps", "10",
            "--out", sim_out,
        ) == 0
        return sim_out, sim_out / "traces" / "baseline" / "0.jsonl"

    @pytest.mark.parametrize("line, field, value", [
        (3, "t", 45), (2, "t", 0), (2, "provider_calls", -5), (2, "provider_calls", 0),
        (2, "chosen_prob", 7.5), (2, "chosen_prob", 0.0), (2, "chosen_prob", -0.0),
        (2, "gt_mass", -0.25), (2, "hal_mass", 1.5),
        (2, "chosen_prob", float("nan")), (2, "entropy", -5.0), (2, "entropy", float("inf")),
        (2, "entropy", float("nan")),
    ])
    def test_impossible_step_field_exits_3_naming_it(self, tmp_path, capsys, line, field, value):
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, line, lambda r: {**r, field: value})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line + 1}: ") and f"{field}: {value!r}" in err

    def test_negative_entropy_exits_3(self, tmp_path, capsys):
        """One step's entropy set to -5.0 used to be scored, moving the mean entropy."""
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0:3", "--max-steps", "10",
            "--out", sim_out,
        ) == 0
        bad = _edit_line(sim_out / "traces" / "baseline" / "0.jsonl", 3,
                         lambda r: {**r, "entropy": -5.0})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}:4: bad step record (entropy: -5.0")

    def test_entropy_above_the_uniform_ones_exits_3(self, tmp_path, capsys):
        """No step over the default scene's 48 tokens has more entropy than ln(48)."""
        sim_out, path = self._simulated(tmp_path)
        _edit_line(path, 2, lambda r: {**r, "entropy": math.log(48) + 1e-10})
        assert run_cli("evaluate", "--traces", sim_out) == 0
        bad = _edit_line(path, 2, lambda r: {**r, "entropy": 3.9})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: step 1: entropy: 3.9 ")

    def test_mass_rounded_above_one_is_read(self, tmp_path):
        """A sum of probabilities may exceed 1 by rounding; the decode loop allows 1e-9."""
        sim_out, path = self._simulated(tmp_path)
        _edit_line(path, 2, lambda r: {**r, "gt_mass": 1.0 + 2**-52, "hal_mass": 0.0})
        assert run_cli("evaluate", "--traces", sim_out) == 0
        _edit_line(path, 2, lambda r: {**r, "gt_mass": 0.5, "hal_mass": 0.5 + 5e-10})
        assert run_cli("evaluate", "--traces", sim_out) == 0

    @pytest.mark.parametrize("gt, hal", [(0.6, 0.5), (1.0, 2e-9)])
    def test_masses_summing_above_one_exit_3(self, tmp_path, capsys, gt, hal):
        """gt and hal mass are sums of disjoint parts of one distribution, so together at most 1."""
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 2, lambda r: {**r, "gt_mass": gt, "hal_mass": hal})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:3: bad step record (gt_mass + hal_mass: {gt!r} + {hal!r} exceeds 1)"
        )

    @pytest.mark.parametrize("edit, named", [
        (lambda r: {**r, "token": "dog" if r["token"] == "cat" else "cat"}, "token: "),
        (lambda r: {**r, "chosen": 999}, "chosen: 999"),
        (lambda r: {**r, "chosen": -1}, "chosen: -1"),
    ], ids=["token_of_another_id", "id_past_vocabulary", "negative_id"])
    def test_step_naming_no_scene_token_exits_3(self, tmp_path, capsys, edit, named):
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 2, edit)
        # The header's text follows the edited token, so only the step's own check can see it.
        tokens = [json.loads(line)["token"] for line in path.read_text().splitlines()[1:]]
        _edit_line(path, 0, lambda h: {**h, "text": " ".join(tokens)})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: step 1: ") and named in err

    def test_header_strategy_of_another_directory_exits_3(self, tmp_path, capsys):
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 0, lambda h: {**h, "strategy": "vcd"})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: header strategy 'vcd'")

    @pytest.mark.parametrize("field, value", [
        ("prompt_id", [1, 2]), ("strategy", ["baseline"]), ("prompt_id", None), ("strategy", 7),
    ])
    def test_header_name_of_another_json_type_exits_3_naming_it(
        self, tmp_path, capsys, field, value
    ):
        """A prompt_id of [1, 2] used to be read as the string '[1, 2]' and scored."""
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 0, lambda h: {**h, field: value})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:1: {field}: {value!r} is not a string\n"
        )

    @pytest.mark.parametrize("field, value", [
        ("seed", "1"), ("seed", 1.0), ("n_steps", "39"), ("n_steps", 39.0),
    ])
    def test_header_number_of_another_json_type_exits_3_naming_it(
        self, tmp_path, capsys, field, value
    ):
        """A seed or n_steps of "1" or 1.0 used to be read as the integer and scored."""
        sim_out, path = self._ends_at_eos(tmp_path)
        bad = _edit_line(path, 0, lambda h: {**h, field: value})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:1: {field}: {value!r} is not an integer\n"
        )

    def _ends_at_eos(self, tmp_path):
        """A simulate output whose seed 1 run ends at EOS after 39 of at most 60 steps."""
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--strategies", "baseline", "--seeds", "0:2", "--max-steps", "60",
            "--out", sim_out,
        ) == 0
        path = sim_out / "traces" / "baseline" / "1.jsonl"
        header = json.loads(path.read_text().splitlines()[0])
        assert header["n_steps"] == 39 and header["text"].endswith(" </s>")
        return sim_out, path

    @pytest.mark.parametrize("edit, fault", [
        # EOS moved to step 1, with 37 steps after it
        (lambda s: [s[0], s[-1], *s[1:-1]], "step 1: chosen: {eos} is EOS, but the run goes on"),
        # 70 steps ending at EOS, past the 60 the decode loop stops at
        (lambda s: [*(s[:-1] * 2)[:69], s[-1]], "70 steps, more than the manifest's max_steps 60"),
        (lambda s: s[:3], "3 steps end without EOS before the manifest's max_steps 60"),
        (lambda s: [], "0 steps end without EOS before the manifest's max_steps 60"),
    ], ids=["eos_not_last", "past_max_steps", "cut_short", "no_steps"])
    def test_run_no_decode_loop_ends_so_exits_3(self, tmp_path, capsys, edit, fault):
        """A run the decode loop cannot retire where it ends used to be scored."""
        sim_out, path = self._ends_at_eos(tmp_path)
        bad = _rewrite_steps(path, edit)
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        eos = default_scene().eos_id
        assert capsys.readouterr().err.startswith(f"error: {bad}: {fault.format(eos=eos)}")

    def test_header_prompt_id_of_another_scene_exits_3(self, tmp_path, capsys):
        """A header naming another scene than the manifest's used to be scored as this one."""
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 0, lambda h: {**h, "prompt_id": "another-scene"})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: header prompt_id 'another-scene' is not the manifest's scene 'default'"
        )

    @pytest.mark.parametrize("edit, message", [
        (lambda h: {**{k: v for k, v in h.items() if k != "n_steps"}, "n_step": 10, "note": ""},
         "unknown run header keys ['n_step', 'note']"),
        (lambda h: {k: v for k, v in h.items() if k != "n_steps"},
         "run header is missing key 'n_steps'"),
    ], ids=["misspelled_and_unknown", "missing"])
    def test_header_key_not_written_exits_3_naming_it(self, tmp_path, capsys, edit, message):
        """A header with n_step for n_steps used to be scored, its step count unchecked."""
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 0, edit)
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err == f"error: {bad}:1: {message}\n"

    def test_header_text_not_the_tokens_exits_3(self, tmp_path, capsys):
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 0, lambda h: {**h, "text": "nonsense"})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:1: text: 'nonsense' is not the steps' tokens"
        )

    def _two_labels(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--seeds", "0:3", "--max-steps", "10", "--strategies", "baseline;vcd",
            "--out", sim_out,
        ) == 0
        return sim_out

    def test_manifest_repeating_a_label_exits_3(self, tmp_path, capsys):
        """A repeated label used to be scored twice over, and the other label's traces ignored."""
        sim_out = self._two_labels(tmp_path)
        manifest = sim_out / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "strategies": ["baseline", "baseline"]}))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: strategy labels must be unique within one run: 'baseline' repeats"
        )

    def test_manifest_label_naming_no_kind_exits_3(self, tmp_path, capsys):
        """A label naming no strategy kind used to be scored under the one-call law."""
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--seeds", "0:3", "--max-steps", "10",
                       "--strategies", "baseline;flb", "--out", sim_out) == 0
        manifest = sim_out / "manifest.json"
        data = json.loads(manifest.read_text())
        flb = data["strategies"][1]
        manifest.write_text(json.dumps({**data, "strategies": ["baseline", "nonsense"]}))
        traces = sim_out / "traces"
        (traces / sanitize_label(flb)).rename(traces / "nonsense")
        for seed in range(3):
            _edit_line(traces / "nonsense" / f"{seed}.jsonl", 0,
                       lambda h: {**h, "strategy": "nonsense"})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err == (
            f"error: {manifest}: strategies: 'nonsense' names no strategy kind\n")

    @pytest.mark.parametrize("field, value", [
        ("token", 5), ("t", "1"), ("chosen", "3"), ("provider_calls", 1.0), ("token", None),
    ])
    def test_step_field_of_another_json_type_exits_3_naming_it(
        self, tmp_path, capsys, field, value
    ):
        """A t of "1" and a token of 5 used to be read as 1 and '5'."""
        sim_out, path = self._simulated(tmp_path)
        bad = _edit_line(path, 2, lambda r: {**r, field: value})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        what = "a string" if field == "token" else "an integer"
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:3: bad step record ({field}: {value!r} is not {what})"
        )

    @pytest.mark.parametrize("spoil", ["invalid_utf8", "deep_nesting", "too_many_digits"])
    def test_undecodable_trace_exits_3_naming_it(self, tmp_path, capsys, spoil):
        """Each of these used to end in a traceback (exit 1)."""
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--seeds", "0:2", "--max-steps", "10", "--strategies", "baseline",
            "--out", sim_out,
        ) == 0
        bad = sim_out / "traces" / "baseline" / "1.jsonl"
        lines = bad.read_text().splitlines()
        if spoil == "invalid_utf8":
            bad.write_bytes(bad.read_bytes() + b"\xff\xfe")
            message = f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
        elif spoil == "deep_nesting":
            lines[2] = lines[2][:-1] + ', "dist": ' + DEEP_JSON + "}"
            message = f"error: {bad}:3: malformed JSON (nested too deeply)"
        else:
            lines[2] = re.sub(r'"t": \d+', '"t": ' + "1" * 5001, lines[2])
            message = f"error: {bad}:3: malformed JSON (Exceeds the limit (4300 digits)"
        if spoil != "invalid_utf8":
            bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("spoil, message", [
        ("step_line_ends_in_u3000", "Extra data"), ("line_holding_only_u00a0", "Expecting value"),
    ])
    def test_non_json_whitespace_exits_3_naming_the_line(self, tmp_path, capsys, spoil, message):
        """str.strip() used to take these, so the trace re-scored with exit 0."""
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--seeds", "0:2", "--max-steps", "10", "--strategies", "baseline",
            "--out", sim_out,
        ) == 0
        bad = sim_out / "traces" / "baseline" / "1.jsonl"
        lines = bad.read_text().splitlines()
        if spoil == "step_line_ends_in_u3000":
            lines[2] += "\u3000"
        else:
            lines.insert(2, "\u00a0")
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}:3: malformed JSON ({message})")

    def test_crlf_traces_rescore_to_the_same_report(self, tmp_path):
        sim_out, eval_out = tmp_path / "sim", tmp_path / "eval"
        assert run_cli(
            "simulate", "--seeds", "0:3", "--max-steps", "20", "--strategies", "baseline;flb",
            "--out", sim_out,
        ) == 0
        for path in (sim_out / "traces").glob("*/*.jsonl"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert run_cli("evaluate", "--traces", sim_out, "--out", eval_out) == 0
        assert (eval_out / "report.json").read_bytes() == (sim_out / "report.json").read_bytes()

    def test_deeply_nested_manifest_exits_3_naming_it(self, tmp_path, capsys):
        """A value nested 100,000 deep used to end in a RecursionError traceback (exit 1)."""
        sim_out, _ = self._simulated(tmp_path)
        manifest = sim_out / "manifest.json"
        manifest.write_text(manifest.read_text()[:-2] + ', "notes": ' + DEEP_JSON + "}\n")
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: malformed JSON (nested too deeply)"
        )

    def test_manifest_scene_token_holding_a_space_exits_3(self, tmp_path, capsys):
        sim_out, _ = self._simulated(tmp_path)
        manifest = sim_out / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"dog"', '"hot dog"'))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: scene token 'hot dog' is empty or holds whitespace"
        )

    @pytest.mark.parametrize("old, new, noun", [("woman", "Man", "man"), ("is", "Dog", "dog")])
    def test_manifest_scene_token_lower_casing_onto_a_noun_exits_3(
        self, tmp_path, capsys, old, new, noun
    ):
        sim_out, _ = self._simulated(tmp_path)
        manifest = sim_out / "manifest.json"
        manifest.write_text(manifest.read_text().replace(f'"{old}"', f'"{new}"'))
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: scene token ") and "under lower-casing" in err
        assert f"{new!r}" in err and f"{noun!r}" in err

    @pytest.mark.parametrize("label, calls", [("vcd", 1), ("vcd", 3), ("baseline", 2)])
    def test_provider_calls_against_the_call_count_law_exit_3(self, tmp_path, capsys, label, calls):
        """vcd steps rewritten to one call each used to give a wrong calls-per-token figure."""
        sim_out = self._two_labels(tmp_path)
        directory = next(d for d in (sim_out / "traces").iterdir() if d.name.startswith(label))
        bad = directory / "0.jsonl"
        for line in range(1, len(bad.read_text().splitlines())):
            _edit_line(bad, line, lambda r: {**r, "provider_calls": calls})
        capsys.readouterr()
        assert run_cli("evaluate", "--traces", sim_out) == 3
        kind_calls = 2 if label == "vcd" else 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: step 0: provider_calls: {calls}, but {label} makes {kind_calls} per step"
        )


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

    @pytest.mark.parametrize("flags, config, schedules, mask", [
        (["--mask", "nouns"], None, ["increasing"], "nouns_only"),
        (["--schedules", "inc"], None, ["increasing"], "full"),
        ([], {"mask": "the", "schedules": ["dec"]}, ["decreasing"], "the_only"),
    ], ids=["mask_flag", "schedules_flag", "config_file"])
    def test_aliases_written_by_their_canonical_names(
        self, tmp_path, flags, config, schedules, mask
    ):
        """--mask nouns used to be refused by argparse, --schedules inc to exit 2 and a
        config file's "the" to exit 2 naming l0_mask: only descriptors took the aliases."""
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", tmp_path / "cfg.json"]
        out = tmp_path / "out"
        assert run_cli(*OUT_COMMANDS[2], *flags, "--format", "json", "--out", out) == 0
        data = json.loads((out / "sweep.json").read_text())
        assert data["mask"] == mask
        assert [row["schedule"] for row in data["rows"]] == schedules
        assert all(row["label"].endswith(f",mask={mask})") for row in data["rows"])

    @pytest.mark.parametrize("flags, config, message", [
        ([], {"mask": "verbs"}, "mask: unknown mask 'verbs'"),
        (["--mask", "verbs"], None, "mask: unknown mask 'verbs'"),
        (["--schedules", "inc,linear"], None, "schedules: unknown schedule 'linear'"),
        ([], {"schedules": ["LINEAR"]}, "schedules: unknown schedule 'linear'"),
    ], ids=["config_mask", "mask_flag", "schedules_flag", "config_schedules"])
    def test_unknown_name_exits_2_naming_its_key(self, tmp_path, capsys, flags, config, message):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", tmp_path / "cfg.json"]
        out = tmp_path / "out"
        assert run_cli(*OUT_COMMANDS[2], *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_csv_header(self, tmp_path):
        """The header is taken from ``BenchRow``'s fields; its bytes are pinned here, as the
        timings under it cannot be."""
        out = tmp_path / "out"
        assert run_cli(
            "bench", "--strategies", "baseline", "--seeds", "0:2", "--max-steps", "5",
            "--min-tokens", "1", "--format", "csv", "--out", out,
        ) == 0
        assert (out / "bench.csv").read_text().splitlines()[0] == (
            "strategy,runs,tokens_measured,provider_calls,provider_calls_per_token,"
            "wall_ms_per_token,overhead_ms_per_token"
        )

    @pytest.mark.parametrize("strategies, message", [
        ("", "error: strategies: no strategies given"),
        ("flb;flb", "error: strategy labels must be unique within one run: "
                    "'flb(increasing,gamma=0.3,lam=0.05,beta=0.1,mask=full)' repeats"),
    ], ids=["empty", "repeated"])
    def test_bad_strategy_list_exits_2_as_simulate_does(
        self, tmp_path, capsys, strategies, message
    ):
        """bench used to write an empty report for an empty list, and two rows under one
        label for a repeated one."""
        for command in ("simulate", "bench"):
            out = tmp_path / command
            assert run_cli(command, "--strategies", strategies, "--seeds", "0:2",
                           "--max-steps", "5", "--out", out) == 2
            assert capsys.readouterr().err == message + "\n"
            assert not out.exists()

    def test_min_tokens_exit_3(self, tmp_path):
        assert run_cli(
            "bench", "--strategies", "baseline", "--seeds", "0",
            "--max-steps", "5", "--out", tmp_path / "o",
        ) == 3

    @pytest.mark.parametrize("flag, value, named", [
        ("--cost-model", "padded:1e308", "1e+308"),
        ("--min-tokens", "-5", "-5"),
    ], ids=["pad_beyond_one_second", "negative_min_tokens"])
    def test_setting_no_run_can_use_exits_2_before_decoding(
        self, tmp_path, capsys, monkeypatch, flag, value, named
    ):
        def no_decoding(*args, **kwargs):
            raise AssertionError("bench decoded a run")

        monkeypatch.setattr(runner, "_decode", no_decoding)
        assert run_cli(
            "bench", "--strategies", "baseline", "--seeds", "0", flag, value,
            "--out", tmp_path / "o",
        ) == 2
        assert named in capsys.readouterr().err

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
    # Flag text and non-integers that a config file's JSON used to be read as.
    ("max_steps", "10"),
    ("temperature", "1.0"),
    ("seeds", [0.0, 1]),
    ("scene", 5),
]


class TestConfigFileValues:
    @pytest.mark.parametrize("command, key, value", [
        *[(command, key, value)
          for command in ("simulate", "sweep") for key, value in BAD_CONFIG_VALUES],
        ("simulate", "bin_width", "x"),
        ("simulate", "strategies", "baseline;flb"),
        ("sweep", "gammas", [0.3, "x"]),
        ("sweep", "gammas", "0.1,0.3"),
        ("sweep", "gammas", []),
        ("sweep", "schedules", "increasing"),
        ("sweep", "mask", 7),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, command, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [0], "max_steps": 3, key: value}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out) == 2
        # A value of the wrong JSON type, or an empty grid, names the file.
        assert capsys.readouterr().err.startswith(f"error: {path}: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, error", [
        *[(command, key, value, error) for command in ("simulate", "sweep")
          for key, value, error in [("max_steps", 0, "max_steps must be >= 1, got 0"),
                                    ("temperature", 0.0, "temperature must be finite and "
                                                          "positive, got 0.0")]],
        ("simulate", "bin_width", 0, "bin_width must be >= 1, got 0"),
    ])
    def test_value_out_of_range_exits_2_naming_the_file(self, tmp_path, capsys, command, key,
                                                        value, error):
        """A file's range errors did not name it, while its type errors did."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [0], key: value}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {path}: {error}\n"
        assert not out.exists()

    def test_value_out_of_range_a_flag_overrides_exits_2(self, tmp_path, capsys):
        """Every value the file holds is checked, its range too."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_steps": 0}))
        assert run_cli("simulate", "--config", path, "--max-steps", "5",
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {path}: max_steps must be >= 1, got 0\n"

    @pytest.mark.parametrize("command, flag, error", [
        ("simulate", ["--max-steps", "0"], "max_steps must be >= 1, got 0"),
        ("sweep", ["--temperature", "0"], "temperature must be finite and positive, got 0.0"),
        ("simulate", ["--bin-width", "0"], "bin_width must be >= 1, got 0"),
        ("sweep", ["--gammas", ","], "gammas: empty list"),
    ])
    def test_flag_out_of_range_names_no_file(self, tmp_path, capsys, command, flag, error):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [0], "max_steps": 3}))
        assert run_cli(command, "--config", path, *flag, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("flag", ["--scene", "--config"])
    def test_deeply_nested_file_exits_2_naming_it(self, tmp_path, capsys, flag):
        """A scene or config file nested 100,000 deep used to end in a RecursionError
        traceback (exit 1)."""
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        out = tmp_path / "out"
        assert run_cli("simulate", flag, path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: malformed JSON (nested too deeply)"
        )

    @pytest.mark.parametrize("token", ["hot dog", "", "dog\u2028"])
    def test_scene_token_holding_whitespace_exits_2(self, tmp_path, capsys, token):
        """With dog renamed "hot dog", CHAIR left its 71 mentions out, as no lexicon
        word pair matches a whole token. The error names the scene file."""
        path = tmp_path / "scene.json"
        text = json.dumps(scene_to_dict(default_scene())).replace('"dog"', json.dumps(token))
        path.write_text(text)
        assert run_cli("simulate", "--scene", path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: scene token {token!r} is empty or holds whitespace"
        )

    def test_inline_scene_error_names_the_config_file(self, tmp_path, capsys):
        """An error in a scene written in a config file named no file."""
        path = tmp_path / "cfg.json"
        scene = json.dumps(scene_to_dict(default_scene())).replace('"dog"', '"hot dog"')
        path.write_text('{"scene": %s}' % scene)
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: scene token 'hot dog' is empty or holds whitespace\n")
        # A flag's scene replaces the file's, which is then never resolved.
        assert run_cli("simulate", "--config", path, "--scene", "default", "--seeds", "0",
                       "--max-steps", "3", "--out", tmp_path / "out") == 0

    @pytest.mark.parametrize("flag", ["--scene", "--config"])
    @pytest.mark.parametrize("old, new, noun", [("woman", "Man", "man"), ("is", "Dog", "dog")])
    def test_scene_token_lower_casing_onto_a_noun_exits_2(
        self, tmp_path, capsys, flag, old, new, noun
    ):
        """With woman renamed "Man", simulate decoded every run and wrote traces/
        before CHAIR's lexicon refused "man" as two nouns."""
        path = tmp_path / "scene.json"
        text = json.dumps(scene_to_dict(default_scene())).replace(f'"{old}"', f'"{new}"')
        path.write_text('{"scene": %s}' % text if flag == "--config" else text)
        out = tmp_path / "out"
        assert run_cli("simulate", flag, path, "--seeds", "0:3", "--max-steps", "20",
                       "--strategies", "baseline", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: scene token ") and "under lower-casing" in err
        assert f"{new!r}" in err and f"{noun!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--scene", "--config", "manifest"])
    @pytest.mark.parametrize("edit, named", [
        (lambda spec: {**spec, "noise_sigma": 1e308},
         "noise_sigma must be finite and in [0, 1e+100], got 1e+308"),
        (lambda spec: {**spec, "article_grounding": {**spec["article_grounding"], "The": 1e308}},
         "article_grounding of 'The' must be finite and in [-1e+100, 1e+100], got 1e+308"),
    ], ids=["noise_sigma", "article_grounding"])
    def test_scene_value_past_the_bound_is_refused_naming_it(
        self, tmp_path, capsys, source, edit, named
    ):
        """Both scenes used to exit 4: the provider's rows overflowed at step 0 (the jitter)
        and at step 1 (the degraded views' noun mean)."""
        spec = edit(scene_to_dict(default_scene()))
        out, argv = tmp_path / "out", ["--seeds", "0:2", "--max-steps", "5"]
        if source == "manifest":
            assert run_cli("simulate", *argv, "--strategies", "baseline", "--out", out) == 0
            path = out / "manifest.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "scene_spec": spec}))
            capsys.readouterr()
            assert run_cli("evaluate", "--traces", out) == 3
        else:
            path = tmp_path / "scene.json"
            path.write_text(json.dumps({"scene": spec} if source == "--config" else spec))
            assert run_cli("simulate", source, path, *argv, "--strategies",
                           "baseline;vcd;icd;flb", "--out", out) == 2
            assert not out.exists()
        assert capsys.readouterr().err == f"error: {path}: {named}\n"

    @pytest.mark.parametrize("flag", ["--scene", "--config"])
    @BAD_SCENES
    def test_bad_scene_key_exits_2_naming_it(self, tmp_path, capsys, flag, edit, named):
        """``noise_sgima`` and ``decay_depht`` used to be ignored, so the run took the
        default noise and depth; ``"eos": 7`` was read as the token "7"."""
        spec = edit(scene_to_dict(default_scene()))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"scene": spec} if flag == "--config" else spec))
        out = tmp_path / "out"
        assert run_cli("simulate", flag, path, "--seeds", "0:2", "--max-steps", "5",
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(text in err for text in named), err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, flag, error", [
        ("simulate", "max_steps", "abc", ["--max-steps", "5"], "'abc' is not an integer"),
        ("simulate", "seeds", [1.5], ["--seeds", "0:2"], "1.5 is not an integer"),
        ("sweep", "gammas", "0.1,0.3", ["--gammas", "0.3"], "'0.1,0.3' is not an array"),
    ])
    def test_bad_value_a_flag_overrides_exits_2(self, tmp_path, capsys, command, key, value,
                                                flag, error):
        """A file value a flag overrode went unread, so the file ran at exit 0."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, *flag, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {path}: {key}: {error}\n"
        assert not out.exists()

    def test_bad_seeds_the_env_overrides_exit_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [0, 0]}))
        monkeypatch.setenv(SEED_ENV_VAR, "0:2")
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {path}: seeds: duplicate seeds\n"

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


    @pytest.mark.parametrize("argv", [
        ["simulate", "--strategies", "baseline;vcd;flb", "--seeds", "0:3", "--max-steps", "15"],
        ["sweep", "--gammas", "0.1", "--lams", "0.01", "--seeds", "0:3", "--max-steps", "15"],
        ["ablate", "--seeds", "0:3", "--max-steps", "15"],
    ], ids=lambda argv: argv[0])
    def test_decoded_runs_are_scored_without_the_string_scan(self, tmp_path, monkeypatch, argv):
        """Decoded runs are scored from their chosen ids; only caption files are scanned."""
        def never(*args, **kwargs):
            raise AssertionError("extract_objects scanned the token strings of decoded runs")

        monkeypatch.setattr(metrics, "extract_objects", never)
        assert run_cli(*argv, "--out", tmp_path / "out") == 0
        if argv[0] == "simulate":
            assert run_cli("evaluate", "--traces", tmp_path / "out",
                           "--out", tmp_path / "rescored") == 0
        with pytest.raises(AssertionError, match="extract_objects"):
            run_cli("evaluate", *GOLDEN)


# A quick run of each command that takes --out.
OUT_COMMANDS = [
    ["simulate", "--strategies", "baseline", "--seeds", "0", "--max-steps", "3"],
    ["evaluate", *GOLDEN],
    ["sweep", "--gammas", "0.1", "--lams", "0.01", "--seeds", "0", "--max-steps", "3"],
    ["bench", "--strategies", "baseline", "--seeds", "0:2", "--max-steps", "5",
     "--min-tokens", "1"],
    ["ablate", "--seeds", "0", "--max-steps", "3"],
]


def _subparsers() -> dict:
    """Each command's parser, by name."""
    actions = cli.build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


class TestOutPath:
    """An --out that is empty, names a file, or lies under one, is a configuration error."""

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        """--out '' used to write into the working directory (evaluate: to exit 0 writing
        nothing), as Path('') is the working directory."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--out", "") == 2
        assert capsys.readouterr().err == "error: --out: '' is empty, not an output directory\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, argv, under):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and "Traceback" not in err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("argv, entry", [
        *zip(OUT_COMMANDS, ["run_many", "corpus_metrics", "run_many", "run_bench", "run_many"]),
        (["evaluate", "--traces", "never_read"], "read_trace_dir"),
    ], ids=["simulate", "evaluate", "sweep", "bench", "ablate", "evaluate_traces"])
    def test_out_is_checked_before_any_work(self, tmp_path, capsys, monkeypatch, argv, entry):
        """A bad --out used to be found only when the report was written, after all the work."""
        def never(*args, **kwargs):
            raise AssertionError(f"{entry} ran before --out was checked")

        monkeypatch.setattr(cli, entry, never)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert run_cli(*argv, "--out", taken) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {taken}: ")


class TestParser:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    def test_jobs_is_a_simulate_flag_only(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_flag_is_typed_by_argparse(self):
        """Every number in flag text is read by ``config.parse_number`` (``cli.NUMBER_FLAGS``);
        argparse's int and float would read "1_0" as 10 and "٣" as 3."""
        dests = set()
        for command, parser in _subparsers().items():
            for action in parser._actions:
                assert action.type not in (int, float), (command, action.dest)
                dests.add(action.dest)
        assert set(cli.NUMBER_FLAGS) <= dests

    def test_sanitize_label(self):
        assert sanitize_label("flb(increasing,gamma=0.3)") == "flb(increasing,gamma=0.3)"
        assert sanitize_label("a b/c") == "a_b_c"


# -- flag text: numbers in ASCII with no "_", and only ASCII space trimmed ------------
#
# int() and float() read "1_0" as 10, "1_0.5" as 10.5 and "٣" as 3; each of these
# ran at exit 0 when a flag, the seed variable, a descriptor or the cost model
# read its text with them.

_COMMANDS = {argv[0]: argv for argv in OUT_COMMANDS}
# (command, flag or SEED_ENV_VAR, text, the key an error names, the part it names)
_NUMBER_TEXT = [
    *[(command, action.option_strings[0], text, action.dest, text)
      for command, parser in _subparsers().items() for action in parser._actions
      if action.dest in cli.NUMBER_FLAGS
      for text in ("1_0", "٣", *(("1_0.5",) if cli.NUMBER_FLAGS[action.dest] is float else ()))],
    ("simulate", "--seeds", "1_0", "seeds", "1_0"),
    ("sweep", "--seeds", "0:٣", "seeds", "٣"),
    ("simulate", SEED_ENV_VAR, "1_0", SEED_ENV_VAR, "1_0"),
    ("bench", SEED_ENV_VAR, "٣", SEED_ENV_VAR, "٣"),
    ("sweep", "--gammas", "0.1,1_0", "gammas", "1_0"),
    ("sweep", "--lams", "٢", "lams", "٢"),
    ("simulate", "--strategies", "flb:gamma=1_0", "gamma", "1_0"),
    ("simulate", "--strategies", "baseline;vcd:alpha=٣", "alpha", "٣"),
    ("bench", "--cost-model", "padded:1_0", "padded cost model", "1_0"),
]
# str.strip() also drops U+00A0 and U+3000: each of these ran at exit 0 when the
# text readers trimmed with it, reading the text without the character.
_SPACE_TEXT = [
    ("simulate", "--seeds", "0:2,\u00a0", "seeds", "\u00a0"),
    ("simulate", "--strategies", "flb:gamma=0.5\u3000", "gamma", "0.5\u3000"),
    ("simulate", "--strategies", "baseline;\u3000", "strategy", "\u3000"),
    ("simulate", SEED_ENV_VAR, "\u00a0", SEED_ENV_VAR, "\u00a0"),
    ("bench", "--cost-model", "padded:5\u3000", "padded cost model", "5\u3000"),
]


@pytest.mark.parametrize("command, flag, text, key, part", _NUMBER_TEXT + _SPACE_TEXT,
                         ids=[f"{c}_{f}={t}" for c, f, t, _, _ in _NUMBER_TEXT + _SPACE_TEXT])
def test_number_text_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, flag, text,
                                       key, part):
    argv = [*_COMMANDS[command], flag, text]
    if flag == SEED_ENV_VAR:
        monkeypatch.setenv(SEED_ENV_VAR, text)
        argv = _COMMANDS[command]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and repr(part) in err, err
    assert not out.exists()


# -- every bad input ends in a named error ------------------------------------------
#
# One example runs ``simulate`` on two seeds and four steps with exactly one
# input spoiled: a flag, a descriptor, a config-file key, the seed variable,
# a scene-file field or an --out that is (or lies under) an existing file.
# Whatever the value, the command ends in exit 0, 2 or 3 (never a traceback,
# never an internal error), and an error names the value or the key that
# holds it; a spoiled --out always ends in exit 2, and so does a flag, seed
# variable or descriptor whose text holds "_" or a non-ASCII character.

_ODD_TEXT = st.sampled_from([
    "", " ", "x", "nan", "NaN", "inf", "-inf", "-1", "0", "1", "1.5", "-0.5", "2",
    "1e308", "1e-320", "0x10", "1_0", "9" * 30, "0:2", "3:1", "1,1", "0:", ":", "-3:2",
    ",", "0;1", "baseline", "vcd:alpha=-1", "٣", "1_0.5",
    "\u00a0", "\u3000", "0:2,\u00a0", "0.5\u3000",
])
_ODD_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | _ODD_TEXT,
    lambda children: st.lists(children, max_size=3),
    max_leaves=5,
)
_ODD_DESCRIPTOR = st.builds(
    lambda kind, parts: kind + (":" + ",".join(parts) if parts else ""),
    st.sampled_from(["baseline", "greedy", "vcd", "icd", "m3id", "flb", "beam", ""]),
    st.lists(
        st.builds(
            "{}={}".format,
            st.sampled_from(["beta", "alpha", "strength", "gamma", "lambda", "lam",
                             "schedule", "mask", "size"]),
            _ODD_TEXT | st.sampled_from(["dec", "const", "nouns", "the", "linear"]),
        ),
        max_size=3,
    ),
)
_FLAGS = ("--seeds", "--max-steps", "--temperature", "--bin-width", "--jobs")
_SCENE_KEYS = list(scene_to_dict(default_scene()))
# A key that names no scene field: a misspelled one, or any other lower-case name.
_ODD_SCENE_KEY = st.sampled_from(["noise_sgima", "decay_depht", "vocabulary", "eos "]) | st.text(
    "abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12).filter(lambda k: k not in _SCENE_KEYS)


@st.composite
def _spoiled_input(draw):
    """(site, key, value): one bad input and the name an error should give it."""
    site = draw(st.sampled_from(["flag", "strategies", "config", "env", "scene", "out"]))
    if site == "flag":
        return site, draw(st.sampled_from(_FLAGS)), draw(_ODD_TEXT)
    if site == "strategies":
        return site, "--strategies", draw(_ODD_DESCRIPTOR)
    if site == "config":
        key = draw(st.sampled_from(SIMULATE_KEYS))
        return site, key, draw(_ODD_JSON | (_ODD_DESCRIPTOR if key == "strategies" else _ODD_JSON))
    if site == "env":
        return site, SEED_ENV_VAR, draw(_ODD_TEXT)
    if site == "out":  # an existing file, or a path under one
        return site, "--out", draw(st.sampled_from(["taken", "taken/sub"]))
    return site, draw(st.sampled_from(_SCENE_KEYS) | _ODD_SCENE_KEY), draw(_ODD_JSON)


def _named(err: str, key: str, value) -> bool:
    """Whether ``err`` names the spoiled key, or the value or one of its parts."""
    texts = {key.lstrip("-"), key.lstrip("-").replace("-", "_"), repr(value)}
    for item in value if isinstance(value, list) else [value]:
        texts |= {str(item).strip(), repr(item)}
        if isinstance(item, str):  # comma lists and descriptors: an error may name one part
            pieces = [piece.strip() for piece in re.split("[:,;=]", item)]
            texts |= {*pieces, *map(repr, pieces), *(piece.lower() for piece in pieces)}
            if "lambda" in pieces:  # the schedule calls it lam
                texts.add("lam")
    return any(text.strip() and text in err for text in texts)


class TestWholeCliProperty:
    @settings(max_examples=300, deadline=None)
    @given(spoiled=_spoiled_input())
    # Inputs that once ended in a traceback or an unnamed error.
    @example(spoiled=("flag", "--seeds", "-3:2"))
    @example(spoiled=("env", SEED_ENV_VAR, "-1"))
    @example(spoiled=("config", "seeds", [1e249]))
    @example(spoiled=("config", "scene", ""))
    @example(spoiled=("config", "strategies", ""))
    @example(spoiled=("scene", "tokens", []))
    @example(spoiled=("scene", "tokens", ["The", "The"]))
    @example(spoiled=("scene", "decay_kappa", 10**400))
    @example(spoiled=("scene", "base_logits", [None]))
    @example(spoiled=("scene", "article_grounding", {"The": "x"}))
    @example(spoiled=("scene", "decay_depht", 9.0))
    @example(spoiled=("scene", "eos", 7))
    @example(spoiled=("out", "--out", "taken"))
    def test_bad_input_ends_in_a_named_error(self, scene, spoiled):
        from logit_anchor import scene_to_dict

        site, key, value = spoiled
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            flags = {"--seeds": "0:2", "--max-steps": "4", "--format": "json",
                     "--out": str(tmp / "out")}
            env = os.environ.get(SEED_ENV_VAR)
            os.environ.pop(SEED_ENV_VAR, None)
            if site in ("flag", "strategies"):
                flags[key] = value
            elif site == "config":
                (tmp / "cfg.json").write_text(json.dumps({key: value}))
                flags["--config"] = str(tmp / "cfg.json")
                if key in ("seeds", "max_steps"):
                    del flags[f"--{key.replace('_', '-')}"]
            elif site == "env":
                os.environ[SEED_ENV_VAR] = value
            elif site == "out":
                (tmp / "taken").write_text("kept\n")
                flags["--out"] = str(tmp / value)
            else:
                spec = {**scene_to_dict(scene), key: value}
                (tmp / "scene.json").write_text(json.dumps(spec))
                flags["--scene"] = str(tmp / "scene.json")
            argv = ["simulate"] + [f"{flag}={v}" for flag, v in flags.items()]
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects a flag's type
                        code = exc.code
            finally:
                os.environ.pop(SEED_ENV_VAR, None)
                if env is not None:
                    os.environ[SEED_ENV_VAR] = env
        err = err.getvalue()
        assert code in (0, 2, 3), err
        assert code == 2 or site != "out", err
        if site in ("flag", "strategies", "env") and ("_" in value or not value.isascii()):
            assert code == 2, err  # text int() or float() alone would read as a number
        assert code == 2 or site != "scene" or key in _SCENE_KEYS, err  # a key naming no field
        if code:
            assert "error:" in err and _named(err, key, value), err


# -- every JSON value of a wrong type is refused, naming its key ----------------------
#
# One example spoils one key of a simulate or sweep config file, a scene file or a
# simulate output's manifest (each key it reads back) with a value of a JSON type the
# key does not take, or an array holding an item of such a type. The command ends in
# exit 2 (exit 3 for a manifest) with an error that opens with the key: no JSON value
# is read as flag text.

_NUMBER = {int, float}
_STRINGS = ({list}, {str})
# Each site's keys: (the JSON types the key takes, those its array's items take).
_JSON_SITES = {
    "config": {
        "scene": ({str, dict}, ()), "strategies": _STRINGS, "seeds": ({list, str}, {int}),
        "max_steps": ({int}, ()), "temperature": (_NUMBER, ()), "bin_width": ({int}, ()),
    },
    "sweep": {
        "scene": ({str, dict}, ()), "schedules": _STRINGS, "gammas": ({list}, _NUMBER),
        "lams": ({list}, _NUMBER), "betas": ({list}, _NUMBER), "mask": ({str}, ()),
        "seeds": ({list, str}, {int}), "max_steps": ({int}, ()), "temperature": (_NUMBER, ()),
    },
    "scene": {
        **dict.fromkeys(("tokens", "articles", "gt_objects", "hal_objects", "connectives",
                         "cognition_objects"), _STRINGS),
        "base_logits": ({list}, _NUMBER), "eos": ({str}, ()),
        **dict.fromkeys(("decay_kappa", "decay_depth", "noise_sigma", "grammar_penalty"),
                        (_NUMBER, ())),
        "article_grounding": ({dict}, ()),
    },
    "manifest": {
        "scene": ({str}, ()), "scene_spec": ({dict}, ()), "strategies": _STRINGS,
        "seeds": ({list}, {int}), "max_steps": ({int}, ()), "temperature": (_NUMBER, ()),
        "bin_width": ({int}, ()),
    },
}
_JSON_OF_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3) | st.just(2**70),
    float: st.floats() | st.sampled_from([7.0, 0.5]),
    str: st.sampled_from(["", "7", "0.3", "default", "0:2", "The,In,A,a", "baseline;flb"]),
    list: st.lists(st.integers(0, 3) | st.sampled_from(["The", "0.5"]), max_size=2),
    dict: st.dictionaries(st.sampled_from(["The", "a"]), st.integers(0, 2), max_size=2),
}


def _of_types_other_than(types):
    return st.one_of(*(values for kind, values in _JSON_OF_TYPE.items() if kind not in types))


@st.composite
def _wrong_json(draw):
    """(site, key, value): a value of a JSON type that the site's key does not take."""
    site = draw(st.sampled_from(sorted(_JSON_SITES)))
    key = draw(st.sampled_from(sorted(_JSON_SITES[site])))
    takes, items = _JSON_SITES[site][key]
    wrong = _of_types_other_than(takes)
    if list in takes:
        wrong |= st.lists(_of_types_other_than(items), min_size=1, max_size=3)
    return site, key, draw(wrong)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("wrong_json") / "sim"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("simulate", "--strategies", "baseline", "--seeds", "0",
                       "--max-steps", "5", "--out", out) == 0
    return out


class TestWrongJsonTypeProperty:
    def test_sites_list_every_key(self, simulated):
        assert set(_JSON_SITES["config"]) == set(SIMULATE_KEYS)
        assert set(_JSON_SITES["sweep"]) == cli._SWEEP_KEYS
        assert set(_JSON_SITES["scene"]) == set(scene_to_dict(default_scene()))
        # simulate writes command and full_dist for the reader; nothing reads them back.
        assert set(_JSON_SITES["manifest"]) == set(json.loads(
            (simulated / "manifest.json").read_text())) - {"command", "full_dist"}

    @settings(max_examples=300, deadline=None)
    @given(spoiled=_wrong_json())
    # The values that ran at exit 0 when JSON was read as flag text.
    @example(spoiled=("config", "max_steps", "10"))
    @example(spoiled=("config", "seeds", [0.0, 1]))
    @example(spoiled=("config", "strategies", "baseline;flb"))
    @example(spoiled=("sweep", "mask", 7))
    @example(spoiled=("config", "scene", 5))
    @example(spoiled=("scene", "tokens", "The,In,A,a"))
    @example(spoiled=("manifest", "seeds", ["0", 1.0, 2]))
    @example(spoiled=("manifest", "scene_spec", "default"))
    def test_wrong_json_type_ends_in_an_error_naming_the_key(self, scene, simulated, spoiled):
        site, key, value = spoiled
        manifest = simulated / "manifest.json"
        kept = manifest.read_text()
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            flags = {"--seeds": "0:2", "--max-steps": "4", "--out": tmp / "out"}
            if site == "manifest":
                manifest.write_text(json.dumps({**json.loads(kept), key: value}))
                argv = ["evaluate", "--traces", simulated]
            elif site == "scene":
                (tmp / "scene.json").write_text(json.dumps({**scene_to_dict(scene), key: value}))
                argv = ["simulate", "--scene", tmp / "scene.json", *chain(*flags.items())]
            else:
                (tmp / "cfg.json").write_text(json.dumps({key: value}))
                flags.pop(f"--{key.replace('_', '-')}", None)  # a flag overrides the file
                argv = ["simulate" if site == "config" else "sweep", "--config",
                        tmp / "cfg.json", *chain(*flags.items())]
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run_cli(*argv)
            finally:
                manifest.write_text(kept)
        err = err.getvalue()
        if site == "manifest":
            assert code == 3 and err.startswith(f"error: {manifest}: {key}: "), err
        else:  # a config or scene file's error names the file too
            held = tmp / ("scene.json" if site == "scene" else "cfg.json")
            assert code == 2 and err.startswith(f"error: {held}: {key}: "), err
