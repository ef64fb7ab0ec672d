"""Seed parsing, scene resolution, and config precedence."""

from __future__ import annotations

import inspect
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logit_anchor import ConfigError, InputError, scene_to_dict
from logit_anchor.config import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_MAX_STEPS,
    DEFAULT_SEEDS,
    DEFAULT_STRATEGIES,
    DEFAULT_TEMPERATURE,
    SEED_ENV_VAR,
    SIMULATE_KEYS,
    RunConfig,
    build_run_config,
    env_seed_override,
    jsonl_line_numbers,
    parse_floats,
    parse_json,
    parse_names,
    parse_number,
    parse_seed_list,
    parse_strategy,
    read_array,
    read_config_seeds,
    read_float,
    read_int,
    read_jsonl,
    read_scene,
    read_seeds,
    read_string,
    resolve_scene,
    resolve_seeds,
)
from logit_anchor.metrics import positional_curves
from logit_anchor.runner import run_bench, run_many, run_strategy
from logit_anchor.simulator import preset
from logit_anchor.strategies import decode


JSON_SPACE = " \t\r"  # with "\n", the whitespace JSON allows between tokens
OTHER_SPACE = "\u00a0\u3000\f\v\x85\u2028"  # str.strip() takes these too


class TestJsonInput:
    def test_jsonl_values_and_their_line_numbers(self):
        text = '{"a": 1}\r\n\n  \t\n["b\u2028c"]\n7'
        assert read_jsonl(text, "f") == [{"a": 1}, ["b\u2028c"], 7]
        assert jsonl_line_numbers(text) == [1, 4, 5]
        assert read_jsonl("", "f") == [] and jsonl_line_numbers("\n \n") == []

    @pytest.mark.parametrize("text, message", [
        ('{"a": 1}\n{"a": 2} {"a": 3}\n', "f:2: malformed JSON (Extra data)"),
        ("1\n\n[\n2\n", "f:3: malformed JSON (Expecting value)"),
        ("1\n" + "[" * 100_000 + "]" * 100_000, "f:2: malformed JSON (nested too deeply)"),
        ("1\n" + "9" * 5000, "f:2: malformed JSON (Exceeds the limit (4300 digits)"),
        # JSON whitespace is space, tab, CR and LF only; str.strip() used to take these too
        ('{"a": 1}\u3000\n', "f:1: malformed JSON (Extra data)"),
        ('1\n{"a": 1}\f\n', "f:2: malformed JSON (Extra data)"),
        ("1\n\n\u00a0\n2\n", "f:3: malformed JSON (Expecting value)"),
    ])
    def test_jsonl_error_names_the_first_bad_line(self, text, message):
        with pytest.raises(InputError) as info:
            read_jsonl(text, "f")
        assert str(info.value).startswith(message)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.text(JSON_SPACE + OTHER_SPACE, max_size=3),
        st.none() | st.integers() | st.text(max_size=3) | st.lists(st.booleans(), max_size=2),
        st.text(JSON_SPACE + OTHER_SPACE, max_size=3),
    ), max_size=8))
    def test_jsonl_readers_agree_on_blank_lines(self, lines):
        """A line is blank iff it holds only JSON whitespace; any other line is read as
        one value, or names itself in the error, at the number ``jsonl_line_numbers`` gives."""
        texts = [left + ("" if value is None else json.dumps(value)) + right
                 for left, value, right in lines]
        text = "\n".join(texts)
        numbers = jsonl_line_numbers(text)
        assert numbers == [n for n, line in enumerate(texts, 1) if set(line) - set(JSON_SPACE)]
        bad = [n for n, line in enumerate(texts, 1) if set(line) & set(OTHER_SPACE)]
        if bad:
            with pytest.raises(InputError, match=rf"^f:{bad[0]}: malformed JSON"):
                read_jsonl(text, "f")
            assert bad[0] in numbers
        else:
            values = read_jsonl(text, "f")
            assert values == [value for _, value, _ in lines if value is not None]
            assert len(values) == len(numbers)

    def test_json_error_names_the_position(self):
        message = r"^f: malformed JSON \(Expecting value: line 2 column 1\)$"
        with pytest.raises(InputError, match=message):
            parse_json("[1,\n]", "f")


class TestSeedParsing:
    def test_plain_list(self):
        assert parse_seed_list("0, 3,7") == (0, 3, 7)

    def test_range_form(self):
        assert parse_seed_list("0:4") == (0, 1, 2, 3)
        assert parse_seed_list("5,10:12") == (5, 10, 11)

    @pytest.mark.parametrize(
        "text", ["", " , ", "x", "1:1", "3:1", "a:5", "1,1", "0:3,2"]
    )
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_seed_list(text)

    def test_env_override(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert env_seed_override() is None
        monkeypatch.setenv(SEED_ENV_VAR, "  ")
        assert env_seed_override() is None
        monkeypatch.setenv(SEED_ENV_VAR, "4,5")
        assert env_seed_override() == (4, 5)
        monkeypatch.setenv(SEED_ENV_VAR, "nope")
        with pytest.raises(ConfigError, match=SEED_ENV_VAR):
            env_seed_override()


class TestResolveScene:
    def test_default(self):
        spec, name = resolve_scene(None)
        assert name == "default"
        assert spec == preset("default")

    def test_preset_names(self):
        for name in ("default", "no-decay", "strong-decay"):
            spec, got = resolve_scene(name)
            assert got == name
            assert spec == preset(name)

    def test_inline_dict(self, scene):
        spec, name = resolve_scene(scene_to_dict(scene))
        assert name == "custom"
        assert spec == scene

    def test_json_path(self, scene, tmp_path):
        path = tmp_path / "myscene.json"
        path.write_text(json.dumps(scene_to_dict(scene)))
        spec, name = resolve_scene(str(path))
        assert name == "myscene"
        assert spec == scene

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="unknown scene"):
            resolve_scene("atlantis")

    def test_missing_json_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            resolve_scene(str(tmp_path / "absent.json"))


class TestParseStrategies:
    def test_string_form(self):
        strategies = [parse_strategy(text)
                      for text in parse_names("baseline; flb:gamma=0.5", "strategies", ";")]
        assert [s.kind for s in strategies] == ["baseline", "flb"]
        assert strategies[1].schedule.gamma == 0.5

    def test_config_file_takes_an_array(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"strategies": ["greedy", "vcd"]}))
        strategies = build_run_config(config_path=str(path)).strategies
        assert [s.kind for s in strategies] == ["greedy", "vcd"]
        assert strategies[1].alpha is not None
        path.write_text(json.dumps({"strategies": "greedy;vcd"}))
        with pytest.raises(ConfigError, match=r"cfg.json: strategies: 'greedy;vcd' is not an array$"):
            build_run_config(config_path=str(path))


class TestRunDefaults:
    @pytest.mark.parametrize("function, name, default", [
        (decode, "max_steps", DEFAULT_MAX_STEPS), (decode, "temperature", DEFAULT_TEMPERATURE),
        (run_strategy, "max_steps", DEFAULT_MAX_STEPS),
        (run_strategy, "temperature", DEFAULT_TEMPERATURE),
        (run_many, "max_steps", DEFAULT_MAX_STEPS), (run_many, "temperature", DEFAULT_TEMPERATURE),
        (run_bench, "max_steps", DEFAULT_MAX_STEPS),
        (positional_curves, "bin_width", DEFAULT_BIN_WIDTH),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_signature_defaults_are_configs(self, function, name, default):
        """Each run-setting default is written once, as the command-line default is."""
        assert inspect.signature(function).parameters[name].default == default
        assert RunConfig.__dataclass_fields__[name].default == default


class TestBuildRunConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = build_run_config()
        assert cfg.scene_name == "default"
        assert cfg.seeds == DEFAULT_SEEDS
        assert len(cfg.strategies) == len(DEFAULT_STRATEGIES)
        assert cfg.max_steps == 60
        assert cfg.temperature == 1.0
        assert cfg.bin_width == 20

    def test_file_overrides_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scene": "no-decay",
            "strategies": ["baseline", "flb"],
            "seeds": [1, 2, 3],
            "max_steps": 10,
            "temperature": 0.5,
            "bin_width": 5,
        }))
        cfg = build_run_config(config_path=str(path))
        assert cfg.scene_name == "no-decay"
        assert cfg.seeds == (1, 2, 3)
        assert [s.kind for s in cfg.strategies] == ["baseline", "flb"]
        assert (cfg.max_steps, cfg.temperature, cfg.bin_width) == (10, 0.5, 5)

    def test_flags_override_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [1], "max_steps": 10, "scene": "no-decay"}))
        cfg = build_run_config(
            config_path=str(path), scene="strong-decay", seeds="7:9", max_steps=5
        )
        assert cfg.scene_name == "strong-decay"
        assert cfg.seeds == (7, 8)
        assert cfg.max_steps == 5

    def test_env_beats_flags(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "100,101")
        cfg = build_run_config(seeds="0:50")
        assert cfg.seeds == (100, 101)

    def test_seeds_string_in_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": "3:6"}))
        assert build_run_config(config_path=str(path)).seeds == (3, 4, 5)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sceen": "default"}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_run_config(config_path=str(path))

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(["baseline"]))
        with pytest.raises(ConfigError, match="cfg.json: config must be a JSON object, got list"):
            build_run_config(config_path=str(path))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            build_run_config(config_path=str(path))

    def test_integer_too_long_to_convert_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"max_steps": ' + "9" * 5000 + "}")
        with pytest.raises(ConfigError, match="cfg.json"):
            build_run_config(config_path=str(path))

    def test_validation(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        with pytest.raises(ConfigError):
            build_run_config(max_steps=0)
        with pytest.raises(ConfigError):
            build_run_config(temperature=0.0)
        with pytest.raises(ConfigError):
            build_run_config(bin_width=0)
        with pytest.raises(ConfigError):
            build_run_config(strategies="")


class TestTextParsers:
    """Flag and LOGIT_ANCHOR_SEED text: spaces around a value are allowed."""

    def test_seed_text_accepts_spaces(self, monkeypatch):
        assert parse_seed_list(" 7 ") == (7,)
        monkeypatch.setenv(SEED_ENV_VAR, " 7 , 9:11 ")
        assert env_seed_override() == (7, 9, 10)

    @pytest.mark.parametrize("text, kind, expected", [
        (" 7 ", int, 7), ("-3", int, -3), (" 0.5 ", float, 0.5), ("1e3", float, 1000.0),
        ("inf", float, math.inf),
    ])
    def test_number_accepts(self, text, kind, expected):
        """Spaces around a number are allowed; inf is left to each setting's range check."""
        got = parse_number(text, "key", kind)
        assert got == expected and type(got) is kind

    @pytest.mark.parametrize("text, kind", [
        ("1_0", int), ("٣", int), ("1_0.5", float), ("٢", float), ("1.5", int), ("", float),
        ("\u00a07", int),
    ])
    def test_number_rejects_naming_key_and_text(self, text, kind):
        """int() and float() alone read "1_0" as 10 and "٣" as 3."""
        what = "an integer" if kind is int else "a number"
        with pytest.raises(ConfigError, match=f"^key: {re.escape(repr(text))} is not {what}$"):
            parse_number(text, "key", kind)

    @pytest.mark.parametrize("text, expected", [
        (" 0.5 ", (0.5,)), ("0.1, 0.3,,", (0.1, 0.3)), ("7", (7.0,)), ("", ()),
    ])
    def test_floats_accept(self, text, expected):
        assert parse_floats(text, "gammas") == expected

    @pytest.mark.parametrize("text", ["abc", "0.1,x", "[0.1]"])
    def test_floats_reject_naming_key_and_part(self, text):
        with pytest.raises(ConfigError, match=r"^gammas: '.*' is not a number$"):
            parse_floats(text, "gammas")

    def test_names_and_descriptors(self):
        assert parse_names(" inc, const ,", "schedules") == ("inc", "const")
        assert parse_names("baseline; flb:gamma=0.5,beta=0.1 ;", "strategies", ";") == (
            "baseline", "flb:gamma=0.5,beta=0.1")

    @pytest.mark.parametrize("text", ["7.0", "x", "1:x"])
    def test_seed_text_rejects_naming_key_and_part(self, text):
        with pytest.raises(ConfigError, match=r"^seeds: '.*' is not an integer$"):
            parse_seed_list(text)


class TestJsonChecks:
    """JSON values: exactly the JSON type the key takes, never flag text."""

    @pytest.mark.parametrize("value", ["7", " 7 ", 7.0, True, "abc", 1.5, None, [1],
                                       float("nan"), float("inf")])
    def test_int_rejects_naming_key_and_value(self, value):
        with pytest.raises(ConfigError, match=r"^max_steps: .* is not an integer$"):
            read_int(value, "max_steps")

    @pytest.mark.parametrize("value, expected", [(7, 7.0), (0.5, 0.5), (-1e300, -1e300)])
    def test_float_accepts_numbers_integers_too(self, value, expected):
        got = read_float(value, "temperature")
        assert got == expected and type(got) is float

    @pytest.mark.parametrize("value", ["1.0", "hot", False, None, [0.5], 10**400])
    def test_float_rejects_naming_key_and_value(self, value):
        with pytest.raises(ConfigError, match=r"^temperature: .* is not a number$"):
            read_float(value, "temperature")

    @pytest.mark.parametrize("value", [7, None, ["a"], True])
    def test_string_rejects_naming_key_and_value(self, value):
        with pytest.raises(ConfigError, match=r"^eos: .* is not a string$"):
            read_string(value, "eos")

    @pytest.mark.parametrize("value", ["a,b", "", {"a": 1}, None, 3, ("a",)])
    def test_array_rejects_all_but_a_json_array(self, value):
        with pytest.raises(ConfigError, match=r"^tokens: .* is not an array$"):
            read_array(value, "tokens", read_string)

    def test_array_reads_each_item_naming_the_key(self):
        assert read_array([], "gammas", read_float) == ()
        assert read_array([1, 0.5], "gammas", read_float) == (1.0, 0.5)
        with pytest.raises(ConfigError, match=r"^gammas: '0.3' is not a number$"):
            read_array([0.1, "0.3"], "gammas", read_float)

    @pytest.mark.parametrize("value", [5, [1.5, 2], [0.0, 1], ["0", 1], [True], [1, 1], [],
                                       "1,1", "0:3", None])
    def test_seeds_reject(self, value):
        with pytest.raises(ConfigError, match="seeds"):
            read_seeds(value)

    def test_seeds_accept_an_array(self):
        assert read_seeds([3, 1, 2]) == (3, 1, 2)

    def test_config_file_seeds_may_be_a_seed_string(self):
        assert read_config_seeds("0:3,9") == (0, 1, 2, 9)
        assert read_config_seeds([3, 1]) == (3, 1)
        assert resolve_seeds(None, {}, (5,)) == (5,)

    @pytest.mark.parametrize("value", [5, None, True, ["default"]])
    def test_config_scene_is_a_string_or_an_object(self, value):
        with pytest.raises(ConfigError, match=r"^scene: .* is not a string or an object$"):
            read_scene(value)


# Arbitrary JSON: what a config file can hold (dicts aside: only "scene" takes
# one, and scene dicts have their own tests), plus values near the valid ones.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["default", "no-decay", "0:3", "baseline;flb", "vcd:alpha=nan",
                       "flb:gamma=-1", "7", "0.5", "nan"]),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
)


class TestBuildRunConfigProperty:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.sampled_from(SIMULATE_KEYS), JSON_VALUES))
    def test_returns_run_config_or_raises_config_error(self, tmp_path, file_cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        try:
            cfg = build_run_config(config_path=str(path))
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)
        assert all(type(seed) is int for seed in cfg.seeds)
        assert type(cfg.max_steps) is int and type(cfg.bin_width) is int
        assert type(cfg.temperature) is float
