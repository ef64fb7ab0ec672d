"""Config input for every command: the one place user input becomes values.

One JSON file (``load_config_file``: an object holding only the command's keys,
each read even if a flag overrides it) drives a run; command-line flags
override file values (``setting``), and the LOGIT_ANCHOR_SEED environment
variable overrides the seed list from either source (``resolve_seeds``). Each
value is read once, by a reader chosen by its source: a JSON value (config,
scene and corpus files, manifests, trace headers) by the strict JSON checks
``read_*`` (``"7"`` and ``7.0`` are not integers, and no string is split into a
list; a config file's ``seeds`` may be a seed string, the one JSON form of a
range), and text (flags, the env variable, descriptors, the cost model) by the
``parse_*`` functions, every number by ``parse_number`` (ASCII, no ``_``) and
every schedule or mask name, text or JSON, by ``parse_alias``. Each raises
ConfigError naming the key and the value, and a file's value its file too
(``naming``), never a traceback. Every JSON and JSONL file is read and parsed
here; every parse failure reads ``<file>[:<line>]: malformed JSON (<reason>)``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import compress, count, repeat
from pathlib import Path

from .errors import ConfigError, InputError
from .runner import CHEAP, PADDED, CostModel, check_labels, check_seeds
from .simulator import PRESET_NAMES, SceneSpec, preset, scene_from_dict
from .strategies import (
    DEFAULT_MAX_STEPS, DEFAULT_TEMPERATURE, FLB, L0_FULL, L0_NOUNS_ONLY, L0_THE_ONLY, SETTINGS,
    STRATEGY_KINDS, Strategy, WeightSchedule, check_run_args,
)

SEED_ENV_VAR = "LOGIT_ANCHOR_SEED"

DEFAULT_STRATEGIES = ("baseline", "vcd", "icd", "m3id", "flb")
DEFAULT_SEEDS = tuple(range(20))
DEFAULT_BIN_WIDTH = 20

SIMULATE_KEYS = ("scene", "strategies", "seeds", "max_steps", "temperature", "bin_width")


@dataclass(frozen=True)
class RunConfig:
    """Everything cmd_simulate (and friends) need to execute."""

    scene: SceneSpec
    scene_name: str
    strategies: tuple[Strategy, ...]
    seeds: tuple[int, ...]
    max_steps: int = DEFAULT_MAX_STEPS
    temperature: float = DEFAULT_TEMPERATURE
    bin_width: int = DEFAULT_BIN_WIDTH

    def __post_init__(self):
        check_labels([s.label() for s in self.strategies])
        check_run_settings(self.max_steps, self.temperature, self.bin_width)


def check_run_settings(max_steps: int, temperature: float, bin_width: int) -> None:
    """The one check of a run's settings, whether a config file, flags or a manifest gave them."""
    check_run_args(max_steps, temperature)
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")


# -- JSON input -------------------------------------------------------------------


def read_input_text(path) -> str:
    """The file at ``path`` as UTF-8 text."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_json(text: str, where, line: int | None = None):
    """The one JSON value ``text`` holds: the text of file ``where``, or of its line ``line``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = exc.msg if line else f"{exc.msg}: line {exc.lineno} column {exc.colno}"
    except RecursionError:
        reason = "nested too deeply"
    except ValueError as exc:  # an integer with more digits than Python converts
        reason = str(exc)
    raise InputError(f"{where}{f':{line}' if line else ''}: malformed JSON ({reason})")


def _filled(lines: list[str]):
    """Whether each JSONL line holds more than JSON whitespace (space, tab, CR), the one
    blank-line rule: ``str.strip()`` would also drop U+00A0, U+3000, "\\f" and "\\v"."""
    return map(str.strip, lines, repeat(" \t\r"))


def read_jsonl(text: str, where) -> list:
    """The JSON value on each non-blank line of ``text``, in order.

    Lines are split on "\n" only (str.splitlines would also split a string
    holding a raw U+2028, which JSON allows) and parsed in one ``json.loads``,
    joined into an array in which each follows a marker no file can foresee.
    Each joint holds a newline, which no JSON string may, so the items alternate
    marker and value only if every line holds one value; if not, the lines are
    parsed one by one, so that the error names the first bad line."""
    lines = text.split("\n")
    texts = list(compress(lines, _filled(lines)))
    marker = os.urandom(12).hex()
    try:
        items = json.loads(f'["{marker}",' + f',\n"{marker}",'.join(texts) + "]")
        if len(items) == 2 * len(texts) and items.count(marker) == len(texts):
            return items[1::2]
    except (ValueError, RecursionError):
        pass
    return [parse_json(line, where, lineno)
            for lineno, line in compress(enumerate(lines, 1), _filled(lines))]


def jsonl_line_numbers(text: str) -> list[int]:
    """The line number of each value ``read_jsonl(text, ...)`` returns."""
    return list(compress(count(1), _filled(text.split("\n"))))


def load_json_file(path):
    """The JSON value in the config or scene file at ``path``."""
    try:
        return parse_json(read_input_text(path), path)
    except InputError as exc:
        raise ConfigError(str(exc)) from exc


@contextmanager
def naming(where, error=ConfigError):
    """A ConfigError or InputError from inside, as ``error`` led by ``where``: its file, or a
    function giving it, called only then."""
    try:
        yield
    except (ConfigError, InputError) as exc:
        raise error(f"{where() if callable(where) else where}: {exc}") from exc


def load_config_file(path: str | Path | None, keys) -> dict:
    """A JSON config file's values, its keys all in ``keys``, each read by its key's reader and
    the run settings it holds range-checked, an error naming the file; {} for no file."""
    if path is None:
        return {}
    data = load_json_file(path)
    with naming(path):
        cfg = {key: _CONFIG_READERS[key](value, key)
               for key, value in read_keys(data, keys, "config").items()}
        check_run_settings(*(cfg.get(key, 1) for key in ("max_steps", "temperature", "bin_width")))
    return cfg


# -- JSON checks: config, scene and corpus files, manifests, trace headers ---------


def read_keys(value, keys, what: str, required=()) -> dict:
    """``value`` if it is a JSON object that holds no key outside ``keys`` and every key
    of ``required``: the one key rule of config files, scenes, manifests, annotations,
    caption lines and trace run headers (``what``)."""
    if type(value) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{what} is missing key {missing[0]!r}")
    return value


def read_int(value, key: str) -> int:
    """A JSON integer; a bool, a float (1.0 too) or a string is not one."""
    if type(value) is not int:
        raise ConfigError(f"{key}: {value!r} is not an integer")
    return value


def read_float(value, key: str) -> float:
    """A JSON number, an integer too, as a float; a bool or a string is not one."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an int beyond float range
            pass
    raise ConfigError(f"{key}: {value!r} is not a number")


def read_string(value, key: str) -> str:
    if type(value) is not str:
        raise ConfigError(f"{key}: {value!r} is not a string")
    return value


def read_id(value, key: str) -> str:
    """A string, or an integer (not a bool) read as its decimal string."""
    if type(value) not in (str, int):
        raise ConfigError(f"{key}: {value!r} is not a string or an integer")
    return str(value)


def read_array(value, key: str, read_item) -> tuple:
    """A JSON array, which may be empty, each item read by ``read_item(item, key)``."""
    if type(value) is not list:
        raise ConfigError(f"{key}: {value!r} is not an array")
    return tuple(read_item(item, key) for item in value)


def read_string_list(value, key: str) -> tuple[str, ...]:
    return read_array(value, key, read_string)


def read_float_list(value, key: str) -> tuple[float, ...]:
    return read_array(value, key, read_float)


def read_seeds(value, key: str = "seeds") -> tuple[int, ...]:
    """A JSON array of distinct integers in [0, 2**64)."""
    return check_seeds(read_array(value, key, read_int), key)


def read_scene(value, key: str = "scene"):
    """A config file's scene: a string (a preset name or a scene file path) or an object."""
    if type(value) not in (str, dict):
        raise ConfigError(f"{key}: {value!r} is not a string or an object")
    return value


def read_config_seeds(value, key: str = "seeds") -> tuple[int, ...]:
    """A config file's seeds: a JSON array, or a seed string as ``--seeds`` takes."""
    return parse_seed_list(value, key) if type(value) is str else read_seeds(value, key)


# The JSON reader of each key a config file of any command may hold.
_CONFIG_READERS = {
    "scene": read_scene, "strategies": read_string_list, "seeds": read_config_seeds,
    "max_steps": read_int, "temperature": read_float, "bin_width": read_int,
    "gammas": read_float_list, "lams": read_float_list, "betas": read_float_list,
    "schedules": read_string_list, "mask": read_string,
}


# -- text (flags, LOGIT_ANCHOR_SEED, descriptors), and settings from either source ----


def trim(text: str) -> str:
    """``text`` without the ASCII whitespace at its ends. ``str.strip()`` would also drop
    U+00A0 and U+3000, which stay here for ``parse_number`` or a name table to refuse."""
    return text.strip(" \t\n\r\v\f")


def parse_number(text: str, key: str, kind):
    """Text as ``kind`` (int or float), spaces around it allowed: only ASCII text with no "_",
    as ``kind`` alone reads "1_0" as 10 and "٣" as 3. "inf" and "nan" reach the range checks."""
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ConfigError(f"{key}: {text!r} is not {'an integer' if kind is int else 'a number'}")


def parse_names(text: str, key: str, sep: str = ",") -> tuple[str, ...]:
    """The non-empty parts of flag text between ``sep``s, trimmed."""
    return tuple(filter(None, map(trim, text.split(sep))))


def parse_floats(text: str, key: str) -> tuple[float, ...]:
    return tuple(parse_number(part, key, float) for part in parse_names(text, key))


# The one name table: the names a schedule or a mask takes, in any case, in a
# descriptor, --schedules, --mask or a sweep config file.
_ALIASES = {
    "schedule": {
        "increasing": "increasing", "inc": "increasing",
        "decreasing": "decreasing", "dec": "decreasing",
        "constant": "constant", "const": "constant",
    },
    "mask": {
        "full": L0_FULL,
        "nouns_only": L0_NOUNS_ONLY, "nouns": L0_NOUNS_ONLY,
        "the_only": L0_THE_ONLY, "the": L0_THE_ONLY,
    },
}
# The setting each descriptor key gives, and the schedule field of a schedule key.
_SETTING_OF = {
    "beta": "beta", "alpha": "alpha", "strength": "strength", "mask": "l0_mask",
    "gamma": "schedule", "lambda": "schedule", "schedule": "schedule",
}
_SCHEDULE_FIELD = {"gamma": "gamma", "lambda": "lam", "schedule": "kind"}


def parse_alias(text: str, key: str, name: str) -> str:
    """The canonical ``name`` ("schedule" or "mask") that ``text`` gives, in any case."""
    aliases = _ALIASES[name]
    if text.lower() not in aliases:
        raise ConfigError(f"{key}: unknown {name} {text.lower()!r}")
    return aliases[text.lower()]


def parse_strategy(text: str) -> Strategy:
    """Parse a descriptor like ``flb:gamma=0.3,lambda=0.05,beta=0.1,mask=full``.

    The part before the colon is the strategy kind; the rest is a
    comma-separated key=value list. Recognized keys depend on the kind:
    ``beta`` for baseline/greedy; ``alpha``, ``beta``, ``strength`` for the
    contrastive kinds; ``gamma``, ``lambda`` (or ``lam``), ``beta``,
    ``schedule``, ``mask`` for flb. Keys left out take the kind's defaults
    (``strategies.SETTINGS``). A key given twice, or with an empty value, is a
    ConfigError, never a silent default.
    """
    text = trim(text)
    kind, _, rest = text.partition(":")
    kind = trim(kind).lower()
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"unknown strategy {kind!r}; expected one of {STRATEGY_KINDS}")
    params: dict[str, str] = {}
    if trim(rest):
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ConfigError(f"malformed strategy parameter {part!r} in {text!r}")
            key, value = trim(key).lower(), trim(value)
            if not value:
                raise ConfigError(f"{kind}: {key} has an empty value in {text!r}")
            if kind == FLB and key == "lam":
                key = "lambda"
            if key in params:
                raise ConfigError(f"{kind}: {key} is given more than once in {text!r}")
            params[key] = value
    unknown = sorted(key for key in params if _SETTING_OF.get(key) not in SETTINGS[kind])
    if unknown:
        raise ConfigError(f"unknown parameter(s) {unknown} for strategy {kind!r}")

    settings, schedule = {}, {}
    for key, value in params.items():
        value = (parse_alias(value, kind, key) if key in _ALIASES
                 else parse_number(value, f"{kind}: {key}", float))
        if key in _SCHEDULE_FIELD:
            schedule[_SCHEDULE_FIELD[key]] = value
        else:
            settings[_SETTING_OF[key]] = value
    if schedule:
        settings["schedule"] = WeightSchedule(**schedule)
    return Strategy(kind=kind, **settings)


def parse_cost_model(text: str) -> CostModel:
    """"cheap" or "padded:<microseconds>"."""
    name, _, arg = trim(text).partition(":")
    name = trim(name).lower()
    if name == CHEAP:
        if arg:
            raise ConfigError("cheap cost model takes no argument")
        return CostModel(CHEAP)
    if name == PADDED:
        return CostModel(PADDED, parse_number(arg, "padded cost model", float))
    raise ConfigError(f"unknown cost model {text!r}")


def parse_seed_list(text: str, source: str = "seeds") -> tuple[int, ...]:
    """Comma-separated integers; "0:50" expands to range(0, 50)."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, colon, hi = part.partition(":")
        if colon:
            lo, hi = parse_number(lo, source, int), parse_number(hi, source, int)
            if hi <= lo:
                raise ConfigError(f"{source}: empty seed range {trim(part)!r}")
            seeds.extend(range(lo, hi))
        elif trim(part):
            seeds.append(parse_number(part, source, int))
    return check_seeds(seeds, source)


def env_seed_override() -> tuple[int, ...] | None:
    value = os.environ.get(SEED_ENV_VAR)
    if value is None or not trim(value):
        return None
    return parse_seed_list(value, source=SEED_ENV_VAR)


def setting(flag, file_cfg: dict, key: str, default, parse=None):
    """The flag parsed by ``parse(flag, key)`` (None: a flag already parsed), else
    the value ``load_config_file`` read, else ``default`` as it is."""
    if flag is not None:
        return flag if parse is None else parse(flag, key)
    return file_cfg.get(key, default)


def resolve_seeds(flag: str | None, file_cfg: dict, default) -> tuple[int, ...]:
    """``--seeds``, else the file's seeds, else ``default``; LOGIT_ANCHOR_SEED overrides all."""
    seeds = setting(flag, file_cfg, "seeds", default, parse_seed_list)
    env_seeds = env_seed_override()
    return seeds if env_seeds is None else env_seeds


def resolve_scene(value) -> tuple[SceneSpec, str]:
    """The scene a string names (a preset, or a scene JSON path), an inline scene
    object's, or the default preset's for None."""
    if value is None:
        return preset("default"), "default"
    if isinstance(value, dict):
        return scene_from_dict(value), "custom"
    if value in PRESET_NAMES:
        return preset(value), value
    path = Path(value)
    if path.suffix == ".json" or os.path.exists(value):  # False for "" and names no file can have
        data = load_json_file(path)
        with naming(path):
            return scene_from_dict(data), path.stem
    raise ConfigError(
        f"unknown scene {value!r}: not a preset ({', '.join(PRESET_NAMES)}) "
        "and not a scene file"
    )


def config_scene(flag, file_cfg: dict, path) -> tuple[SceneSpec, str]:
    """``resolve_scene`` of --scene, else of the file's scene: one written in it names ``path``."""
    value = setting(flag, file_cfg, "scene", None)
    with naming(path) if type(value) is dict else nullcontext():
        return resolve_scene(value)


def build_run_config(
    *,
    config_path: str | None = None,
    scene: str | None = None,
    strategies: str | None = None,
    seeds: str | None = None,
    max_steps: int | None = None,
    temperature: float | None = None,
    bin_width: int | None = None,
) -> RunConfig:
    """Merge defaults, config file, CLI flags, and the seed env override."""
    file_cfg = load_config_file(config_path, SIMULATE_KEYS)
    scene_spec, scene_name = config_scene(scene, file_cfg, config_path)
    descriptors = setting(strategies, file_cfg, "strategies", DEFAULT_STRATEGIES,
                          lambda text, key: parse_names(text, key, ";"))
    return RunConfig(
        scene=scene_spec,
        scene_name=scene_name,
        strategies=tuple(map(parse_strategy, descriptors)),
        seeds=resolve_seeds(seeds, file_cfg, DEFAULT_SEEDS),
        max_steps=setting(max_steps, file_cfg, "max_steps", DEFAULT_MAX_STEPS),
        temperature=setting(temperature, file_cfg, "temperature", DEFAULT_TEMPERATURE),
        bin_width=setting(bin_width, file_cfg, "bin_width", DEFAULT_BIN_WIDTH),
    )
