"""Config file loading and CLI value parsing.

One JSON file drives a run; command-line flags override file values, and the
LOGIT_ANCHOR_SEED environment variable overrides the seed list from either
source. It takes the same syntax as ``--seeds``: comma-separated integers and
``lo:hi`` ranges, e.g. ``0:50,99``. Scene values may be a preset name, a path
to a scene JSON file, or an inline scene object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .simulator import PRESET_NAMES, SceneSpec, preset, scene_from_dict
from .strategies import Strategy, parse_strategy

SEED_ENV_VAR = "LOGIT_ANCHOR_SEED"

DEFAULT_STRATEGIES = ("baseline", "vcd", "icd", "m3id", "flb")
DEFAULT_SEEDS = tuple(range(20))
DEFAULT_MAX_STEPS = 60
DEFAULT_TEMPERATURE = 1.0
DEFAULT_BIN_WIDTH = 20


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
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(
                f"temperature must be finite and positive, got {self.temperature!r}"
            )
        if self.bin_width < 1:
            raise ConfigError(f"bin_width must be >= 1, got {self.bin_width}")


def load_json_file(path: str | Path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc


def parse_seed_list(text: str, source: str = "seeds") -> tuple[int, ...]:
    """Comma-separated integers; "0:50" expands to range(0, 50)."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo_text, _, hi_text = part.partition(":")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ConfigError(f"{source}: bad seed range {part!r}") from None
            if hi <= lo:
                raise ConfigError(f"{source}: empty seed range {part!r}")
            seeds.extend(range(lo, hi))
        else:
            try:
                seeds.append(int(part))
            except ValueError:
                raise ConfigError(f"{source}: bad seed {part!r}") from None
    if not seeds:
        raise ConfigError(f"{source}: no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{source}: duplicate seeds")
    return tuple(seeds)


def env_seed_override() -> tuple[int, ...] | None:
    value = os.environ.get(SEED_ENV_VAR)
    if value is None or not value.strip():
        return None
    return parse_seed_list(value, source=SEED_ENV_VAR)


def resolve_scene(value) -> tuple[SceneSpec, str]:
    """Accept a preset name, a scene JSON path, or an inline scene dict."""
    if value is None:
        return preset("default"), "default"
    if isinstance(value, dict):
        return scene_from_dict(value), "custom"
    value = str(value)
    if value in PRESET_NAMES:
        return preset(value), value
    path = Path(value)
    if path.suffix == ".json" or path.exists():
        return scene_from_dict(load_json_file(path)), path.stem
    raise ConfigError(
        f"unknown scene {value!r}: not a preset ({', '.join(PRESET_NAMES)}) "
        "and not a scene file"
    )


def parse_strategies(values) -> tuple[Strategy, ...]:
    if isinstance(values, str):
        values = [v for v in values.split(";") if v.strip()]
    return tuple(parse_strategy(str(v)) for v in values)


def _file_value(file_cfg: dict, key: str, default):
    return file_cfg.get(key, default) if file_cfg else default


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
    file_cfg = {}
    if config_path is not None:
        file_cfg = load_json_file(config_path)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{config_path}: top-level config must be an object")
        unknown = set(file_cfg) - {
            "scene", "strategies", "seeds", "max_steps", "temperature", "bin_width",
        }
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys {sorted(unknown)}")

    scene_value = scene if scene is not None else file_cfg.get("scene")
    scene_spec, scene_name = resolve_scene(scene_value)

    if strategies is not None:
        strategy_list = parse_strategies(strategies)
    else:
        strategy_list = parse_strategies(
            _file_value(file_cfg, "strategies", list(DEFAULT_STRATEGIES))
        )

    if seeds is not None:
        seed_list = parse_seed_list(seeds)
    elif "seeds" in file_cfg:
        raw = file_cfg["seeds"]
        if isinstance(raw, str):
            seed_list = parse_seed_list(raw, source="config seeds")
        else:
            try:
                seed_list = tuple(int(s) for s in raw)
            except (TypeError, ValueError):
                raise ConfigError("config seeds must be integers") from None
    else:
        seed_list = DEFAULT_SEEDS
    env_seeds = env_seed_override()
    if env_seeds is not None:
        seed_list = env_seeds

    return RunConfig(
        scene=scene_spec,
        scene_name=scene_name,
        strategies=strategy_list,
        seeds=seed_list,
        max_steps=max_steps if max_steps is not None
        else int(_file_value(file_cfg, "max_steps", DEFAULT_MAX_STEPS)),
        temperature=temperature if temperature is not None
        else float(_file_value(file_cfg, "temperature", DEFAULT_TEMPERATURE)),
        bin_width=bin_width if bin_width is not None
        else int(_file_value(file_cfg, "bin_width", DEFAULT_BIN_WIDTH)),
    )
