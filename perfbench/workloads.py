"""The benchmark's workloads: the CLI commands each one runs, made from a seed.

Every workload runs single-process (``--jobs 1``) on inputs generated here.
The workload seed picks a block of decoding seeds, so the same seed always
gives the same commands and the same outputs.

* ``simulate-mix``: ``simulate`` on the default scene with the five default
  strategies at ``--max-steps 60``. Short runs that end at EOS, one-pass and
  two-pass strategies, and trace writing: every decode-side layer works.
* ``simulate-long``: ``simulate`` with ``baseline:beta=0.1;vcd;flb`` on a
  generated scene whose EOS logit is so low that every run reaches the
  280-step cap. The provider's history replay grows as T^2, so this isolates
  the simulator; there are few runs, so per-run overhead barely shows.
* ``rescore``: ``evaluate --traces`` on a directory that a mix-shaped
  ``simulate`` writes during set-up. No decoding happens: all the work is
  reading traces and scoring them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

NAMES = ("simulate-mix", "simulate-long", "rescore")

MIX_STRATEGIES = "baseline;vcd;icd;m3id;flb"
MIX_MAX_STEPS = 60
LONG_STRATEGIES = "baseline:beta=0.1;vcd;flb"
LONG_MAX_STEPS = 280
# At -4 about 2% of runs still drew EOS before the cap; at -12 none of 360 did.
LONG_EOS_LOGIT = -12.0

# Decoding seeds per command. Sized so one repetition takes about a second
# on a 2-core host; more seeds per repetition would mean fewer repetitions.
MIX_SEEDS = 30
LONG_SEEDS = 6
RESCORE_SEEDS = 120

SEED_BLOCK = 1000


@dataclass(frozen=True)
class Workload:
    """One workload, bound to a seed and a work directory."""

    name: str
    seed: int
    work: Path

    def __post_init__(self):
        if self.name not in NAMES:
            raise ValueError(f"unknown workload {self.name!r}; expected one of {NAMES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def seeds(self, count: int) -> str:
        lo = self.seed * SEED_BLOCK
        return f"{lo}:{lo + count}"

    @property
    def scene_path(self) -> Path:
        return self.work / "long_scene.json"

    @property
    def source_dir(self) -> Path:
        """The simulate output that ``rescore`` re-scores."""
        return self.work / "source"

    def simulate_args(self) -> dict:
        """The ``simulate`` flags, as ``config.build_run_config`` keywords."""
        if self.name == "simulate-long":
            return {
                "scene": str(self.scene_path),
                "strategies": LONG_STRATEGIES,
                "seeds": self.seeds(LONG_SEEDS),
                "max_steps": LONG_MAX_STEPS,
            }
        count = RESCORE_SEEDS if self.name == "rescore" else MIX_SEEDS
        return {
            "scene": "default",
            "strategies": MIX_STRATEGIES,
            "seeds": self.seeds(count),
            "max_steps": MIX_MAX_STEPS,
        }

    def simulate_argv(self, out: Path) -> list[str]:
        a = self.simulate_args()
        return [
            "simulate", "--scene", a["scene"], "--strategies", a["strategies"],
            "--seeds", a["seeds"], "--max-steps", str(a["max_steps"]),
            "--jobs", "1", "--format", "json", "--out", str(out),
        ]

    def argv(self, out: Path) -> list[str]:
        """The measured command."""
        if self.name == "rescore":
            return ["evaluate", "--traces", str(self.source_dir),
                    "--out", str(out), "--format", "json"]
        return self.simulate_argv(out)

    def prepare(self, cli_main) -> None:
        """Write the workload's inputs; not timed."""
        if self.name == "simulate-long":
            from logit_anchor.simulator import preset, scene_to_dict

            scene = scene_to_dict(preset("default"))
            scene["base_logits"][scene["tokens"].index(scene["eos"])] = LONG_EOS_LOGIT
            self.scene_path.write_text(json.dumps(scene, sort_keys=True), encoding="utf-8")
        elif self.name == "rescore":
            code = cli_main(self.simulate_argv(self.source_dir))
            if code != 0:
                raise RuntimeError(f"set-up simulate exited {code}")
