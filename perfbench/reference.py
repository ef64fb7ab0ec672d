"""A fixed reference computation that measures how fast the host is right now.

On a shared host the same code runs up to a third slower for stretches of
seconds to minutes, and CPU time slows with wall time, so neither a longer
run nor CPU time removes it. The benchmark therefore times this function
just before and just after every repetition and every set-up sample, and
scales their wall times by ``REFERENCE_S / mean reference time``. Host slowdowns hit
both alike and mostly cancel; a change to the program does not touch this
code, so it shows in full. It runs in a child process of its own
(``ReferenceTimer``), so that its memory stays out of the measured
process's peak RSS.

The work resembles the workloads': numpy on 48-float vectors, a Python loop
over the history, and JSON lines written and parsed. It allocates little, so
that its own time stays steady. It imports nothing from the program. Changing it, or
``REFERENCE_S``, changes every figure the benchmark reports, so it is part
of the benchmark's definition.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from time import perf_counter

import numpy as np

# The reference's median time on the 2-core host where the benchmark was
# defined (Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6). It only sets
# the scale: a figure reads as if measured while the host ran at that speed.
REFERENCE_S = 0.11

STEPS = 3000
VOCAB = 48
HISTORY = 40


def reference() -> float:
    rng = np.random.default_rng(12345)
    x = np.zeros(VOCAB)
    history: list[int] = []
    lines = []
    for t in range(STEPS):
        x = 0.5 * x + rng.normal(0.0, 1.0, VOCAB)
        p = np.exp(x - x.max())
        p /= p.sum()
        chosen = int(np.searchsorted(np.cumsum(p), rng.random()))
        history.append(chosen)
        state = 0
        for token in history[-HISTORY:]:
            state = (state * 31 + token) % 1009
        lines.append(json.dumps({"t": t, "c": chosen, "p": float(p[chosen]), "s": state},
                                sort_keys=True))
    return sum(json.loads(line)["p"] for line in lines)


def time_reference() -> float:
    """Wall seconds of one reference run."""
    gc.collect()
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class ReferenceTimer:
    """Times the reference in a child process, one run per call."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with code {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(time_reference()), flush=True)
