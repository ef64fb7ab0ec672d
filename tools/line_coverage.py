"""Print each executable line of ``src/logit_anchor/`` that no test runs.

Runs the tier-1 test suite in this process under ``sys.settrace``, records
each line executed in a file of the package, and prints every executable
line that never ran as ``<file>:<line>: <text>``, with a count per file on
stderr. A line is executable if a code object compiled from the file maps an
instruction to it. Code run in a subprocess (the demos, the benchmark probe)
is not seen.

It gates nothing: it exits 0 whatever the suite's result, which it prints on
stderr. Tracing makes the suite several times slower, so a timing test (C5,
``test_c05_latency_direction``) may fail under it; such a run is not a
tier-1 run. Run from the repository root:

    python tools/line_coverage.py                      # the whole suite
    python tools/line_coverage.py tests/test_cli.py    # pytest arguments
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logit_anchor"


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction compiled from ``path`` belongs to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code and the lines it ran, by file, of the package's files."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)  # the def (or decorator) line
        return on_line

    # The package is first imported under the tracer, so its module-level lines count.
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    str(ROOT / "tests")]
    code, ran = run_traced(args)
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines not run", file=sys.stderr)
        total += len(missed)
    print(f"{total} executable lines not run; the traced suite exited {code}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
