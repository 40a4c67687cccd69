"""Statement-coverage estimate for environments without coverage.py.

CI measures coverage with pytest-cov; this script produces the local
*baseline* number recorded in ``benchmarks/coverage_baseline.json``
(the number the CI gate is derived from) using only the standard
library: an AST pass enumerates statement lines per source file, and a
``sys.settrace`` hook records which of them execute while the tier-1
suite runs.

The estimate tracks coverage.py closely but not exactly (decorator and
multi-line-statement accounting differ slightly), which is why the CI
gate subtracts a two-point regression allowance from the recorded
baseline rather than pinning it.

Usage::

    PYTHONPATH=src python benchmarks/measure_coverage.py [pytest args]
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys
import threading

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
OUTPUT = pathlib.Path(__file__).resolve().parent / "coverage_baseline.json"


def statement_lines(path: pathlib.Path) -> set[int]:
    """First lines of every statement in a module (coverage.py's unit)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            lines.add(node.lineno)
    return lines


def collect_targets() -> dict[str, set[int]]:
    targets: dict[str, set[int]] = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        targets[str(path)] = statement_lines(path)
    return targets


def file_tracer(hits: set[int]):
    """The local trace function of one source file: adds each line run.

    The call event's line is the ``def`` line itself.
    """

    def line_tracer(frame, event, arg):
        if event in ("call", "line"):
            hits.add(frame.f_lineno)
        return line_tracer

    return line_tracer


def make_tracer(prefix: str, executed: dict[str, set[int]]):
    """The global trace function: line-traces the files in ``executed``.

    Each file gets one :func:`file_tracer`, built at its first call and
    reused for every later one.  (The line tracer returns itself, so
    it is a reference cycle; one per call would leave that garbage to
    the collector on every traced call.)
    """
    line_tracers = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        line_tracer = line_tracers.get(filename)
        if line_tracer is None:
            if not filename.startswith(prefix):
                return None  # skip line-tracing outside src/repro entirely
            hits = executed.get(filename)
            if hits is None:
                return None
            line_tracer = line_tracers[filename] = file_tracer(hits)
        return line_tracer(frame, event, arg)

    return tracer


def main(argv: list[str]) -> int:
    import pytest

    pytest_args = argv or ["-q"]
    targets = collect_targets()
    executed: dict[str, set[int]] = {name: set() for name in targets}
    tracer = make_tracer(str(SRC_ROOT), executed)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # pytest prepends its addopts to the list it is given, in place.
        exit_code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    # Import-time execution (module/class bodies) is attributed by the
    # tracer too, since imports happen while the hook is installed.
    per_file = {}
    total_stmts = total_hit = 0
    for name, stmts in sorted(targets.items()):
        hit = len(stmts & executed[name])
        total_stmts += len(stmts)
        total_hit += hit
        rel = str(pathlib.Path(name).relative_to(SRC_ROOT.parent))
        per_file[rel] = {
            "statements": len(stmts),
            "executed": hit,
            "percent": round(100.0 * hit / len(stmts), 1) if stmts else 100.0,
        }

    percent = round(100.0 * total_hit / total_stmts, 1) if total_stmts else 0.0
    summary = {
        "method": "stdlib settrace + AST statement lines (see this script)",
        "pytest_args": pytest_args,
        "total_statements": total_stmts,
        "executed_statements": total_hit,
        "percent": percent,
        "files": per_file,
    }
    OUTPUT.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"\ncoverage estimate: {percent}% "
          f"({total_hit}/{total_stmts} statements) -> {OUTPUT}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
