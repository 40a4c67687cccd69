"""Shared output helper for the benchmark suite.

Every bench writes its rendered table or figure to
``benchmarks/output/<name>.txt``; this module is the single place that
knows the directory layout and the trailing-newline convention, so
individual benches and fixtures don't re-implement them.
"""

from __future__ import annotations

import pathlib

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent / "output"


def write_text(name: str, text: str) -> pathlib.Path:
    """Write a rendered table/figure to ``output/<name>.txt``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path
