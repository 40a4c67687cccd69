"""Benchmark fixtures.

``pilot`` runs one moderate-scale pilot (about 5% of the paper's size)
once per session; the per-table benches then time the analysis builders
against it and write their rendered output to ``benchmarks/output/``.
The ablation, extension and undetected-breach benches run their own
scenarios.
"""

from __future__ import annotations

import pytest

from _output import OUTPUT_DIR, write_text
from repro.core.scenario import PilotResult, PilotScenario, ScenarioConfig

__all__ = ["OUTPUT_DIR"]

BENCH_PILOT_CONFIG = ScenarioConfig(
    seed=2017,
    population_size=1500,
    seed_list_size=150,
    main_crawl_top=1250,
    second_crawl_top=1500,
    manual_top=40,
    breach_count=21,
    breach_hard_exposing=11,
    unused_account_count=300,
    control_account_count=6,
)


@pytest.fixture(scope="session")
def pilot() -> PilotResult:
    """The shared pilot run all table/figure benches analyze."""
    return PilotScenario(BENCH_PILOT_CONFIG).run()


@pytest.fixture(scope="session")
def record():
    """Write a rendered table/figure to benchmarks/output/<name>.txt."""

    def _record(name: str, text: str) -> None:
        write_text(name, text)
        print(f"\n{text}\n")

    return _record
