"""Shared fixtures.

The expensive fixtures are session-wide pilot runs (registration
batches, breaches, attacker campaigns, dumps).  ``pilot_result`` is a
small one shared by the analysis and integration tests.
``paper_pilot`` is large enough for the paper's shape claims (Tables
1-4, Figures 1-3, §§3, 6.4.2 and 6.4.3) to hold, and runs at several
seeds.  ``scalar_oracle`` is how equivalence tests reach the batch
login engine's one scalar oracle, and ``perf_off`` is how they reach
the cold path of every cache in the perf layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from pathlib import Path

import pytest

from repro.core.scenario import PilotResult, PilotScenario, ScenarioConfig
from repro.core.system import TripwireSystem
from repro.email_provider import batch
from repro.net.dns import DnsResolver
from repro.net.transport import Transport
from repro.net.whois import WhoisRegistry
from repro.perf import caching as _perf
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree


@pytest.fixture
def tree() -> RngTree:
    return RngTree(1234)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def transport(clock: SimClock) -> Transport:
    return Transport(clock)


@pytest.fixture
def whois() -> WhoisRegistry:
    return WhoisRegistry()


@pytest.fixture
def dns() -> DnsResolver:
    return DnsResolver()


@pytest.fixture
def scalar_oracle(monkeypatch):
    """A context manager that routes every batch login window through
    the scalar oracle while it is open.

    It raises ``batch.VECTOR_MIN_EVENTS`` above any batch size, so
    ``BatchLoginEngine`` authenticates each window with
    ``_attempt_serial``: one ``EmailProvider._attempt_row`` call per
    event, in batch order.  Equivalence tests run once vectorized and
    once inside ``with scalar_oracle():`` and compare the bytes.  The
    oracle exists in tests only; it is not a runtime option.
    """

    @contextlib.contextmanager
    def oracle():
        with monkeypatch.context() as patch:
            patch.setattr(batch, "VECTOR_MIN_EVENTS", sys.maxsize)
            yield

    return oracle


@pytest.fixture
def perf_off():
    """A context manager that turns the perf layer off while it is open.

    Every cache misses inside it.  The warm spec table is not shared
    either: each shard, and each listing, fills its own private table,
    prefix-closed like the shared one.  This is the cold reference path
    that equivalence tests compare cached runs with.  Switching the
    layer off empties every cache, so the layer reopens cold.
    """

    @contextlib.contextmanager
    def off():
        was_enabled = _perf.enabled()
        _perf.set_enabled(False)
        try:
            yield
        finally:
            _perf.set_enabled(was_enabled)

    return off


@pytest.fixture
def small_system() -> TripwireSystem:
    """A compact wired system for component-integration tests."""
    return TripwireSystem(seed=11, population_size=80)


SMALL_PILOT_CONFIG = ScenarioConfig(
    seed=5,
    population_size=300,
    seed_list_size=50,
    main_crawl_top=250,
    second_crawl_top=300,
    manual_top=12,
    breach_count=8,
    breach_hard_exposing=4,
    unused_account_count=80,
    control_account_count=4,
)


@pytest.fixture(scope="session")
def pilot_result() -> PilotResult:
    """One complete (small) pilot run shared by analysis tests."""
    return PilotScenario(SMALL_PILOT_CONFIG).run()


#: About 5% of the paper's world: 1,500 sites and 21 breaches.
PAPER_PILOT_CONFIG = ScenarioConfig(
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

#: The seeds the shape claims are checked at: the reference seed in
#: tier 1, five more (about 5 s each) in the slow tier.
PAPER_SEEDS = [PAPER_PILOT_CONFIG.seed] + [
    pytest.param(seed, marks=pytest.mark.slow) for seed in range(1, 6)
]


@pytest.fixture(scope="session")
def reference_pilot() -> PilotResult:
    """The paper-shape pilot at its reference seed, 2017."""
    return PilotScenario(PAPER_PILOT_CONFIG).run()


@pytest.fixture(scope="session", params=PAPER_SEEDS, ids="seed{}".format)
def paper_pilot(request) -> PilotResult:
    """The paper-shape pilot at each of PAPER_SEEDS."""
    if request.param == PAPER_PILOT_CONFIG.seed:
        return request.getfixturevalue("reference_pilot")
    return PilotScenario(dataclasses.replace(PAPER_PILOT_CONFIG, seed=request.param)).run()


@pytest.fixture(scope="session")
def pilots(pilot_result, reference_pilot) -> tuple[PilotResult, PilotResult]:
    """The small pilot and the reference paper-shape pilot, for checks
    that must hold on any pilot."""
    return pilot_result, reference_pilot


EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.fixture(scope="session")
def experiments_quote():
    """Assert that EXPERIMENTS.md quotes a rendered figure, whitespace
    normalised; a failure prints what was rendered."""
    doc = " ".join(EXPERIMENTS_MD.read_text(encoding="utf-8").split())

    def check(rendered: str) -> None:
        assert " ".join(rendered.split()) in doc, rendered

    return check
