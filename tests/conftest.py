"""Shared fixtures.

The expensive fixture is ``pilot_result`` — a small but complete pilot
run (registration batches, breaches, attacker campaigns, dumps) shared
session-wide by the analysis and integration tests.  ``scalar_oracle``
is how equivalence tests reach the batch login engine's one scalar
oracle.
"""

from __future__ import annotations

import contextlib
import sys

import pytest

from repro.core.scenario import PilotResult, PilotScenario, ScenarioConfig
from repro.core.system import TripwireSystem
from repro.email_provider import batch
from repro.net.dns import DnsResolver
from repro.net.transport import Transport
from repro.net.whois import WhoisRegistry
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
