"""Per-login state at 32 bits: the column widths are pinned, a value
that does not fit raises on the scalar and the batch path alike, and a
traffic stream's logs hold exactly their entries' bytes."""

import numpy as np
import pytest

from repro.email_provider import batch as batch_mod
from repro.email_provider.accounts import benign_local, benign_password
from repro.email_provider.batch import LoginBatch
from repro.email_provider.provider import EmailProvider
from repro.email_provider.telemetry import LoginMethod
from repro.net.ipaddr import IPv4Address
from repro.sim.clock import SimClock
from repro.traffic.generator import TrafficGenerator, TrafficProfile
from repro.traffic.population import BenignPopulation
from repro.util.rngtree import RngTree
from repro.util.timeutil import HOUR

START = 1_400_000_000
#: Named rows ahead of the benign block.
FIRST = 2
USERS = 40
PAST_U32 = 1 << 32
PAST_I32 = 1 << 31

#: (typecode, itemsize) of every evidence-log column: 16 bytes an entry.
EVIDENCE_LOG = {
    "_log_times": ("I", 4),
    "_log_ips": ("I", 4),
    "_log_rows": ("i", 4),
    "_log_prev": ("i", 4),
}
#: The row-indexed login-state columns: 25 bytes a row.
ROW_STATE = {
    "_ip_head": ("i", 4),
    "_ip_distinct": ("I", 4),
    "_ip_first": ("Q", 8),
    "_fail_count": ("B", 1),
    "_window_start": ("I", 4),
    "_locked_until": ("I", 4),
}
ACCOUNT_COLUMNS = (
    "created_at", "states", "state_changed_at", "received_counts",
    "spam_counts", "monitored",
)


def width(column):
    return getattr(column, "itemsize", 1)


@pytest.fixture
def provider():
    provider = EmailProvider("widths.example", SimClock(START), RngTree(3))
    for i in range(FIRST):
        assert provider.provision(f"named.user{i}", "N", f"NamedPw!{i}").created
    assert provider.register_benign_accounts(USERS) == FIRST
    return provider


def logs(provider):
    """The raw bytes of both logs' columns."""
    evidence = (getattr(provider, name) for name in EVIDENCE_LOG)
    return tuple(bytes(c) for c in (*evidence, *provider.telemetry.columns()))


def clean_batch(ips):
    """A row batch of own-password logins by users 0.. len(ips)-1."""
    n = len(ips)
    return LoginBatch(
        np.arange(FIRST, FIRST + n, dtype=np.int64),
        np.ones(n, dtype=np.bool_),
        np.asarray(ips, dtype=np.uint64),
        np.zeros(n, dtype=np.uint8),
        lambda row, own: benign_password(row - FIRST),
    )


def home_ips(n):
    return [0x60000000 + i for i in range(n)]


class TestColumnWidths:
    def test_evidence_log_is_16_bytes_an_entry(self, provider):
        columns = {
            name: (getattr(provider, name).typecode, getattr(provider, name).itemsize)
            for name in EVIDENCE_LOG
        }
        assert columns == EVIDENCE_LOG
        assert sum(size for _, size in columns.values()) == 16

    def test_telemetry_is_13_bytes_an_event(self, provider):
        rows, times, ips, methods = provider.telemetry.columns()
        assert [(c.typecode, c.itemsize) for c in (rows, times, ips)] == [
            ("i", 4), ("I", 4), ("I", 4)
        ]
        assert isinstance(methods, bytearray)
        assert sum(map(width, provider.telemetry.columns())) == 13

    def test_row_state_keeps_a_64_bit_first_ip(self, provider):
        columns = {
            name: (getattr(provider, name).typecode, getattr(provider, name).itemsize)
            for name in ROW_STATE
        }
        assert columns == ROW_STATE

    def test_a_benign_block_row_costs_59_bytes(self, provider):
        table = provider._table
        per_row = sum(width(getattr(table, name)) for name in ACCOUNT_COLUMNS)
        per_row += sum(width(getattr(provider, name)) for name in ROW_STATE)
        assert per_row == 59
        rows = len(table)
        account_bytes = sum(
            len(getattr(table, name)) * width(getattr(table, name))
            for name in ACCOUNT_COLUMNS
        )
        row_state = provider.login_state_bytes()["row_state_bytes"]
        assert account_bytes + row_state == 59 * rows


class TestOutOfRangeRaises:
    """An instant or IP at or past 2**32, or a row or log position at or
    past 2**31, raises OverflowError before either log changes."""

    def test_scalar_login_from_an_ip_past_32_bits(self, provider):
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider._attempt_row(FIRST, True, PAST_U32, START)
        assert logs(provider) == before

    def test_scalar_login_of_a_hot_row_from_an_ip_past_32_bits(self, provider):
        """A hot row's packed ring would let the IP bleed into the time."""
        provider.SUSPICION_DISTINCT_IPS = 3
        for ip in home_ips(3):
            provider._attempt_row(FIRST, True, ip, START)
        assert FIRST in provider._ip_hot
        window = provider.login_window_snapshot()[FIRST]
        with pytest.raises(OverflowError):
            provider._attempt_row(FIRST, True, PAST_U32, START)
        assert provider.login_window_snapshot()[FIRST] == window

    def test_scalar_login_at_an_instant_past_32_bits(self, provider):
        provider._clock.advance_to(PAST_U32)
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider.attempt_login(
                benign_local(0), benign_password(0),
                IPv4Address(home_ips(1)[0]), LoginMethod.IMAP,
            )
        assert logs(provider) == before

    @pytest.mark.parametrize("events", [USERS, 1], ids=["vector", "serial"])
    def test_batch_login_from_an_ip_past_32_bits(self, provider, events):
        ips = home_ips(events)
        ips[events // 2] = PAST_U32
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider.attempt_logins(clean_batch(ips))
        assert logs(provider) == before

    @pytest.mark.parametrize("events", [USERS, 1], ids=["vector", "serial"])
    def test_batch_login_at_an_instant_past_32_bits(self, provider, events):
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider.attempt_logins(clean_batch(home_ips(events)), now=PAST_U32)
        assert logs(provider) == before

    def test_batch_login_past_the_last_log_position(self, provider, monkeypatch):
        provider.attempt_logins(clean_batch(home_ips(USERS)))
        monkeypatch.setattr(
            batch_mod, "_LOG_POSITIONS", len(provider._log_times) + USERS - 1
        )
        provider._clock.advance(HOUR)
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider.attempt_logins(clean_batch(home_ips(USERS)))
        assert logs(provider) == before

    @pytest.mark.parametrize(
        "row, time, ip",
        [(FIRST, PAST_U32, 1), (FIRST, START, PAST_U32), (PAST_I32, START, 1)],
        ids=["instant", "ip", "row"],
    )
    def test_telemetry_record_row(self, provider, row, time, ip):
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider.telemetry.record_row(row, time, ip, 0)
        assert logs(provider) == before

    @pytest.mark.parametrize(
        "row, time, ip",
        [(FIRST, PAST_U32, 1), (FIRST, START, PAST_U32), (PAST_I32, START, 1)],
        ids=["instant", "ip", "row"],
    )
    def test_telemetry_record_rows(self, provider, row, time, ip):
        rows = np.array([FIRST, row, FIRST + 1], dtype=np.int64)
        ips = np.array([1, ip, 2], dtype=np.uint64)
        before = logs(provider)
        with pytest.raises(OverflowError):
            provider.telemetry.record_rows(rows, time, ips, np.zeros(3, np.uint8))
        assert logs(provider) == before


def test_traffic_logs_hold_exactly_their_entries_bytes():
    """A fixed traffic stream over 10^4 benign users: the evidence log
    holds 16 bytes an entry and telemetry 13 an event, counted as length
    × itemsize."""
    users = 10_000
    provider = EmailProvider("footprint.example", SimClock(START), RngTree(9))
    population = BenignPopulation(users)
    population.register_with(provider)
    profile = TrafficProfile(users=users, logins_per_user_day=0.33)
    generator = TrafficGenerator(profile, population, RngTree(9))
    successes = 0
    for k in range(8):
        provider._clock.advance(profile.window_seconds)
        window = generator.window(k, provider._clock.now())
        for batch in window.batches:
            successes += provider.attempt_logins(batch).successes
    entries = len(provider._log_times)
    events = provider.telemetry.retained_count
    assert successes > 5000
    assert entries == events == successes  # every row stayed cold
    sizes = provider.login_state_bytes()
    assert sizes["evidence_log_bytes"] == 16 * entries
    assert sizes["telemetry_bytes"] == 13 * events
    assert sizes["row_state_bytes"] == 25 * users
