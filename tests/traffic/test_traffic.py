"""Benign traffic: deterministic windows cut from one MT19937 block
(checked against the per-event draw loop they replaced), bounded
batches, the backpressure queue and population registration."""

import tracemalloc

import numpy as np
import pytest

from repro.email_provider.provider import EmailProvider
from repro.email_provider.telemetry import METHOD_CODES, LoginMethod
from repro.sim.clock import SimClock
from repro.traffic import (
    BackpressureQueue,
    BenignPopulation,
    TrafficGenerator,
    TrafficProfile,
)
from repro.traffic import generator as generator_mod
from repro.traffic.generator import WRONG_PASSWORD, _bernoulli_round
from repro.traffic.population import (
    benign_home_ip,
    benign_home_ips,
    benign_local,
    benign_password,
)
from repro.util.rngtree import RngTree
from repro.util.timeutil import HOUR

START = 1_400_000_000
USERS = 500
#: Rows ahead of the benign block in :func:`make_generator`'s provider.
HONEY = 3


def make_generator(users=USERS, seed=7, **profile_kwargs):
    profile_kwargs.setdefault("logins_per_user_day", 4.0)
    profile = TrafficProfile(users=users, **profile_kwargs)
    provider = EmailProvider("t.example", SimClock(START), RngTree(seed))
    for i in range(HONEY):
        provider.provision(f"honey.user.{i:02d}", "H", "HoneyPw!99")
    population = BenignPopulation(users)
    population.register_with(provider)
    return TrafficGenerator(profile, population, RngTree(seed)), population


def columns(window):
    """A window's events as flat lists: users, own, ips, methods."""
    flat = lambda name: [v for b in window.batches for v in getattr(b, name).tolist()]
    return (
        [row - HONEY for row in flat("rows")],
        flat("own"),
        flat("ips"),
        flat("methods"),
    )


#: The benign method mix, as the loop reference consulted it.
METHOD_MIX = (
    (0.45, METHOD_CODES[LoginMethod.WEBMAIL]),
    (0.70, METHOD_CODES[LoginMethod.IMAP]),
    (0.85, METHOD_CODES[LoginMethod.ACTIVESYNC]),
    (0.95, METHOD_CODES[LoginMethod.SMTP]),
    (1.01, METHOD_CODES[LoginMethod.POP3]),
)


def reference_window(profile, seed, index):
    """The per-event draw loop the column windows replaced.

    Returns (users, own, ips, methods, mail users) as lists.
    """
    rng = RngTree(seed).child("traffic").child(str(index)).rng()
    logins = _bernoulli_round(profile.expected_logins_per_window(), rng)
    mails = _bernoulli_round(profile.expected_mails_per_window(), rng)
    users, own, ips = [], [], []
    for _ in range(logins):
        u = rng.randrange(profile.users)
        users.append(u)
        own.append(not rng.random() < profile.bad_password_rate)
        ips.append(
            0x60000000 | rng.getrandbits(29)
            if rng.random() < profile.roaming_rate
            else benign_home_ip(u)
        )
    methods = []
    for _ in range(logins):
        roll = rng.random()
        for threshold, code in METHOD_MIX:
            if roll < threshold:
                methods.append(code)
                break
    mail_users = [rng.randrange(profile.users) for _ in range(mails)]
    return users, own, ips, methods, mail_users


class TestDeterminism:
    def test_same_window_index_reproduces_identical_events(self):
        gen_a, _ = make_generator()
        gen_b, _ = make_generator()
        wa = gen_a.window(3, START + 4 * 6 * HOUR)
        wb = gen_b.window(3, START + 4 * 6 * HOUR)
        assert wa.login_count == wb.login_count > 0
        assert columns(wa) == columns(wb)
        assert wa.mail_rows.tolist() == wb.mail_rows.tolist()

    def test_windows_independent_of_generation_order(self):
        gen_a, _ = make_generator()
        gen_b, _ = make_generator()
        forward = [gen_a.window(k, START + k * HOUR) for k in range(4)]
        backward = [gen_b.window(k, START + k * HOUR) for k in reversed(range(4))]
        backward.reverse()
        for wf, wb in zip(forward, backward):
            assert columns(wf) == columns(wb)

    def test_mostly_home_ips(self):
        gen, _ = make_generator()
        window = gen.window(0, START)
        users, _own, ips, _methods = columns(window)
        home = sum(1 for u, ip in zip(users, ips) if ip == benign_home_ip(u))
        assert home / window.login_count > 0.85


class TestColumnWindows:
    """The column windows equal the per-event loop, event for event."""

    def assert_windows_match(self, users, windows=6, seed=7, **profile_kwargs):
        gen, _ = make_generator(users=users, seed=seed, **profile_kwargs)
        profile = gen._profile
        events = 0
        for k in range(windows):
            window = gen.window(k, START + k * 6 * HOUR)
            ref_users, ref_own, ref_ips, ref_methods, ref_mails = reference_window(
                profile, seed, k
            )
            assert columns(window) == (ref_users, ref_own, ref_ips, ref_methods)
            assert (window.mail_rows - HONEY).tolist() == ref_mails
            events += len(ref_users) + len(ref_mails)
        assert events > 0

    @pytest.mark.parametrize(
        "users,per_day", [(1, 400.0), (1 << 16, 0.05), ((1 << 16) + 1, 0.05),
                          (100_000, 0.02)]
    )
    def test_population_sizes(self, users, per_day):
        self.assert_windows_match(
            users, logins_per_user_day=per_day, mails_per_user_day=per_day / 2
        )

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    @pytest.mark.parametrize("roaming", [0.0, 1.0])
    def test_extreme_rates(self, bad, roaming):
        self.assert_windows_match(
            300, bad_password_rate=bad, roaming_rate=roaming,
            mails_per_user_day=1.0,
        )

    def test_split_windows(self):
        self.assert_windows_match(
            700, windows=10, seed=11, batch_events=37, mails_per_user_day=0.5
        )

    def test_block_too_short_at_first(self, monkeypatch):
        calls = []

        def tiny(*args):
            calls.append(args)
            return 1

        monkeypatch.setattr(generator_mod, "_block_words", tiny)
        self.assert_windows_match(900, windows=4, mails_per_user_day=2.0)
        assert calls

    def test_claims_spell_the_mask(self):
        gen, _ = make_generator()
        window = gen.window(2, START)
        batch = window.batches[0]
        users, own, _ips, _methods = columns(window)
        for i in range(len(batch)):
            expected = benign_password(users[i]) if own[i] else WRONG_PASSWORD
            assert batch.password(i) == expected
        assert False in own and True in own


class TestBatchSplitting:
    def test_windows_split_into_bounded_batches(self):
        gen, _ = make_generator(batch_events=64)
        window = gen.window(0, START)
        assert len(window.batches) > 1
        assert all(len(b) <= 64 for b in window.batches)
        assert sum(len(b) for b in window.batches) == window.login_count
        for batch in window.batches:
            assert len(batch.rows) == len(batch.own)
            assert len(batch.rows) == len(batch.ips) == len(batch.methods)

    def test_splitting_preserves_event_order(self):
        gen_whole, _ = make_generator()
        gen_split, _ = make_generator(batch_events=32)
        whole = gen_whole.window(1, START)
        split = gen_split.window(1, START)
        assert len(split.batches) > len(whole.batches)
        assert columns(split) == columns(whole)


class TestProducerRows:
    def test_unregistered_population_is_rejected(self):
        profile = TrafficProfile(users=USERS)
        with pytest.raises(ValueError, match="registered"):
            TrafficGenerator(profile, BenignPopulation(USERS), RngTree(7))

    def test_rows_resolve_keys_after_registration(self):
        provider = EmailProvider("t.example", SimClock(START), RngTree(7))
        provider.provision("honey.user.00", "H", "HoneyPw!99")
        population = BenignPopulation(USERS)
        population.register_with(provider)
        gen = TrafficGenerator(
            TrafficProfile(users=USERS, logins_per_user_day=4.0, batch_events=64),
            population,
            RngTree(7),
        )
        window = gen.window(0, START)
        assert len(window.batches) > 1
        for batch in window.batches:
            for row in batch.rows.tolist():
                user = row - population.first_row
                assert 0 <= user < USERS
                assert provider._table.row_of(benign_local(user)) == row


class TestPopulation:
    def test_registration_returns_first_row_and_counts(self):
        provider = EmailProvider("t.example", SimClock(START), RngTree(9))
        provider.provision("honey.user.00", "H", "HoneyPw!99")
        population = BenignPopulation(50)
        first_row = population.register_with(provider)
        assert first_row == 1
        assert population.first_row == 1
        assert provider.total_account_count() == 51
        # Benign rows authenticate with their derived credentials.
        from repro.email_provider.provider import LoginResult
        from repro.email_provider.telemetry import LoginMethod
        from repro.net.ipaddr import IPv4Address

        assert (
            provider.attempt_login(
                benign_local(7),
                benign_password(7),
                IPv4Address(benign_home_ip(7)),
                LoginMethod.IMAP,
            )
            is LoginResult.SUCCESS
        )

    def test_home_ip_table_matches_scalar(self):
        users = list(range(0, 100_000, 997)) + [99_999, 2**32 - 1]
        column = benign_home_ips(users)
        assert column.dtype == np.uint64
        assert column.tolist() == [benign_home_ip(i) for i in users]
        assert len(benign_home_ips([])) == 0

    def test_registration_stores_under_100_bytes_per_account(self):
        """The block keeps numeric columns only: 63 bytes a row,
        counting the provider's login state (throttle columns
        included), and no strings."""
        count = 200_000
        provider = EmailProvider("t.example", SimClock(START), RngTree(9))
        population = BenignPopulation(count)
        tracemalloc.start()
        try:
            population.register_with(provider)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / count < 100
        assert provider.total_account_count() == count

    def test_population_size_must_match_profile(self):
        profile = TrafficProfile(users=10)
        with pytest.raises(ValueError):
            TrafficGenerator(profile, BenignPopulation(11), RngTree(1))


class TestBackpressureQueue:
    def test_offer_refuses_when_full(self):
        queue = BackpressureQueue(max_depth=2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")
        assert queue.refused == 1
        assert queue.take() == "a"  # FIFO
        assert queue.offer("c")

    def test_pump_consumes_everything_in_order(self):
        queue = BackpressureQueue(max_depth=3)
        seen = []
        consumed = queue.pump(iter(range(20)), seen.append)
        assert consumed == 20
        assert seen == list(range(20))
        assert queue.peak_depth <= 3
        assert len(queue) == 0

    def test_pump_records_backpressure(self):
        queue = BackpressureQueue(max_depth=1)
        queue.pump(iter(range(5)), lambda item: None)
        assert queue.refused > 0
        assert queue.taken == 5

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            BackpressureQueue(max_depth=0)
