"""Benign traffic: deterministic windows, bounded batches, the
backpressure queue and population registration."""

import pytest

from repro.email_provider.provider import EmailProvider
from repro.sim.clock import SimClock
from repro.traffic import (
    BackpressureQueue,
    BenignPopulation,
    TrafficGenerator,
    TrafficProfile,
)
from repro.traffic.population import benign_home_ip, benign_local, benign_password
from repro.util.rngtree import RngTree
from repro.util.timeutil import HOUR

START = 1_400_000_000
USERS = 500


def make_generator(registered=False, **profile_kwargs):
    profile = TrafficProfile(users=USERS, logins_per_user_day=4.0, **profile_kwargs)
    population = BenignPopulation(USERS)
    if registered:
        provider = EmailProvider("t.example", SimClock(START), RngTree(7))
        population.register_with(provider)
    return TrafficGenerator(profile, population, RngTree(7)), population


class TestDeterminism:
    def test_same_window_index_reproduces_identical_events(self):
        gen_a, _ = make_generator()
        gen_b, _ = make_generator()
        wa = gen_a.window(3, START + 4 * 6 * HOUR)
        wb = gen_b.window(3, START + 4 * 6 * HOUR)
        assert wa.login_count == wb.login_count
        for ba, bb in zip(wa.batches, wb.batches):
            assert ba.keys == bb.keys
            assert ba.passwords == bb.passwords
            assert ba.ips == bb.ips
            assert ba.methods == bb.methods

    def test_windows_independent_of_generation_order(self):
        gen_a, _ = make_generator()
        gen_b, _ = make_generator()
        forward = [gen_a.window(k, START + k * HOUR) for k in range(4)]
        backward = [gen_b.window(k, START + k * HOUR) for k in reversed(range(4))]
        backward.reverse()
        for wf, wb in zip(forward, backward):
            assert [b.keys for b in wf.batches] == [b.keys for b in wb.batches]
            assert [b.ips for b in wf.batches] == [b.ips for b in wb.batches]

    def test_mostly_home_ips(self):
        gen, _ = make_generator()
        window = gen.window(0, START)
        home = sum(
            1
            for batch in window.batches
            for key, ip in zip(batch.keys, batch.ips)
            if ip == benign_home_ip(int(key[2:]))
        )
        assert home / window.login_count > 0.85


class TestBatchSplitting:
    def test_windows_split_into_bounded_batches(self):
        gen, _ = make_generator(batch_events=64)
        window = gen.window(0, START)
        assert len(window.batches) > 1
        assert all(len(b) <= 64 for b in window.batches)
        assert sum(len(b) for b in window.batches) == window.login_count
        for batch in window.batches:
            assert len(batch.keys) == len(batch.passwords)
            assert len(batch.keys) == len(batch.ips) == len(batch.methods)

    def test_splitting_preserves_event_order(self):
        gen_whole, _ = make_generator()
        gen_split, _ = make_generator(batch_events=32)
        whole = gen_whole.window(1, START)
        split = gen_split.window(1, START)
        flat_keys = [k for b in split.batches for k in b.keys]
        flat_ips = [ip for b in split.batches for ip in b.ips]
        assert flat_keys == [k for b in whole.batches for k in b.keys]
        assert flat_ips == [ip for b in whole.batches for ip in b.ips]


class TestProducerRows:
    def test_rows_absent_before_registration(self):
        gen, _ = make_generator(registered=False)
        window = gen.window(0, START)
        assert all(batch.rows is None for batch in window.batches)

    def test_rows_resolve_keys_after_registration(self):
        gen, population = make_generator(registered=True, batch_events=64)
        window = gen.window(0, START)
        first_row = population.first_row
        assert first_row is not None
        for batch in window.batches:
            assert batch.rows is not None
            assert len(batch.rows) == len(batch.keys)
            for key, row in zip(batch.keys, batch.rows):
                assert row == first_row + int(key[2:])


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
        population = BenignPopulation(100_000)
        table = population.home_ips()
        assert table.typecode == "Q"
        assert len(table) == population.size
        for i in list(range(0, 100_000, 997)) + [99_999]:
            assert table[i] == benign_home_ip(i)
        assert population.home_ips() is table
        assert len(BenignPopulation(0).home_ips()) == 0

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
