"""Credential stuffing engine: corpus determinism, join equivalence,
and vectorized dispatch producing the provider world of the batch
engine's scalar oracle."""

from array import array

import numpy as np
import pytest

from repro.attacker.breach import BreachMethod
from repro.attacker.stuffing import (
    AttackClass,
    BreachCorpus,
    StuffingEngine,
    build_benign_corpus,
)
from repro.email_provider.accounts import benign_password
from repro.email_provider.provider import EmailProvider
from repro.identity.reuse import CrossSiteReuseModel, ReuseClass
from repro.sim.clock import SimClock
from repro.traffic.population import BenignPopulation
from repro.util.rngtree import RngTree

START = 1_500_000
SEED = 23
UNIVERSE = 600


@pytest.fixture(scope="module")
def model():
    return CrossSiteReuseModel.from_tree(
        RngTree(SEED), exact_rate=0.35, derive_rate=0.3, site_density=0.2
    )


def make_world(size=400):
    provider = EmailProvider("stuff.example", SimClock(START), RngTree(SEED))
    population = BenignPopulation(size)
    population.register_with(provider)
    return provider, population


def make_engine(model, size=400, batch_events=64):
    provider, population = make_world(size)
    engine = StuffingEngine(
        provider, population, model, RngTree(SEED + 1), batch_events=batch_events
    )
    return provider, engine


def world_state(provider):
    return {
        "telemetry": provider.telemetry.columns(),
        "states": bytes(provider._table.states),
        "throttle": provider.throttle_snapshot(),
        "windows": provider.login_window_snapshot(),
        "first_ips": bytes(provider._ip_first),
    }


def dispatch_wave(engine, corpus):
    """Plan and dispatch one wave: its per-event result codes and record."""
    wave = engine.plan_wave(corpus)
    codes = bytearray()
    for batch in wave.batches:
        codes.extend(engine.dispatch_batch(batch))
    return codes, engine.collect(wave, codes)


class TestCorpus:
    def test_online_capture_takes_every_member(self, model):
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        assert list(corpus.users) == list(model.members(7, UNIVERSE))
        assert corpus.acquisition is AttackClass.ONLINE_CAPTURE
        assert len(corpus.codes) == len(corpus)

    def test_db_dump_keeps_only_cracked_rows(self, model):
        full = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        dump = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.DB_DUMP,
            crack_rate=0.5,
        )
        assert dump.acquisition is AttackClass.OFFLINE_CRACK
        assert 0 < len(dump) < len(full)
        assert set(dump.users) <= set(full.users)
        # The cracked subset is a pure per-(user, site) coin.
        again = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.DB_DUMP,
            crack_rate=0.5,
        )
        assert again.users == dump.users
        assert again.codes == dump.codes

    def test_corpus_passwords_are_the_site_passwords(self, model):
        """The haul is what the breached site stores: the codes are the
        users' reuse classes, a wave's claims spell the site passwords,
        and its ``own`` mask marks exactly the claims equal to the
        mailbox password."""
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        assert list(corpus.codes) == [model.behavior(u) for u in corpus.users]
        _, engine = make_engine(model, size=UNIVERSE)
        wave = engine.plan_wave(corpus)
        claims, own = [], []
        for batch in wave.batches:
            claims += [batch.password(i) for i in range(len(batch))]
            own += batch.own.tolist()
        site = [model.site_password(u, 7) for u in corpus.users]
        assert claims == site
        assert own == [
            pw == benign_password(u) for u, pw in zip(corpus.users, site)
        ]
        assert True in own and False in own

    def test_corpus_prefix_closed_across_universes(self, model):
        small = build_benign_corpus(
            model, 300, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        large = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        n = len(small)
        assert list(large.users)[:n] == list(small.users)
        assert large.codes[:n] == small.codes


class TestWavePlanning:
    def test_candidates_are_corpus_rows_inside_the_population(self, model):
        provider, engine = make_engine(model, size=300)
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        wave = engine.plan_wave(corpus)
        assert list(wave.users) == [u for u in corpus.users if u < 300]
        total = sum(len(b) for b in wave.batches)
        assert total == wave.candidates
        rows = [r for b in wave.batches for r in b.rows.tolist()]
        assert rows == [u + engine._population.first_row for u in wave.users]

    def test_batch_splitting_preserves_event_order(self, model):
        _, engine_small = make_engine(model, batch_events=16)
        _, engine_big = make_engine(model, batch_events=10_000)
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        small = engine_small.plan_wave(corpus)
        big = engine_big.plan_wave(corpus)
        assert len(small.batches) > 1
        assert len(big.batches) == 1
        flat = lambda waves, col: [
            v for b in waves.batches for v in getattr(b, col).tolist()
        ]
        for col in ("rows", "own", "ips", "methods"):
            assert flat(small, col) == flat(big, col)

    def test_proxy_ips_stay_out_of_the_benign_space(self, model):
        _, engine = make_engine(model)
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        wave = engine.plan_wave(corpus)
        for batch in wave.batches:
            for ip in batch.ips.tolist():
                assert ip >> 24 == 0x2E
                assert not (0x60000000 <= ip < 0x80000000)

    def test_site_target_reports_reflect_reuse(self, model):
        _, engine = make_engine(model)
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        wave = engine.plan_wave(corpus, targets=(7, 9, 11))
        by_rank = {t.target_rank: t for t in wave.site_targets}
        # Self-target: every held credential trivially works.
        assert by_rank[7].hits == by_rank[7].candidates == len(corpus)
        for rank in (9, 11):
            report = by_rank[rank]
            members = set(model.members(rank, UNIVERSE))
            expected_candidates = [u for u in corpus.users if u in members]
            assert report.candidates == len(expected_candidates)
            expected_hits = sum(
                1
                for u in expected_candidates
                if model.site_password(u, 7) == model.site_password(u, rank)
            )
            assert report.hits == expected_hits
            assert 0 < report.candidates
            assert report.hits <= report.candidates

    def test_lane_hits_equal_site_password_equality(self):
        """Hits counted from the lanes equal a string comparison of
        ``site_password`` at the two sites, over random users and
        ranks and over users whose derive suffixes collide."""
        model = CrossSiteReuseModel.from_tree(
            RngTree(SEED), exact_rate=0.2, derive_rate=0.7, site_density=1.0
        )
        # Forced collisions: DERIVED users whose 16-bit suffixes at
        # ranks 3 and 8 agree (about 1 in 65536 per user).
        pool = np.arange(1_000_000, dtype=np.int64)
        collide = pool[
            (model.derive_suffixes(pool, 3) == model.derive_suffixes(pool, 8))
            & (np.frombuffer(model.behaviors(pool), np.uint8) == ReuseClass.DERIVED)
        ]
        assert collide.size >= 2
        rng = np.random.default_rng(SEED)
        cases = [(3, 8, collide)] + [
            (int(a), int(b), np.unique(rng.integers(0, 1 << 40, 300)))
            for a, b in rng.integers(0, 5000, size=(6, 2))
        ]
        _, engine = make_engine(model)
        for source, target, users in cases:
            users = np.sort(np.concatenate((users, np.arange(40))))
            members = array("q", users.tolist())
            corpus = BreachCorpus(
                source, "src.test", BreachMethod.ONLINE_CAPTURE, 0,
                int(users[-1]) + 1, members, model.behaviors(members),
            )
            report = engine._probe_target(corpus, target)
            assert report.candidates == len(users)
            assert report.hits == sum(
                model.site_password(u, source) == model.site_password(u, target)
                for u in members
            )
            if source == 3:
                assert report.hits >= collide.size


class TestDispatchEquivalence:
    def test_batched_and_per_event_worlds_are_identical(
        self, model, scalar_oracle
    ):
        """The vectorized wave against the scalar oracle, which
        authenticates it per event through the shared decision core."""
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        provider_b, engine_b = make_engine(model, batch_events=32)
        codes_b, result_b = dispatch_wave(engine_b, corpus)
        with scalar_oracle():
            provider_s, engine_s = make_engine(model, batch_events=32)
            codes_s, result_s = dispatch_wave(engine_s, corpus)
        assert codes_b == codes_s
        assert world_state(provider_b) == world_state(provider_s)
        assert result_b == result_s
        # The wave is failure-heavy, and its failures took the
        # vector failure commit, not the scalar loop.
        assert result_b.bad_passwords > result_b.successes
        stats = provider_b.batch_engine_stats()
        assert stats["vector_committed"] > 0
        assert stats["vector_failed"] > 0
        assert provider_s.batch_engine_stats()["vector_committed"] == 0

    def test_wave_result_separates_hits_from_misses(self, model):
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE
        )
        _, engine = make_engine(model)
        result = engine.execute_wave(engine.plan_wave(corpus))
        assert result.attack_class is AttackClass.STUFFED_REUSE
        assert result.attempts == result.candidates
        assert result.successes + result.bad_passwords == result.attempts
        assert 0 < result.successes < result.attempts
        # Hits are exactly the EXACT reusers (mailbox password leaked
        # verbatim at the breached site).
        from repro.identity.reuse import ReuseClass

        expected = [
            u
            for u in engine.plan_wave(corpus).users
            if model.behavior(u) is ReuseClass.EXACT
        ]
        assert list(result.hit_users) == expected
        assert engine.stats()["successes"] == result.successes

    def test_wave_columns_are_deterministic_per_wave_index(self, model):
        corpus = build_benign_corpus(
            model, UNIVERSE, 7, "breached.test", BreachMethod.ONLINE_CAPTURE,
            wave=3,
        )
        _, engine_a = make_engine(model)
        _, engine_b = make_engine(model)
        wave_a = engine_a.plan_wave(corpus)
        # Planning other waves first must not shift wave 3's columns.
        other = build_benign_corpus(
            model, UNIVERSE, 9, "other.test", BreachMethod.ONLINE_CAPTURE,
            wave=1,
        )
        engine_b.plan_wave(other)
        wave_b = engine_b.plan_wave(corpus)
        assert len(wave_a.batches) == len(wave_b.batches) > 1
        for a, b in zip(wave_a.batches, wave_b.batches):
            assert a.ips.tolist() == b.ips.tolist()
            assert a.methods.tolist() == b.methods.tolist()
            assert a.rows.tolist() == b.rows.tolist()
            assert a.own.tolist() == b.own.tolist()
