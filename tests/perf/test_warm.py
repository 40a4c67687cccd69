"""Warm per-worker world cache: keying, invalidation, bit-identity."""

import dataclasses
import sys

import pytest

from repro.cli import main
from repro.core.runner import ShardPlan, pack_overrides, run_shard
from repro.core.substrate import WorldShard
from repro.core.system import TripwireSystem
from repro.perf import caching as _perf
from repro.perf.warm import (
    WarmWorld,
    world_for_key,
    world_for_plan,
    world_key,
)
from repro.util.rngtree import RngTree
from repro.web.generator import GeneratorConfig

SEED, POPULATION, TOP = 523, 260, 12


@pytest.fixture(autouse=True)
def fresh_layer():
    """Each test starts with the perf layer on and every cache empty."""
    _perf.set_enabled(True)
    _perf.clear_all_caches()
    yield
    _perf.set_enabled(True)
    _perf.clear_all_caches()


def make_plan(seed=SEED, population=POPULATION, warm=True, **kwargs) -> ShardPlan:
    listing = WorldShard(RngTree(seed)).build_population(population)
    sites = tuple(listing.alexa_top(TOP))
    return ShardPlan(
        shard_index=kwargs.pop("shard_index", 0),
        shard_count=1,
        seed=seed,
        population_size=population,
        sites=sites,
        positions=tuple(range(len(sites))),
        warm_enabled=warm,
        **kwargs,
    )


class TestWorldKey:
    def test_same_inputs_same_world(self):
        key = world_key(SEED, POPULATION, None, ())
        assert world_for_key(key) is world_for_key(key)

    def test_different_seed_different_world(self):
        a = world_for_key(world_key(SEED, POPULATION, None, ()))
        b = world_for_key(world_key(SEED + 1, POPULATION, None, ()))
        assert a is not b

    def test_different_population_different_world(self):
        a = world_for_key(world_key(SEED, POPULATION, None, ()))
        b = world_for_key(world_key(SEED, POPULATION + 1, None, ()))
        assert a is not b

    def test_different_generator_config_different_key(self):
        base = GeneratorConfig()
        tweaked = dataclasses.replace(base, username_rate=0.61)
        assert world_key(SEED, POPULATION, base, ()) != world_key(
            SEED, POPULATION, tweaked, ()
        )
        # ...but two equal configs agree, object identity notwithstanding.
        assert world_key(SEED, POPULATION, base, ()) == world_key(
            SEED, POPULATION, GeneratorConfig(), ()
        )

    def test_different_overrides_different_key(self):
        packed = pack_overrides({3: {"language": "de"}})
        assert world_key(SEED, POPULATION, None, ()) != world_key(
            SEED, POPULATION, None, packed
        )


class TestWorldForPlan:
    def test_cold_when_not_opted_in(self):
        assert world_for_plan(make_plan(warm=False)) is None

    def test_cold_when_layer_disabled(self):
        _perf.set_enabled(False)
        assert world_for_plan(make_plan(warm=True)) is None

    def test_warm_plan_gets_a_world(self):
        plan = make_plan(warm=True)
        world = world_for_plan(plan)
        assert isinstance(world, WarmWorld)
        assert world_for_plan(plan) is world

    def test_disable_clears_the_store(self):
        plan = make_plan(warm=True)
        before = world_for_plan(plan)
        _perf.set_enabled(False)
        _perf.set_enabled(True)
        assert world_for_plan(plan) is not before

    def test_serial_sharded_campaign_hits_the_cache(self, capsys):
        """The four shards of one serial campaign share a world: the
        first builds it and the other three hit it.  (The golden pilot
        pin guards the other caches; the pilot never shards.)"""
        assert main(["campaign", "--top", "40", "--population", "150",
                     "--shards", "4"]) == 0
        stats = _perf.cache_stats()["warm.worlds"]
        assert (stats["hits"], stats["misses"]) == (3, 1)


def shard_fingerprint(result):
    return [
        (a.site_host, a.rank, a.identity.identity_id, a.identity.email_local,
         a.password_class.value, a.outcome.code.value, a.outcome.pages_loaded,
         a.registered_at, a.manual)
        for _pos, group in result.site_attempts
        for a in group
    ]


class TestWarmEqualsCold:
    def test_warm_shard_bit_matches_cold(self):
        cold = run_shard(make_plan(warm=False))
        first_warm = run_shard(make_plan(warm=True))   # populates the cache
        second_warm = run_shard(make_plan(warm=True))  # replays from it
        assert shard_fingerprint(cold) == shard_fingerprint(first_warm)
        assert shard_fingerprint(cold) == shard_fingerprint(second_warm)
        assert cold.stats == first_warm.stats == second_warm.stats
        assert cold.telemetry == first_warm.telemetry == second_warm.telemetry

    def test_warm_specs_match_cold_specs(self):
        plan = make_plan(warm=True)
        run_shard(plan)
        world = world_for_plan(plan)
        assert world is not None and world.spec_cache.specs
        cold_population = WorldShard(RngTree(SEED)).build_population(POPULATION)
        for rank, spec in world.spec_cache.specs.items():
            assert spec == cold_population.spec_at_rank(rank)

    def test_warm_provisioning_matches_cold_pool(self):
        plan = make_plan(warm=True)
        run_shard(plan)  # record the corpus
        warm_world = world_for_plan(plan)
        assert warm_world is not None and warm_world.identity_corpus

        def build_pool(warm):
            system = TripwireSystem(
                seed=SEED,
                population_size=POPULATION,
                apparatus_namespace=("shard", 0),
                warm=warm,
            )
            hard = 2 * TOP + plan.identity_headroom
            easy = TOP + plan.identity_headroom
            if warm is not None:
                warm.provision(system, hard, easy, ("shard", 0))
            else:
                from repro.identity.passwords import PasswordClass

                system.provision_identities(hard, PasswordClass.HARD)
                system.provision_identities(easy, PasswordClass.EASY)
            return system.pool

        cold_pool = build_pool(None)
        warm_pool = build_pool(warm_world)
        assert [i.identity_id for i in cold_pool.all_identities()] == [
            i.identity_id for i in warm_pool.all_identities()
        ]
        assert [i.email_local for i in cold_pool.all_identities()] == [
            i.email_local for i in warm_pool.all_identities()
        ]


class TestThreadPoolFill:
    CAMPAIGN = [
        "campaign", "--top", "40", "--population", "150", "--shards", "4",
        "--fault-profile", "moderate",
    ]

    def journal(self, path, extra):
        _perf.clear_all_caches()
        assert main(self.CAMPAIGN + extra + ["--obs-out", str(path)]) == 0
        return path.read_bytes()

    def test_thread_campaign_repeats_the_serial_journal(self, tmp_path):
        """Thread workers share one warm spec cache.  Filled without its
        lock, they resolved host collisions against a ``hosts_taken``
        set other threads were filling, and now and then cached a wrong
        spec.  A short switch interval makes that interleaving likely
        on every run."""
        reference = self.journal(
            tmp_path / "serial.jsonl",
            ["--workers", "1", "--executor", "serial", "--no-warm-workers"],
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for run in range(6):
                journal = self.journal(
                    tmp_path / f"thread-{run}.jsonl",
                    ["--workers", "4", "--executor", "thread"],
                )
                assert journal == reference, f"thread run {run}"
        finally:
            sys.setswitchinterval(interval)
