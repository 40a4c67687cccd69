"""Warm spec cache: keying, invalidation, bit-identity."""

import pytest

from repro.cli import main
from repro.core.runner import ShardPlan, run_shard
from repro.core.substrate import WorldShard
from repro.perf import caching as _perf
from repro.perf.warm import SpecCache, spec_cache_for
from repro.util.rngtree import RngTree

SEED, POPULATION, TOP = 523, 260, 12


@pytest.fixture(autouse=True)
def fresh_layer():
    """Each test starts with the perf layer on and every cache empty."""
    _perf.set_enabled(True)
    _perf.clear_all_caches()
    yield
    _perf.set_enabled(True)
    _perf.clear_all_caches()


def make_plan() -> ShardPlan:
    listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
    sites = tuple(listing.alexa_top(TOP))
    return ShardPlan(
        shard_index=0,
        shard_count=1,
        seed=SEED,
        population_size=POPULATION,
        sites=sites,
        positions=tuple(range(len(sites))),
    )


class TestWorldKey:
    def test_same_inputs_same_world(self):
        assert spec_cache_for(SEED, POPULATION) is spec_cache_for(SEED, POPULATION)

    def test_different_seed_different_world(self):
        assert spec_cache_for(SEED, POPULATION) is not spec_cache_for(SEED + 1, POPULATION)

    def test_different_population_different_world(self):
        assert spec_cache_for(SEED, POPULATION) is not spec_cache_for(SEED, POPULATION + 1)


class TestWorldForPlan:
    def test_cold_when_layer_disabled(self):
        _perf.set_enabled(False)
        assert spec_cache_for(SEED, POPULATION) is None

    def test_warm_plan_gets_a_world(self):
        cache = spec_cache_for(SEED, POPULATION)
        assert isinstance(cache, SpecCache)
        assert spec_cache_for(SEED, POPULATION) is cache

    def test_disable_clears_the_store(self):
        before = spec_cache_for(SEED, POPULATION)
        _perf.set_enabled(False)
        _perf.set_enabled(True)
        assert spec_cache_for(SEED, POPULATION) is not before

    def test_serial_sharded_campaign_hits_the_cache(self, capsys):
        """The four shards of one serial campaign share a spec cache:
        the first builds it and the other three hit it.  (The golden
        pilot pin guards the other caches; the pilot never shards.)"""
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
    def test_warm_shard_bit_matches_cold(self, perf_off):
        with perf_off():
            cold = run_shard(make_plan())
        first_warm = run_shard(make_plan())   # populates the cache
        second_warm = run_shard(make_plan())  # reads specs from it
        assert shard_fingerprint(cold) == shard_fingerprint(first_warm)
        assert shard_fingerprint(cold) == shard_fingerprint(second_warm)
        assert cold.stats == first_warm.stats == second_warm.stats
        assert cold.telemetry == first_warm.telemetry == second_warm.telemetry

    def test_warm_specs_match_cold_specs(self):
        run_shard(make_plan())
        cache = spec_cache_for(SEED, POPULATION)
        assert cache is not None and cache.specs
        cold_population = WorldShard(RngTree(SEED)).build_population(POPULATION)
        for rank, spec in cache.specs.items():
            assert spec == cold_population.spec_at_rank(rank)
