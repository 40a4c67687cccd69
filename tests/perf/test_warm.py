"""Warm spec table: keying, invalidation, bit-identity."""

import json

import pytest

from repro.cli import main
from repro.core.runner import ShardPlan, run_shard
from repro.core.substrate import WorldShard
from repro.perf import caching as _perf
from repro.perf.warm import spec_table_for
from repro.util.rngtree import RngTree
from repro.web.generator import SpecTable
from repro.web.population import ranked_top

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
    sites = tuple(ranked_top(SpecTable(SEED), TOP))
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
        assert spec_table_for(SEED) is spec_table_for(SEED)

    def test_different_seed_different_world(self):
        assert spec_table_for(SEED) is not spec_table_for(SEED + 1)


class TestWorldForPlan:
    def test_cold_when_layer_disabled(self):
        """With the layer off every call fills a fresh private table."""
        _perf.set_enabled(False)
        first = spec_table_for(SEED)
        assert isinstance(first, SpecTable)
        assert spec_table_for(SEED) is not first
        assert _perf.cache_stats()["warm.worlds"]["size"] == 0

    def test_warm_plan_gets_a_world(self):
        table = spec_table_for(SEED)
        assert isinstance(table, SpecTable)
        assert spec_table_for(SEED) is table

    def test_disable_clears_the_store(self):
        before = spec_table_for(SEED)
        _perf.set_enabled(False)
        _perf.set_enabled(True)
        assert spec_table_for(SEED) is not before

    def test_serial_sharded_campaign_hits_the_cache(self, capsys):
        """The listing and the four shards of one serial campaign share
        a spec table: the listing builds it and the shards hit it.
        (The golden pilot pin guards the other caches; the pilot never
        shards.)"""
        assert main(["campaign", "--top", "40", "--population", "150",
                     "--shards", "4"]) == 0
        stats = _perf.cache_stats()["warm.worlds"]
        assert (stats["hits"], stats["misses"]) == (4, 1)


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
        first_warm = run_shard(make_plan())   # populates the table
        second_warm = run_shard(make_plan())  # reads specs from it
        assert shard_fingerprint(cold) == shard_fingerprint(first_warm)
        assert shard_fingerprint(cold) == shard_fingerprint(second_warm)
        assert cold.stats == first_warm.stats == second_warm.stats
        assert cold.telemetry == first_warm.telemetry == second_warm.telemetry

    def test_warm_specs_match_cold_specs(self):
        run_shard(make_plan())
        table = spec_table_for(SEED)
        cold_population = WorldShard(RngTree(SEED)).build_population(POPULATION)
        for rank in range(1, TOP + 1):
            assert table.spec_at_rank(rank) == cold_population.spec_at_rank(rank)

    def test_sharded_campaign_warm_equals_cold(self, perf_off, tmp_path, capsys):
        """A sharded campaign gives the same counts with the layer off.

        With the layer off each shard fills its own private table, and a
        table is filled prefix-closed whichever ranks its shard visits,
        so every shard agrees with the listing about the host at each
        rank.  A shard generating on demand in its own visit order
        would give rank 217 another host than the listing's.
        """
        argv = ["campaign", "--top", "300", "--population", "3000",
                "--shards", "8", "--seed", "7", "--json"]
        assert main(argv + [str(tmp_path / "warm.json")]) == 0
        with perf_off():
            assert main(argv + [str(tmp_path / "cold.json")]) == 0
        warm = json.loads((tmp_path / "warm.json").read_text())
        cold = json.loads((tmp_path / "cold.json").read_text())
        assert cold["stats"] == warm["stats"]
        assert cold["telemetry"] == warm["telemetry"]
