"""WorldStore directory semantics: build, validate, reopen, results.

The store's contract with the rest of the system:

- a build is **prefix-closed** — the stored specs are exactly the
  in-memory spec table's for the same seed;
- reopening validates the manifest and refuses mismatched worlds
  (wrong seed, bigger population) with a clean ``StoreError``;
- the read path is strictly read-only — a store is a spec source that
  never generates, so nothing a shard does can mutate the world on
  disk;
- campaign results persist as ``accounts``/``telemetry`` tables that
  round-trip losslessly.
"""

import json

import pytest

from repro.store import (
    StoreError,
    WorldStore,
    build_world_store,
    open_world_store,
    world_digest,
)
from repro.store.world import close_open_stores
from repro.util.rngtree import RngTree
from repro.web.generator import SpecTable
from repro.web.population import eligibility_counts, ranked_top

SEED = 99
POPULATION = 300


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("world") / "ws"
    built = build_world_store(path, SEED, POPULATION)
    yield built
    built.close()


class TestBuild:
    def test_specs_match_warm_memory_path(self, store):
        table = SpecTable(SEED)
        expected = [table.spec_at_rank(r) for r in range(1, POPULATION + 1)]
        assert list(store.iter_specs()) == expected

    def test_ranked_top_matches_population_listing(self, store):
        from repro.core.substrate import WorldShard

        listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
        assert ranked_top(store, 40) == listing.alexa_top(40)

    def test_eligibility_matches_population(self, store):
        from repro.core.substrate import WorldShard

        listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
        ranks = list(range(1, 101))
        assert eligibility_counts(store, ranks) == eligibility_counts(listing, ranks)

    def test_reopen_is_validated_reuse(self, store, tmp_path):
        # Same path, same world: build_world_store reopens, not rebuilds.
        again = build_world_store(store.path, SEED, POPULATION)
        assert again.digest == store.digest
        again.close()
        # Same path, different seed: refused.
        with pytest.raises(StoreError, match="different world"):
            build_world_store(store.path, SEED + 1, POPULATION)

    def test_iter_specs_streams_subranges(self, store):
        middle = list(store.iter_specs(100, 110))
        assert [s.rank for s in middle] == list(range(100, 111))


class TestValidation:
    def test_digest_excludes_population(self):
        assert world_digest(1) == world_digest(1)
        assert world_digest(1) != world_digest(2)
        # Stores already on disk keep opening: the digest is the one
        # every earlier release wrote for this seed.
        assert world_digest(7) == (
            "2641506bc6db6534efdb07eeb5f2dff272dde513aced96458e9de453525b95e9"
        )

    def test_require_world(self, store):
        store.require_world(SEED, POPULATION)
        store.require_world(SEED, 10)  # smaller runs are served
        with pytest.raises(StoreError, match="different world"):
            store.require_world(SEED + 1, POPULATION)
        with pytest.raises(StoreError, match="population"):
            store.require_world(SEED, POPULATION + 1)

    def test_not_a_store(self, tmp_path):
        with pytest.raises(StoreError, match="not a world store"):
            WorldStore(tmp_path)

    def test_unsupported_manifest_schema(self, tmp_path, store):
        meta = json.loads((store.path / "worldstore.json").read_text())
        meta["schema"] = 999
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "worldstore.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="schema"):
            WorldStore(bad)

    def test_rank_bounds(self, store):
        with pytest.raises(StoreError, match="outside stored population"):
            store.spec_at_rank(0)
        with pytest.raises(StoreError, match="outside stored population"):
            store.spec_at_rank(POPULATION + 1)


class TestStoreAsSpecSource:
    def test_population_reads_the_store(self, store):
        """A population over the store serves the table's specs and
        instantiates sites from them."""
        from repro.core.substrate import WorldShard

        population = WorldShard(RngTree(SEED)).build_population(
            POPULATION, specs=store
        )
        assert population.spec_at_rank(42) == SpecTable(SEED).spec_at_rank(42)
        assert population.site_at_rank(42).spec.host == store.spec_at_rank(42).host

    def test_out_of_range_is_loud(self, store):
        """Past its rows a store raises; it never generates a spec."""
        from repro.core.substrate import WorldShard

        population = WorldShard(RngTree(SEED)).build_population(
            POPULATION + 10, specs=store
        )
        with pytest.raises(StoreError, match="outside stored population"):
            population.spec_at_rank(POPULATION + 1)


class TestRegistry:
    def test_open_world_store_is_process_cached(self, store):
        first = open_world_store(store.path)
        second = open_world_store(str(store.path))
        assert first is second
        close_open_stores()
        third = open_world_store(store.path)
        assert third is not first
        close_open_stores()


class TestResults:
    def test_append_and_stream_results(self, tmp_path):
        from repro.core.runner import CampaignRunner
        from repro.core.substrate import WorldShard

        path = tmp_path / "ws"
        store = build_world_store(path, SEED, POPULATION)
        listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
        runner = CampaignRunner(seed=SEED, population_size=POPULATION,
                                shards=2, world_store=str(path))
        with runner:
            result = runner.run(listing.alexa_top(16))

        accounts, telemetry = store.append_results(result.attempts)
        assert telemetry == len(result.attempts)
        assert list(store.iter_attempts()) == result.attempts
        stored_accounts = list(store.iter_accounts())
        assert len(stored_accounts) == accounts
        # First-reference order, each identity exactly once.
        seen = []
        for attempt in result.attempts:
            if attempt.identity not in seen:
                seen.append(attempt.identity)
        assert stored_accounts == seen
        # Re-append replaces, not duplicates.
        store.append_results(result.attempts)
        assert store.row_count("telemetry") == telemetry
        store.close()
        close_open_stores()

    def test_missing_results_table_is_loud(self, store):
        with pytest.raises(StoreError, match="no 'telemetry' table"):
            next(store.iter_attempts())
