"""The store≡memory contract: journal bytes never move.

``--world-store`` is execution-shaped, like worker count or executor
choice: a campaign reading specs off disk pages must produce merged
output and journal bytes identical to the in-memory run, for any
worker count, executor and fault profile.  The matrix here pins that —
one in-memory reference journal per fault profile, compared
byte-for-byte against store-backed runs at workers 1 (serial), and
2 and 4 (process, through the wire codec).
"""

import pytest

from repro.cli import main
from repro.core.runner import CampaignRunner
from repro.core.substrate import WorldShard
from repro.faults.plan import FaultPlan
from repro.store import build_world_store
from repro.store.world import close_open_stores
from repro.util.rngtree import RngTree
from repro.web.population import ranked_top

SEED = 7
POPULATION = 120
TOP = 24
SHARDS = 4


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("determinism") / "ws"
    build_world_store(path, SEED, POPULATION).close()
    return path


@pytest.fixture(scope="module")
def oversized_store(tmp_path_factory):
    """A 400-site store, larger than the runs that read it."""
    path = tmp_path_factory.mktemp("oversized") / "ws"
    build_world_store(path, SEED, 400).close()
    return path


def fault_plan(profile):
    if profile is None:
        return None
    return FaultPlan.from_profile(profile, seed=3)


def run_journal(*, world_store=None, workers=1, executor="serial",
                fault_profile=None):
    sites = (
        WorldShard(RngTree(SEED))
        .build_population(POPULATION)
        .alexa_top(TOP)
    )
    with CampaignRunner(
        seed=SEED,
        population_size=POPULATION,
        shards=SHARDS,
        workers=workers,
        executor=executor,
        fault_plan=fault_plan(fault_profile),
        obs_enabled=True,
        world_store=str(world_store) if world_store else None,
    ) as runner:
        result = runner.run(sites)
    return result.journal.to_jsonl(), result


@pytest.mark.parametrize("fault_profile", [None, "mild"])
class TestStoreMemoryMatrix:
    def test_serial_identical(self, store_path, fault_profile):
        memory, mem_result = run_journal(fault_profile=fault_profile)
        disk, disk_result = run_journal(
            world_store=store_path, fault_profile=fault_profile
        )
        assert disk == memory
        assert disk_result.attempts == mem_result.attempts
        assert disk_result.stats == mem_result.stats

    def test_process_2_identical(self, store_path, fault_profile):
        memory, _ = run_journal(fault_profile=fault_profile)
        disk, _ = run_journal(
            world_store=store_path, workers=2, executor="process",
            fault_profile=fault_profile,
        )
        assert disk == memory


@pytest.mark.slow
class TestStoreMemoryMatrixSlow:
    @pytest.mark.parametrize("fault_profile", [None, "mild"])
    def test_process_4_identical(self, store_path, fault_profile):
        memory, _ = run_journal(fault_profile=fault_profile)
        disk, _ = run_journal(
            world_store=store_path, workers=4, executor="process",
            fault_profile=fault_profile,
        )
        assert disk == memory


class TestStoreListings:
    def test_store_sites_equal_memory_sites(self, store_path):
        from repro.store import open_world_store

        listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
        store = open_world_store(store_path)
        try:
            assert ranked_top(store, TOP) == listing.alexa_top(TOP)
        finally:
            close_open_stores()

    @pytest.mark.parametrize(
        "command", [["campaign"], ["serve", "--epochs", "2"]], ids=["campaign", "serve"]
    )
    def test_store_larger_than_the_run(self, oversized_store, tmp_path, capsys, command):
        """``--top`` above ``--population`` over a bigger store lists the
        population's top 200, as the in-memory run does, and writes the
        same journal."""
        argv = [*command, "--top", "300", "--population", "200", "--seed", str(SEED)]
        try:
            assert main(argv + ["--world-store", str(oversized_store),
                                "--obs-out", str(tmp_path / "store.jsonl")]) == 0
        finally:
            close_open_stores()
        assert main(argv + ["--obs-out", str(tmp_path / "memory.jsonl")]) == 0
        store_journal = (tmp_path / "store.jsonl").read_bytes()
        assert store_journal == (tmp_path / "memory.jsonl").read_bytes()

    def test_mismatched_plan_fails_loudly(self, store_path):
        from repro.core.runner import run_shard

        sites = (
            WorldShard(RngTree(SEED))
            .build_population(POPULATION)
            .alexa_top(4)
        )
        with CampaignRunner(
            seed=SEED + 1, population_size=POPULATION, shards=1,
            world_store=str(store_path),
        ) as runner:
            plans = runner.plan(sites)
            from repro.store import StoreError

            with pytest.raises(StoreError, match="different world"):
                run_shard(plans[0])
