"""The journal's headline guarantee: byte-identical for any worker count."""

import json

import pytest

from repro.core.runner import CampaignRunner
from repro.core.substrate import WorldShard
from repro.faults.plan import FaultPlan
from repro.util.rngtree import RngTree

SEED = 47
POPULATION = 100
TOP = 24


@pytest.fixture(scope="module")
def sites():
    listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
    return listing.alexa_top(TOP)


def journal_bytes(sites, shards, workers, executor, profile):
    plan = (FaultPlan.from_profile(profile, seed=6)
            if profile != "off" else None)
    runner = CampaignRunner(
        seed=SEED, population_size=POPULATION, shards=shards,
        workers=workers, executor=executor, fault_plan=plan,
        obs_enabled=True, obs_meta={"command": "campaign"},
    )
    return runner.run(sites).journal.to_jsonl()


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("profile", ["off", "moderate"])
    @pytest.mark.parametrize("shards", [1, 8])
    def test_journal_bytes_identical_across_worker_counts(
        self, sites, shards, profile
    ):
        baseline = journal_bytes(sites, shards, 1, "serial", profile)
        for workers in (2, 4):
            parallel = journal_bytes(sites, shards, workers, "process", profile)
            assert parallel == baseline, (shards, profile, workers)

    def test_process_pool_matches_serial(self, sites):
        baseline = journal_bytes(sites, 4, 1, "serial", "moderate")
        pooled = journal_bytes(sites, 4, 2, "process", "moderate")
        assert pooled == baseline

    def test_observed_journal_actually_has_content(self, sites):
        parsed = [json.loads(line) for line in
                  journal_bytes(sites, 4, 1, "serial", "moderate").splitlines()]
        totals = parsed[-1]
        assert totals["record"] == "totals"
        assert totals["span_count"] > 0
        # Chaos was really on: fault counters made it into the journal.
        assert any(name.startswith("fault.") for name in totals["counters"])

    def test_meta_excludes_worker_dependent_fields(self, sites):
        header = json.loads(
            journal_bytes(sites, 2, 4, "process", "off").splitlines()[0]
        )
        assert header["record"] == "header"
        # Anything naming the executor or worker count would break the
        # byte-identity contract the tests above pin down.
        assert "workers" not in header["meta"]
        assert "executor" not in header["meta"]
        assert "wall_seconds" not in header["meta"]


class TestObservationOffByDefault:
    def test_unobserved_run_has_no_journal(self, sites):
        runner = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=2
        )
        result = runner.run(sites)
        assert result.journal is None
        assert all(r.observation is None for r in result.shard_results)
