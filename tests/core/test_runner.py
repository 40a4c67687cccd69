"""Sharded campaign execution: partitioning, merging, determinism."""

import concurrent.futures
import multiprocessing

import pytest

from repro.core.runner import (
    CampaignRunner,
    ShardResultMerger,
    merge_shard_results,
    partition_sites,
    run_shard,
)
from repro.core.substrate import WorldShard
from repro.perf import wire
from repro.util.rngtree import RngTree

SEED = 523
POPULATION = 260
TOP = 36


@pytest.fixture(scope="module")
def sites():
    listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
    return listing.alexa_top(TOP)


def fingerprint(result) -> list[tuple]:
    """Every field that must be reproduced bit-for-bit."""
    return [
        (
            a.site_host,
            a.rank,
            a.url,
            a.identity.email_local,
            a.identity.password,
            a.password_class.value,
            a.outcome.code.value,
            a.outcome.detail,
            a.outcome.exposed_email,
            a.outcome.exposed_password,
            a.outcome.pages_loaded,
            a.outcome.started_at,
            a.outcome.finished_at,
            a.outcome.filled_fields,
        )
        for a in result.attempts
    ]


class TestPartitioning:
    def test_round_robin_covers_everything_once(self, sites):
        slices = partition_sites(sites, 5)
        seen = [entry for bucket, _pos in slices for entry in bucket]
        assert sorted(e.host for e in seen) == sorted(e.host for e in sites)
        positions = sorted(p for _bucket, pos in slices for p in pos)
        assert positions == list(range(len(sites)))

    def test_single_shard_is_identity(self, sites):
        (bucket, positions), = partition_sites(sites, 1)
        assert list(bucket) == sites
        assert list(positions) == list(range(len(sites)))

    def test_more_shards_than_sites(self, sites):
        slices = partition_sites(sites[:3], 8)
        non_empty = [bucket for bucket, _pos in slices if bucket]
        assert len(non_empty) == 3

    def test_invalid_shard_count(self, sites):
        with pytest.raises(ValueError):
            partition_sites(sites, 0)


class TestMergeSemantics:
    def test_merge_is_order_invariant(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=4)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        forward = merge_shard_results(results)
        backward = merge_shard_results(list(reversed(results)))
        assert forward[0] == backward[0]
        assert forward[1] == backward[1]
        assert forward[2] == backward[2]

    def test_merged_attempts_follow_input_order(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4
        ).run(sites)
        order = {entry.host: index for index, entry in enumerate(sites)}
        positions = [order[a.site_host] for a in result.attempts]
        assert positions == sorted(positions)


class TestDeterminism:
    @pytest.mark.parametrize("shards", [1, 8])
    def test_workers_do_not_change_results(self, sites, shards):
        baseline = CampaignRunner(
            seed=SEED, population_size=POPULATION,
            shards=shards, workers=1, executor="serial",
        ).run(sites)
        for workers in (2, 4):
            parallel = CampaignRunner(
                seed=SEED, population_size=POPULATION,
                shards=shards, workers=workers, executor="process",
            ).run(sites)
            assert fingerprint(parallel) == fingerprint(baseline)
            assert parallel.stats == baseline.stats
            assert parallel.telemetry == baseline.telemetry

    def test_process_pool_matches_serial(self, sites):
        baseline = CampaignRunner(
            seed=SEED, population_size=POPULATION,
            shards=4, workers=1, executor="serial",
        ).run(sites)
        pooled = CampaignRunner(
            seed=SEED, population_size=POPULATION,
            shards=4, workers=2, executor="process",
        ).run(sites)
        assert fingerprint(pooled) == fingerprint(baseline)
        assert pooled.stats == baseline.stats
        assert pooled.telemetry == baseline.telemetry

    def test_repeated_runs_identical(self, sites):
        first = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=8
        ).run(sites)
        second = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=8
        ).run(sites)
        assert fingerprint(first) == fingerprint(second)
        assert first.telemetry == second.telemetry

    def test_shards_mint_distinct_identities(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4
        ).run(sites)
        by_shard: dict[int, set[str]] = {}
        for shard in result.shard_results:
            emails = {
                a.identity.email_local
                for _pos, group in shard.site_attempts
                for a in group
            }
            by_shard[shard.shard_index] = emails
        shard_ids = list(by_shard)
        for i, left in enumerate(shard_ids):
            for right in shard_ids[i + 1:]:
                assert not (by_shard[left] & by_shard[right])


class TestRunnerValidation:
    def test_rejects_unknown_executor(self):
        for executor in ("greenlet", "thread"):
            with pytest.raises(ValueError, match="executor"):
                CampaignRunner(executor=executor)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            CampaignRunner(shards=0)
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)

    def test_exposed_attempts_view(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=2
        ).run(sites)
        assert all(a.exposed for a in result.exposed_attempts())
        assert len(result.exposed_attempts()) == result.stats.exposed_attempts


class TestIncrementalMerger:
    def test_merger_matches_batch_merge(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=4)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        merger = ShardResultMerger()
        for result in reversed(results):  # worst-case arrival order
            merger.add(result)
        assert merger.finish() == merge_shard_results(results)

    def test_results_property_is_shard_ordered(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=3)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        merger = ShardResultMerger()
        for result in reversed(results):
            merger.add(result)
        assert [r.shard_index for r in merger.results] == [0, 1, 2]

    def test_add_after_finish_rejected(self, sites):
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=2)
        results = [run_shard(plan) for plan in runner.plan(sites)]
        merger = ShardResultMerger()
        merger.add(results[0])
        merger.finish()
        with pytest.raises(RuntimeError):
            merger.add(results[1])


class TestScaleOutExecutor:
    def test_wire_bytes_recorded_on_codec_path(self, sites):
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process",
        ).run(sites)
        assert sorted(result.wire_bytes) == [0, 1, 2, 3]
        assert all(size > 0 for size in result.wire_bytes.values())

    def test_no_wire_bytes_without_codec(self, sites):
        """Only the process backend encodes; the serial backend shares
        memory and records no wire bytes."""
        result = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="serial",
        ).run(sites)
        assert result.wire_bytes == {}

    def test_codec_and_warm_do_not_change_results(self, sites, perf_off):
        with perf_off():
            reference = CampaignRunner(
                seed=SEED, population_size=POPULATION, shards=4,
            ).run(sites)
        fast = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process",
        ).run(sites)
        assert fingerprint(fast) == fingerprint(reference)
        assert fast.stats == reference.stats
        assert fast.telemetry == reference.telemetry

    def test_persistent_pool_reuse_and_close(self, sites, perf_off):
        with perf_off():
            cold = CampaignRunner(
                seed=SEED, population_size=POPULATION, shards=4,
                obs_enabled=True,
            ).run(sites)
        with CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process", obs_enabled=True,
        ) as runner:
            first = runner.run(sites)
            pool = runner._pool
            assert pool is not None
            second = runner.run(sites)
            assert runner._pool is pool  # same pool, workers kept warm
        assert runner._pool is None  # leaving the block shut it down
        # The warm pool's steady-state run repeats the cold serial bytes.
        for run in (first, second):
            assert fingerprint(run) == fingerprint(cold)
            assert run.journal.to_jsonl() == cold.journal.to_jsonl()

    def test_worker_error_propagates(self, sites):
        # A population far smaller than the crawled ranks makes every
        # shard raise; the streaming path must surface that instead of
        # hanging on a barrier or returning partial results.
        runner = CampaignRunner(
            seed=SEED, population_size=10, shards=4,
            workers=2, executor="process",
        )
        with pytest.raises(Exception, match="outside population"):
            runner.run(sites)


class TestMeanwhile:
    """``execute(meanwhile=f)``: parent work beside the shards."""

    @staticmethod
    def watch_pool(runner, monkeypatch, events):
        """Record each submit and decode in ``events``; return the futures."""
        futures = []
        submit = runner._pool.submit

        def recorded_submit(*args):
            events.append("submit")
            futures.append(submit(*args))
            return futures[-1]

        def recorded_decode(blob, decode=wire.decode_shard_bytes):
            events.append("decode")
            return decode(blob)

        monkeypatch.setattr(runner._pool, "submit", recorded_submit)
        monkeypatch.setattr(wire, "decode_shard_bytes", recorded_decode)
        return futures

    def test_pool_calls_it_once_after_every_submit_and_before_any_decode(
        self, sites, monkeypatch
    ):
        reference = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4, obs_enabled=True,
        ).run(sites)
        events = []
        with CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
            workers=2, executor="process", obs_enabled=True,
        ) as runner:
            self.watch_pool(runner, monkeypatch, events)
            result = runner.execute(
                runner.plan(sites), meanwhile=lambda: events.append("meanwhile")
            )
        assert events == ["submit"] * 4 + ["meanwhile"] + ["decode"] * 4
        assert fingerprint(result) == fingerprint(reference)
        assert result.stats == reference.stats
        assert result.telemetry == reference.telemetry
        assert result.journal.to_jsonl() == reference.journal.to_jsonl()

    def test_serial_calls_it_once_after_the_merge(self, sites, monkeypatch):
        reference = CampaignRunner(
            seed=SEED, population_size=POPULATION, shards=4,
        ).run(sites)
        events = []

        def recorded_run_shard(plan, run=run_shard):
            events.append("shard")
            return run(plan)

        def recorded_finish(merger, finish=ShardResultMerger.finish):
            events.append("merge")
            return finish(merger)

        monkeypatch.setattr("repro.core.runner.run_shard", recorded_run_shard)
        monkeypatch.setattr(ShardResultMerger, "finish", recorded_finish)
        runner = CampaignRunner(seed=SEED, population_size=POPULATION, shards=4)
        result = runner.execute(
            runner.plan(sites), meanwhile=lambda: events.append("meanwhile")
        )
        assert events == ["shard"] * 4 + ["merge", "meanwhile"]
        assert fingerprint(result) == fingerprint(reference)
        assert result.stats == reference.stats

    def test_shard_failure_surfaces_after_it_returns(self, sites, monkeypatch):
        # Every shard of a 10-site population raises; the parent work
        # waits until all of them have, so each fails while it runs.
        events = []
        with pytest.raises(Exception, match="outside population"):
            with CampaignRunner(
                seed=SEED, population_size=10, shards=4,
                workers=2, executor="process",
            ) as runner:
                futures = self.watch_pool(runner, monkeypatch, events)

                def meanwhile():
                    _done, running = concurrent.futures.wait(futures, timeout=120)
                    assert not running
                    assert all(f.exception() is not None for f in futures)
                    events.append("meanwhile")

                runner.execute(runner.plan(sites), meanwhile=meanwhile)
        assert events == ["submit"] * 4 + ["meanwhile"]
        assert multiprocessing.active_children() == []

    def test_its_failure_cancels_the_queued_shards(self, sites, monkeypatch):
        events = []

        def meanwhile():
            raise RuntimeError("meanwhile failed")

        with pytest.raises(RuntimeError, match="meanwhile failed"):
            with CampaignRunner(
                seed=SEED, population_size=POPULATION, shards=8,
                workers=2, executor="process",
            ) as runner:
                futures = self.watch_pool(runner, monkeypatch, events)
                runner.execute(runner.plan(sites), meanwhile=meanwhile)
        assert events == ["submit"] * 8
        # The pool hands a shard to a worker only when one frees up, so
        # some were still queued; without the cancel they would all run.
        assert any(f.cancelled() for f in futures)
        assert all(f.done() for f in futures)
        assert multiprocessing.active_children() == []
