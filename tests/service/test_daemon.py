"""Tests for the campaign daemon: epochs, journal identity, stop."""

import json

import pytest

from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY


def make_config(**kwargs):
    defaults = dict(
        population_size=300, top=16, shards=2, epochs=3, epoch_length=10 * DAY,
        probe_interval=3 * DAY, dump_interval=7 * DAY, bind_interval=2 * DAY,
        freeze_interval=9 * DAY, reset_interval=13 * DAY,
        attack_interval=4 * DAY, recover_delay=2 * DAY,
        hard_accounts=8, easy_accounts=8, unused_accounts=4, control_accounts=2,
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestEpochLoop:
    def test_runs_every_epoch_and_staggers_the_waves(self):
        result = CampaignDaemon(make_config()).run()
        assert result.epochs_completed == 3
        assert not result.interrupted
        assert [r.sites for r in result.reports] == [6, 6, 4]
        assert [r.epoch for r in result.reports] == [0, 1, 2]
        # Waves partition the full list: attempts cover all 16 sites.
        assert result.stats.sites_considered == 16

    def test_epoch_windows_tile_the_horizon(self):
        config = make_config()
        result = CampaignDaemon(config).run()
        windows = [r.window for r in result.reports]
        assert windows[0][0] == config.start
        for (_s0, e0), (s1, _e1) in zip(windows, windows[1:]):
            assert e0 == s1

    def test_service_events_fire_between_epochs(self):
        result = CampaignDaemon(make_config()).run()
        # Epoch 0 opens at the start (nothing due yet); later epochs
        # see the probes/churn that accumulated during the previous
        # window.
        assert result.reports[0].service_events == 0
        assert all(r.service_events > 0 for r in result.reports[1:])
        assert result.lifecycle.probes > 0
        assert result.lifecycle.binds > 0
        assert result.lifecycle.dumps > 0

    def test_journal_covers_crawl_shards_and_service_world(self):
        config = make_config()
        result = CampaignDaemon(config).run()
        indices = [shard.shard_index for shard in result.journal.shards]
        # Epochs contribute globally unique shard slots; the service
        # world takes the slot after all of them.
        assert indices == [0, 1, 2, 3, 4, 5, 6]
        assert indices[-1] == config.epochs * config.shards

    def test_journal_meta_is_sim_shaped_only(self):
        result = CampaignDaemon(make_config(workers=2, executor="process")).run()
        meta = result.journal.meta
        assert meta["command"] == "serve"
        assert "workers" not in meta and "executor" not in meta

    def test_deterministic_across_runs(self):
        first = CampaignDaemon(make_config()).run()
        second = CampaignDaemon(make_config()).run()
        assert first.journal.to_jsonl() == second.journal.to_jsonl()
        assert first.detection_digest == second.detection_digest

    def test_journal_bytes_invariant_to_worker_count_process(self):
        serial = CampaignDaemon(make_config()).run()
        pooled = CampaignDaemon(
            make_config(workers=2, executor="process")
        ).run()
        assert pooled.journal.to_jsonl() == serial.journal.to_jsonl()
        assert pooled.detection_digest == serial.detection_digest


class TestWallSideChannel:
    def test_window_logins_sum_to_the_run_total(self, tmp_path):
        flight = tmp_path / "flight.jsonl"
        result = CampaignDaemon(
            make_config(traffic_users=500, traffic_logins_per_day=2.0),
            flight_path=flight,
        ).run()
        records = [
            json.loads(line)
            for line in (tmp_path / "flight.jsonl.wall").read_text().splitlines()
        ]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        # Each record covers its epoch's window; the last one runs to
        # the horizon, so no login falls outside every record.
        assert all(r["traffic_logins"] > 0 for r in records)
        assert sum(r["traffic_logins"] for r in records) == result.lifecycle.traffic_logins
        for r in records:
            assert r["dispatch_seconds"] >= r["service_seconds"] > 0
            assert r["logins_per_second"] == pytest.approx(
                r["traffic_logins"] / r["service_seconds"], rel=1e-3
            )
        # The window's events are the next epoch's "Svc events".
        assert [r["service_events"] for r in records[:-1]] == [
            r.service_events for r in result.reports[1:]
        ]


class TestGracefulStop:
    def test_stop_before_run_completes_nothing(self):
        daemon = CampaignDaemon(make_config())
        daemon.request_stop()
        result = daemon.run()
        assert result.interrupted
        assert result.epochs_completed == 0
        assert result.journal is None

    def test_stop_flag_is_visible(self):
        daemon = CampaignDaemon(make_config())
        assert not daemon.stop_requested
        daemon.request_stop()
        assert daemon.stop_requested


class TestCampaignCompatibility:
    def test_epoch_zero_plans_match_the_batch_campaign(self):
        """`repro campaign` == one epoch: same plans, same namespace."""
        from repro.core.runner import CampaignRunner
        from repro.core.substrate import WorldShard
        from repro.util.rngtree import RngTree

        config = make_config()
        sites = WorldShard(RngTree(config.seed)).build_population(
            config.population_size
        ).alexa_top(config.top)
        runner = CampaignRunner(
            seed=config.seed, population_size=config.population_size,
            shards=config.shards, obs_enabled=True,
        )
        batch = runner.run(sites)
        epoch_style = runner.execute(runner.plan(sites, epoch=0),
                                     sites_count=len(sites))
        assert batch.journal.to_jsonl() == epoch_style.journal.to_jsonl()
        assert [p.shard_index for p in runner.plan(sites, epoch=0)] == [0, 1]
