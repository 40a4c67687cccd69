"""Tests for the recurring service streams (probes, churn, ingestion)."""

import dataclasses

import pytest

from repro.core.monitor import CompromiseMonitor
from repro.core.system import TripwireSystem
from repro.email_provider.accounts import AccountState
from repro.identity.passwords import PasswordClass
from repro.service.lifecycle import AccountLifecycle, LifecycleStats
from repro.service.scheduler import EpochScheduler, ServiceConfig
from repro.util.timeutil import DAY, STUDY_START


def make_world(**config_kwargs):
    defaults = dict(
        population_size=300, top=12, shards=2, epochs=3, epoch_length=10 * DAY,
        probe_interval=3 * DAY, dump_interval=7 * DAY, bind_interval=2 * DAY,
        freeze_interval=9 * DAY, reset_interval=13 * DAY,
        attack_interval=4 * DAY, recover_delay=2 * DAY,
        hard_accounts=8, easy_accounts=8, unused_accounts=4, control_accounts=2,
    )
    defaults.update(config_kwargs)
    config = ServiceConfig(**defaults)
    system = TripwireSystem(
        seed=config.seed, population_size=config.population_size,
        retention_days=config.retention_days, start=config.start,
        apparatus_namespace=("service",), obs_enabled=True,
    )
    system.provision_identities(config.hard_accounts, PasswordClass.HARD)
    system.provision_identities(config.easy_accounts, PasswordClass.EASY)
    system.provision_control_accounts(config.control_accounts)
    monitor = CompromiseMonitor(
        system.pool, system.control_locals, system.provider.domain
    )
    lifecycle = AccountLifecycle(
        system, monitor, config, EpochScheduler(config).horizon
    )
    return system, monitor, lifecycle, config


class TestInstallation:
    def test_installs_one_handle_per_stream(self):
        system, _monitor, lifecycle, _config = make_world()
        handles = lifecycle.install()
        assert len(handles) == 6
        assert all(h.active for h in handles)

    def test_cancel_all_revokes_pending_streams(self):
        system, _monitor, lifecycle, _config = make_world()
        lifecycle.install()
        assert lifecycle.cancel_all() == 6
        assert lifecycle.cancel_all() == 0  # idempotent
        assert len(system.queue) == 0

    def test_streams_respect_the_horizon(self):
        system, _monitor, lifecycle, _config = make_world()
        lifecycle.install()
        horizon = lifecycle.horizon
        system.queue.run_until(horizon + 365 * DAY)
        assert all(not h.active for h in lifecycle.handles)
        # Every firing happened at or before the horizon.
        assert system.clock.now() == horizon + 365 * DAY


class TestStreams:
    def test_probes_login_every_control_account(self):
        system, monitor, lifecycle, config = make_world()
        lifecycle.install()
        system.queue.run_until(STUDY_START + 10 * DAY)
        assert lifecycle.stats.probes == 3  # days 3, 6, 9
        assert lifecycle.stats.probe_logins == 3 * config.control_accounts

    def test_probe_logins_surface_as_control_liveness(self):
        system, monitor, lifecycle, _config = make_world()
        lifecycle.install()
        system.queue.run_until(lifecycle.horizon)
        assert lifecycle.stats.dumps > 0
        assert len(monitor.control_logins) > 0
        assert monitor.alarms == []

    def test_binds_burn_identities_to_ranked_hosts(self):
        system, _monitor, lifecycle, _config = make_world()
        lifecycle.install()
        system.queue.run_until(STUDY_START + 10 * DAY)
        burned = system.pool.burned_identities()
        assert len(burned) == lifecycle.stats.binds > 0
        hosts = {site for _identity, site in burned}
        assert all(host for host in hosts)

    def test_freeze_then_recovery_restores_the_account(self):
        system, _monitor, lifecycle, config = make_world()
        lifecycle.install()
        # Run long enough for freeze (day 9) + recovery (freeze + 2d).
        system.queue.run_until(STUDY_START + 15 * DAY)
        if lifecycle.stats.freezes == 0:  # freeze needs a bound account
            return
        assert lifecycle.stats.recoveries == lifecycle.stats.freezes
        frozen = [
            account
            for local in (i.email_local for i, _ in system.pool.burned_identities())
            for account in [system.provider.account(local)]
            if account is not None and account.state is AccountState.FROZEN
        ]
        assert frozen == []  # every freeze recovered by now

    def test_attacks_drive_detections_through_dumps(self):
        system, monitor, lifecycle, _config = make_world()
        lifecycle.install()
        system.queue.run_until(lifecycle.horizon)
        assert lifecycle.stats.attacks > 0
        if lifecycle.stats.attack_successes:
            assert monitor.site_count() > 0

    def test_streams_are_deterministic(self):
        _s1, m1, l1, _c1 = make_world()
        l1.install()
        _s1.queue.run_until(l1.horizon)
        _s2, m2, l2, _c2 = make_world()
        l2.install()
        _s2.queue.run_until(l2.horizon)
        assert l1.stats == l2.stats
        assert m1.detection_digest() == m2.detection_digest()


class TestLoginBatchEquivalence:
    """Vectorized or scalar-oracle authentication, and the batch size,
    must not move a single output."""

    def run_world(self, batch_events=8192):
        system, monitor, lifecycle, _config = make_world(
            traffic_users=400,
            traffic_logins_per_day=3.0,
            traffic_batch_events=batch_events,
        )
        lifecycle.install()
        system.queue.run_until(lifecycle.horizon)
        return system, monitor, lifecycle

    def fingerprint(self, system, monitor, lifecycle):
        provider = system.provider
        return {
            "stats": lifecycle.stats,
            "detections": monitor.detection_digest(),
            "telemetry": provider.telemetry.columns(),
            "states": bytes(provider._table.states),
            "throttle": provider.throttle_snapshot(),
            "windows": provider.login_window_snapshot(),
        }

    def test_batched_and_per_event_worlds_are_identical(self, scalar_oracle):
        with scalar_oracle():
            per_event = self.fingerprint(*self.run_world())
        system, monitor, lifecycle = self.run_world()
        assert system.provider.batch_engine_stats()["vector_committed"] > 0
        batched = self.fingerprint(system, monitor, lifecycle)
        for key in per_event:
            assert per_event[key] == batched[key], f"{key} diverged"

    def test_batch_granularity_is_invisible(self):
        coarse = self.fingerprint(*self.run_world())
        fine = self.fingerprint(*self.run_world(batch_events=64))
        for key in coarse:
            assert coarse[key] == fine[key], f"{key} diverged"

    def test_traffic_flows_through_the_queue(self):
        _system, _monitor, lifecycle = self.run_world()
        assert lifecycle.stats.traffic_windows > 0
        assert lifecycle.stats.traffic_logins > 0
        assert lifecycle.stats.traffic_successes > 0


class TestTelemetryPruning:
    # Retention must be shorter than the 30-day horizon for events to
    # age out at all; the config default (60d) outlives these worlds.
    def test_prune_bounds_retained_events(self):
        system, _monitor, lifecycle, _config = make_world(
            prune_telemetry=True, retention_days=5
        )
        lifecycle.install()
        system.queue.run_until(lifecycle.horizon)
        telemetry = system.provider.telemetry
        assert lifecycle.stats.dumps > 0
        assert telemetry.pruned_count > 0
        # Retained memory is bounded: pruning actually shed history.
        assert telemetry.retained_count < (
            telemetry.pruned_count + telemetry.retained_count
        )

    def test_pruning_never_changes_detection_state(self):
        def digest(prune):
            system, monitor, lifecycle, _config = make_world(
                prune_telemetry=prune, retention_days=5
            )
            lifecycle.install()
            system.queue.run_until(lifecycle.horizon)
            return monitor.detection_digest()

        assert digest(prune=True) == digest(prune=False)


class TestStreamTracking:
    """Per-stream firing tallies and the starvation telemetry surface."""

    def test_intervals_registered_at_install(self):
        _system, _monitor, lifecycle, config = make_world()
        lifecycle.install()
        assert lifecycle.stream_intervals == {
            "service.probe": config.probe_interval,
            "service.ingest": config.dump_interval,
            "service.bind": config.bind_interval,
            "service.freeze": config.freeze_interval,
            "service.reset": config.reset_interval,
            "service.attack": config.attack_interval,
        }
        # Installed streams start at zero, so starvation is visible
        # before the first fire.
        assert set(lifecycle.stats.stream_counts) == set(
            lifecycle.stream_intervals
        )
        assert all(c == 0 for c in lifecycle.stats.stream_counts.values())
        assert lifecycle.stats.stream_last_fired == {}

    def test_counts_and_last_fired_track_every_stream(self):
        system, _monitor, lifecycle, config = make_world()
        lifecycle.install()
        system.queue.run_until(config.start + 9 * DAY)
        stats = lifecycle.stats
        # 9 days at a 3-day cadence: fired on days 3, 6 and 9.
        assert stats.stream_counts["service.probe"] == 3
        assert stats.stream_last_fired["service.probe"] == (
            config.start + 9 * DAY
        )
        assert stats.stream_counts["service.probe"] == stats.probes
        assert stats.stream_counts["service.bind"] == stats.binds

    def test_gap_histograms_record_the_cadence(self):
        system, _monitor, lifecycle, config = make_world()
        lifecycle.install()
        system.queue.run_until(config.start + 9 * DAY)
        histograms = system.obs.metrics.histograms_dict()
        gaps = histograms["stream.service.probe.gap_seconds"]
        # Three fires leave two inter-fire gaps of exactly 3 days.
        assert gaps["count"] == 2
        assert gaps["sum"] == 2 * config.probe_interval

    def test_queue_stats_none_without_traffic(self):
        _system, _monitor, lifecycle, _config = make_world()
        assert lifecycle.queue_stats() == {"queue": None, "stuffing_queue": None}

    def test_queue_stats_report_the_pump_accounting(self):
        system, _monitor, lifecycle, _config = make_world(
            traffic_users=30, traffic_window=DAY
        )
        lifecycle.install()
        system.queue.run_until(lifecycle.horizon)
        stats = lifecycle.queue_stats()["queue"]
        assert stats["offered"] > 0
        assert stats["taken"] == stats["offered"]
        assert stats["depth"] == 0
        assert stats["peak_depth"] >= 1


class TestStreamRegistry:
    """One ServiceStream record per stream drives every report of it."""

    def test_install_order_and_off_streams(self):
        _system, _monitor, lifecycle, _config = make_world()
        assert [s.label for s in lifecycle.streams] == [
            "service.probe", "service.ingest", "service.bind",
            "service.freeze", "service.reset", "service.attack",
            "service.traffic", "service.stuffing",
        ]
        off = [s.label for s in lifecycle.streams if not s.interval]
        assert off == ["service.traffic", "service.stuffing"]
        assert [s.queue_path for s in lifecycle.streams if s.queue_path] == [
            ("queue",), ("stuffing", "queue"),
        ]
        handles = lifecycle.install()
        assert [h.label for h in handles] == list(lifecycle.stream_intervals)

    def test_every_counter_belongs_to_exactly_one_stream(self):
        _system, _monitor, lifecycle, _config = make_world()
        claimed = [name for s in lifecycle.streams for name in s.fields]
        counters = [f.name for f in dataclasses.fields(LifecycleStats)
                    if f.type == "int"]
        assert len(counters) == 20
        assert sorted(claimed) == sorted(counters)

    def test_totals_format_only_the_stream_counters(self):
        _system, _monitor, lifecycle, _config = make_world()
        for stream in lifecycle.streams:
            for _label, value in stream.totals:
                # A format naming another stream's counter raises here.
                value.format_map(dict.fromkeys(stream.fields, 0))

    @pytest.mark.parametrize("name", [
        "probe_interval", "dump_interval", "bind_interval", "freeze_interval",
        "reset_interval", "attack_interval", "traffic_window",
    ])
    def test_zero_interval_is_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ServiceConfig(**{name: 0})
