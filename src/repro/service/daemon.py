"""The campaign daemon: a checkpointable sim-clock service loop.

Where ``repro campaign`` runs one crawl and exits, the daemon runs the
deployment the paper actually operated: registration waves staggered
across scheduler epochs, recurring re-login probes, incremental
telemetry-dump ingestion with retention-gap semantics, and account
lifecycle churn — all as events on the service world's sim clock.

Determinism contract
--------------------

The daemon's output — journal bytes, merged attempts, the monitor's
detection digest — is a pure function of its
:class:`~repro.service.scheduler.ServiceConfig`'s sim-shaping fields.
Two properties carry the contract:

- **Crawl epochs are pure.** Each epoch's shard plans come from
  :meth:`CampaignRunner.plan` (no shared state with the service
  world), so each epoch is bit-identical for any worker count, and a
  completed epoch's :class:`~repro.core.runner.ShardResult`\\ s can be
  stored in a checkpoint (:mod:`repro.service.checkpoint`: one packed,
  CRC-checked segment row per shard).
- **The service world is replayable.** Probes, lifecycle churn and
  dump ingestion depend only on the config, never on crawl results, so
  a resumed daemon rebuilds service state by replaying the epoch loop
  from epoch 0 — checkpointed epochs swap the runner dispatch for the
  stored results; everything else re-fires identically.

Hence the resume guarantee: a daemon killed at any epoch boundary and
restarted from its checkpoint finishes with a journal **byte-identical**
to an uninterrupted run's, for any worker count on either side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.campaign import AttemptRecord, CampaignStats
from repro.core.monitor import CompromiseMonitor
from repro.core.runner import (
    CampaignRunner,
    ShardResult,
    ShardTelemetry,
    merge_shard_results,
)
from repro.core.substrate import WorldShard
from repro.core.system import TripwireSystem
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.obs.health import HealthCheck
from repro.obs.journal import RunJournal, ShardObservation
from repro.obs.live import FlightRecorder, ServiceFlightProbe
from repro.obs.merge import sum_counter_dataclasses
from repro.perf.caching import cache_stats
from repro.service.checkpoint import Checkpoint, config_digest, save_checkpoint
from repro.service.lifecycle import AccountLifecycle, LifecycleStats
from repro.service.scheduler import EpochScheduler, ServiceConfig
from repro.util.rngtree import RngTree
from repro.util.timeutil import SimInstant
from repro.web.population import RankedSite


@dataclass
class EpochReport:
    """What one scheduler epoch did (operator-facing, not journaled)."""

    epoch: int
    window: tuple[SimInstant, SimInstant]
    sites: int
    attempts: int
    exposed: int
    service_events: int
    #: True when this epoch's crawl came from checkpoint rows rather
    #: than a live dispatch (resume replay).
    replayed: bool = False
    checkpointed: bool = False


@dataclass
class ServiceRunResult:
    """Everything a finished (or interrupted) service run produced."""

    config: ServiceConfig
    reports: list[EpochReport]
    attempts: list[AttemptRecord]
    stats: CampaignStats
    telemetry: ShardTelemetry
    fault_report: FaultReport
    lifecycle: LifecycleStats
    #: Stable digest of the monitor's full detection state; resumed and
    #: uninterrupted runs must agree on it.
    detection_digest: str
    journal: RunJournal | None
    epochs_completed: int
    interrupted: bool
    detected_sites: int = 0
    #: Per-wave stuffing records (dispatch-independent — identical
    #: for any batch size or executor); input to the cross-site correlation
    #: analysis, together with the campaign's reuse model (None when
    #: the stuffing stream is off).
    stuffing_waves: list = field(default_factory=list)
    stuffing_model: object | None = None
    #: Live process-local gauges read at loop exit (engine path mix,
    #: backpressure-queue accounting, provider state sizes).  Operator
    #: surface only — never journaled.
    live_stats: dict | None = None

    def exposed_attempts(self) -> list[AttemptRecord]:
        """Attempts where an identity was burned."""
        return [a for a in self.attempts if a.exposed]


class CampaignDaemon:
    """Drives the epoch loop: crawl waves, service events, checkpoints.

    One :class:`~repro.core.runner.CampaignRunner` with a persistent
    pool serves every epoch, so worker processes keep their warm world
    caches across dispatches (the PR-5 pools, now reused across
    epochs).  :meth:`request_stop` (wired to SIGTERM/SIGINT by the CLI)
    lets the in-flight epoch finish, checkpoints it, and exits the loop
    — a *graceful* stop; a hard kill merely loses epochs after the last
    checkpoint, which a resume re-runs from their pure plans.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        checkpoint_path: str | Path | None = None,
        flight_path: str | Path | None = None,
    ):
        self.config = config
        self.scheduler = EpochScheduler(config)
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        #: Where the flight recorder flushes each epoch's snapshot
        #: (None = recorder off, zero overhead).
        self.flight_path = Path(flight_path) if flight_path else None
        self._stop_requested = False

    def request_stop(self) -> None:
        """Ask the epoch loop to stop after the in-flight epoch."""
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        """Whether a graceful stop is pending."""
        return self._stop_requested

    # -- construction helpers ---------------------------------------------

    def ranked_sites(self) -> list[RankedSite]:
        """The full ranked list the waves are staggered over.

        Substrate-only (no apparatus), same as the batch CLI: every
        crawl shard regenerates identical specs from the root seed.
        With a world store configured, the listing comes off disk pages
        instead — same hosts, same order, no population build.
        """
        cfg = self.config
        if cfg.world_store is not None:
            from repro.store import open_world_store

            store = open_world_store(cfg.world_store)
            store.require_world(cfg.seed, cfg.population_size)
            return store.ranked_top(cfg.top)
        listing = WorldShard(RngTree(cfg.seed)).build_population(cfg.population_size)
        return listing.alexa_top(cfg.top)

    def _build_service_world(self) -> tuple[TripwireSystem, CompromiseMonitor]:
        """The daemon's own world: provider, honey accounts, monitor.

        Namespaced ``("service",)`` so its identities never collide
        with any crawl shard's, in any epoch.
        """
        cfg = self.config
        system = TripwireSystem(
            seed=cfg.seed,
            population_size=cfg.population_size,
            retention_days=cfg.retention_days,
            start=cfg.start,
            apparatus_namespace=("service",),
            fault_plan=cfg.fault_plan,
            obs_enabled=True,
        )
        # Provisioning order is part of the deterministic surface:
        # honey hard, honey easy, unused (split), then controls.
        system.provision_identities(cfg.hard_accounts, PasswordClass.HARD)
        system.provision_identities(cfg.easy_accounts, PasswordClass.EASY)
        system.provision_identities(cfg.unused_accounts // 2, PasswordClass.HARD)
        system.provision_identities(
            cfg.unused_accounts - cfg.unused_accounts // 2, PasswordClass.EASY
        )
        system.provision_control_accounts(cfg.control_accounts)
        monitor = CompromiseMonitor(
            system.pool, system.control_locals, system.provider.domain
        )
        return system, monitor

    def _build_runner(self) -> CampaignRunner:
        cfg = self.config
        return CampaignRunner(
            seed=cfg.seed,
            population_size=cfg.population_size,
            shards=cfg.shards,
            workers=cfg.workers,
            executor=cfg.executor,
            policy=cfg.policy,
            start=cfg.start,
            fault_plan=cfg.fault_plan,
            obs_enabled=True,
            warm_workers=cfg.warm_workers,
            persistent_pool=True,
            world_store=cfg.world_store,
        )

    # -- the service loop --------------------------------------------------

    def run(self, resume: Checkpoint | None = None) -> ServiceRunResult:
        """Run (or resume) the daemon to its horizon or a graceful stop.

        ``resume`` replays checkpointed epochs from their stored shard
        blobs instead of dispatching them; the service world replays
        identically either way, so the final state matches an
        uninterrupted run bit for bit.
        """
        cfg = self.config
        digest = config_digest(cfg)
        if resume is not None and resume.config_digest != digest:
            raise ValueError("checkpoint belongs to a different sim config")
        checkpoint = resume if resume is not None else Checkpoint(config_digest=digest)

        sites = self.ranked_sites()
        system, monitor = self._build_service_world()
        lifecycle = AccountLifecycle(system, monitor, cfg, self.scheduler.horizon)
        lifecycle.install()
        log = system.obs.get_logger("service.daemon")

        probe = None
        health = None
        health_log = None
        recorder = None
        if self.flight_path is not None:
            recorder = FlightRecorder(self.flight_path, cfg.sim_meta())
            probe = ServiceFlightProbe(
                recorder, system, monitor, lifecycle, self.scheduler
            )
            health = HealthCheck.for_config(cfg.epoch_length)
            # Health verdicts are journaled: their inputs are
            # sim-derived snapshot slices, so the events hold the
            # executor/resume byte-identity contract.
            health_log = system.obs.get_logger("service.health")

        reports: list[EpochReport] = []
        all_shard_results: list[ShardResult] = []
        attempts: list[AttemptRecord] = []
        stats_parts: list[CampaignStats] = []
        telemetry_parts: list[ShardTelemetry] = []
        fault_parts: list[FaultReport] = []
        saved_epochs = resume.epochs_completed if resume is not None else 0
        interrupted = False

        with self._build_runner() as runner:
            for epoch in range(cfg.epochs):
                replay = epoch < checkpoint.epochs_completed
                if self._stop_requested and not replay:
                    interrupted = True
                    break
                window = self.scheduler.window(epoch)
                wave = self.scheduler.wave_sites(sites, epoch)

                # Service events due before the wave opens fire first —
                # probes, churn and ingestion are interleaved *between*
                # crawls exactly as a live deployment would see them.
                events_before = system.queue.run_until(window[0])

                epoch_started = time.perf_counter()
                if replay:
                    shard_results = checkpoint.epoch_results[epoch]
                else:
                    plans = runner.plan(wave, epoch=epoch, start=window[0])
                    dispatch = runner.execute(
                        plans, sites_count=len(wave), build_journal=False
                    )
                    shard_results = dispatch.shard_results
                    checkpoint.record_epoch(shard_results)
                dispatch_seconds = time.perf_counter() - epoch_started

                epoch_attempts, epoch_stats, epoch_telemetry, epoch_faults = (
                    merge_shard_results(shard_results)
                )
                all_shard_results.extend(shard_results)
                attempts.extend(epoch_attempts)
                stats_parts.append(epoch_stats)
                telemetry_parts.append(epoch_telemetry)
                fault_parts.append(epoch_faults)

                checkpointed = False
                due = (
                    checkpoint.epochs_completed % cfg.checkpoint_every == 0
                    or epoch == cfg.epochs - 1
                    or self._stop_requested
                )
                if (
                    self.checkpoint_path is not None
                    and checkpoint.epochs_completed > saved_epochs
                    and due
                ):
                    save_checkpoint(checkpoint, self.checkpoint_path)
                    saved_epochs = checkpoint.epochs_completed
                    checkpointed = True

                reports.append(
                    EpochReport(
                        epoch=epoch,
                        window=window,
                        sites=len(wave),
                        attempts=len(epoch_attempts),
                        exposed=sum(1 for a in epoch_attempts if a.exposed),
                        service_events=events_before,
                        replayed=replay,
                        checkpointed=checkpointed,
                    )
                )
                # Journaled — must not mention replay/checkpoint state,
                # which may differ between a resumed and a fresh run.
                log.info("epoch complete", epoch=epoch, sites=len(wave))

                if probe is not None:
                    # Flushed for replayed epochs too: a resumed
                    # daemon's flight file re-covers epochs 0..k and
                    # ends up byte-identical to an uninterrupted run's
                    # (the snapshot reads only replay-invariant state).
                    snapshot = probe.snapshot(epoch, epoch_faults)
                    statuses = health.evaluate(snapshot)
                    for status in statuses:
                        health_log.info(
                            f"health.{status.rule}",
                            status=status.status,
                            **status.detail_dict(),
                        )
                    recorder.flush(snapshot, statuses)
                    # Wall-clock profiling: side channel only, and the
                    # replay flag may legitimately differ across
                    # resumes — nothing here feeds deterministic bytes.
                    recorder.profile({
                        "epoch": epoch,
                        "replayed": replay,
                        "dispatch_seconds": round(dispatch_seconds, 6),
                        "service_events": events_before,
                        "logins_per_second": (
                            round(
                                lifecycle.stats.traffic_logins / dispatch_seconds,
                                1,
                            )
                            if dispatch_seconds > 0
                            else None
                        ),
                        "caches": cache_stats(),
                    })

        if not interrupted:
            # Drain the service tail: every remaining probe, churn and
            # ingestion event up to the horizon, then retire whatever
            # recurring chains survive (cancel is exercised on every
            # graceful shutdown, not just interrupted ones).
            system.queue.run_until(self.scheduler.horizon)
        lifecycle.cancel_all()

        stats = sum_counter_dataclasses(CampaignStats, stats_parts)
        telemetry = sum_counter_dataclasses(ShardTelemetry, telemetry_parts)
        fault_report = sum_counter_dataclasses(FaultReport, fault_parts)

        journal = None
        if not interrupted:
            journal = self._build_journal(system, all_shard_results)

        return ServiceRunResult(
            config=cfg,
            reports=reports,
            attempts=attempts,
            stats=stats,
            telemetry=telemetry,
            fault_report=fault_report,
            lifecycle=lifecycle.stats,
            detection_digest=monitor.detection_digest(),
            journal=journal,
            epochs_completed=len(reports),
            interrupted=interrupted,
            detected_sites=monitor.site_count(),
            stuffing_waves=list(lifecycle.stuffing_results),
            stuffing_model=lifecycle.reuse_model,
            live_stats={
                "engine": system.provider.batch_engine_stats(),
                "queue": lifecycle.queue_stats(),
                "stuffing_queue": lifecycle.stuffing_queue_stats(),
                "provider": system.provider.login_state_sizes(),
            },
        )

    def _build_journal(
        self, system: TripwireSystem, shard_results: list[ShardResult]
    ) -> RunJournal:
        """One journal for the whole run: crawl shards + service world.

        Crawl captures keep their globally unique shard indices
        (``epoch * shards + k``); the service world's capture takes the
        slot after every possible crawl shard.  Meta is
        :meth:`ServiceConfig.sim_meta` — worker-count-invariant by
        construction, so journal bytes are stable across executors and
        across interrupted-and-resumed runs.
        """
        cfg = self.config
        captures = [
            r.observation for r in shard_results if r.observation is not None
        ]
        captures.append(
            ShardObservation.capture(system.obs, cfg.epochs * cfg.shards)
        )
        return RunJournal(cfg.sim_meta(), captures)
