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

The same independence lets the two overlap: each epoch's service
window is the ``meanwhile`` of that epoch's
:meth:`CampaignRunner.execute`, so it runs here while the pool's
workers crawl.  What a window's start records is taken before the
dispatch, so no byte depends on the overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.campaign import AttemptRecord, CampaignStats
from repro.core.monitor import CompromiseMonitor
from repro.core.runner import (
    CampaignRunner,
    ShardResult,
    ShardTelemetry,
    merge_shard_results,
    shared_specs,
)
from repro.core.system import TripwireSystem
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.obs.health import HealthCheck
from repro.obs.journal import RunJournal, ShardObservation
from repro.obs.live import FlightRecorder, ServiceFlightProbe
from repro.obs.merge import sum_counter_dataclasses
from repro.perf.caching import cache_stats
from repro.service.checkpoint import Checkpoint, config_digest, save_checkpoint
from repro.service.lifecycle import AccountLifecycle, LifecycleStats, ServiceStream
from repro.service.scheduler import EpochScheduler, ServiceConfig
from repro.util.timeutil import SimInstant
from repro.web.population import RankedSite, ranked_top


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
    #: The lifecycle's stream registry (totals rows, ``--json``
    #: blocks), without the actions and queues that would keep the
    #: service world alive as long as the result.
    streams: list[ServiceStream]
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
    #: Live process-local gauges read at loop exit: the engine path
    #: mix, each queued stream's queue accounting under its queue name
    #: (``queue``, ``stuffing_queue``; None while off), provider state
    #: sizes and the bytes its login-state columns hold
    #: (``provider_bytes``).  Operator surface only — never journaled.
    live_stats: dict | None = None

    def exposed_attempts(self) -> list[AttemptRecord]:
        """Attempts where an identity was burned."""
        return [a for a in self.attempts if a.exposed]


@dataclass
class _ServiceWindow:
    """One epoch's service window: fires every service event up to
    ``until`` and keeps what the ``.wall`` side channel reports of it."""

    lifecycle: AccountLifecycle
    until: SimInstant
    events: int = 0
    logins: int = 0
    seconds: float = 0.0

    def __call__(self) -> None:
        logins = self.lifecycle.stats.traffic_logins
        began = time.perf_counter()
        self.events = self.lifecycle.system.queue.run_until(self.until)
        self.seconds = time.perf_counter() - began
        self.logins = self.lifecycle.stats.traffic_logins - logins


class CampaignDaemon:
    """Drives the epoch loop: crawl waves, service events, checkpoints.

    One :class:`~repro.core.runner.CampaignRunner`, entered once for
    the whole loop, serves every epoch from one pool, so worker
    processes keep their warm spec tables across dispatches.
    :meth:`request_stop` (wired to SIGTERM/SIGINT by the CLI)
    lets the in-flight epoch and its service window finish, checkpoints
    the epoch, and exits the loop — a *graceful* stop; a hard kill
    merely loses epochs after the last checkpoint, which a resume
    re-runs from their pure plans.
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

        Read from the spec source every crawl shard reads (the world
        store, or the seed's spec table), capped at the population.
        """
        cfg = self.config
        specs = shared_specs(cfg.seed, cfg.population_size, cfg.world_store)
        return ranked_top(specs, min(cfg.top, cfg.population_size))

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
            health = HealthCheck.for_config(
                cfg.epoch_length,
                queues=[s.queue_path for s in lifecycle.streams if s.queue_path],
            )
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

        # Events due at the start fire before epoch 0's wave; each
        # epoch's window then runs up to the next one's start.
        service_events = system.queue.run_until(cfg.start)
        with self._build_runner() as runner:
            for epoch in range(cfg.epochs):
                replay = epoch < checkpoint.epochs_completed
                if self._stop_requested and not replay:
                    interrupted = True
                    break
                window = self.scheduler.window(epoch)
                wave = self.scheduler.wave_sites(sites, epoch)

                # Taken at the window start, before the crawl, since
                # none of it reads crawl results.  Journaled — must not
                # mention replay/checkpoint state, which may differ
                # between a resumed and a fresh run.
                log.info("epoch complete", epoch=epoch, sites=len(wave))
                if probe is not None:
                    # Taken for replayed epochs too: a resumed daemon's
                    # flight file re-covers epochs 0..k and ends up
                    # byte-identical to an uninterrupted run's (the
                    # snapshot reads only replay-invariant state).
                    snapshot = probe.snapshot(epoch)
                    statuses = health.evaluate(snapshot)
                    for status in statuses:
                        health_log.info(
                            f"health.{status.rule}",
                            status=status.status,
                            **status.detail_dict(),
                        )

                service = _ServiceWindow(lifecycle, window[1])
                dispatch_seconds = 0.0
                if replay:
                    shard_results = checkpoint.epoch_results[epoch]
                    service()
                else:
                    plans = runner.plan(wave, epoch=epoch, start=window[0])
                    dispatch = runner.execute(
                        plans, sites_count=len(wave), build_journal=False,
                        meanwhile=service,
                    )
                    shard_results = dispatch.shard_results
                    dispatch_seconds = dispatch.wall_seconds
                    checkpoint.record_epoch(shard_results)

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
                        service_events=service_events,
                        replayed=replay,
                        checkpointed=checkpointed,
                    )
                )
                service_events = service.events

                if probe is not None:
                    probe.note_crawl_faults(snapshot, epoch_faults)
                    recorder.flush(snapshot, statuses)
                    # Wall-clock profiling: side channel only, and the
                    # replay flag may legitimately differ across
                    # resumes — nothing here feeds deterministic bytes.
                    recorder.profile({
                        "epoch": epoch,
                        "replayed": replay,
                        "dispatch_seconds": round(dispatch_seconds, 6),
                        "service_seconds": round(service.seconds, 6),
                        "service_events": service.events,
                        "traffic_logins": service.logins,
                        "logins_per_second": (
                            round(service.logins / service.seconds, 1)
                            if service.seconds > 0
                            else None
                        ),
                        "caches": cache_stats(),
                    })

        # The last window ran to the horizon; retire whatever recurring
        # chains survive (cancel is exercised on every graceful
        # shutdown, not just interrupted ones).
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
            streams=[replace(s, fire=None, queue=None) for s in lifecycle.streams],
            detection_digest=monitor.detection_digest(),
            journal=journal,
            epochs_completed=len(reports),
            interrupted=interrupted,
            detected_sites=monitor.site_count(),
            stuffing_waves=list(lifecycle.stuffing_results),
            stuffing_model=lifecycle.reuse_model,
            live_stats={
                "engine": system.provider.batch_engine_stats(),
                **lifecycle.queue_stats(),
                "provider": system.provider.login_state_sizes(),
                "provider_bytes": system.provider.login_state_bytes(),
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
