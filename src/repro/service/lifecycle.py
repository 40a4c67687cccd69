"""Recurring service events: probes, lifecycle churn, dump ingestion.

Everything the managed deployment did *between* crawls, expressed as
recurring :class:`~repro.sim.events.EventQueue` entries on the service
world's clock instead of imperative loops:

- **re-login probes** — the operator logs into every control account
  on an interval; each probe must surface in a later telemetry dump
  (the pipeline-liveness check of Section 4.2);
- **telemetry ingestion** — provider dumps are pulled and folded into
  the :class:`~repro.core.monitor.CompromiseMonitor` incrementally via
  the shared :class:`~repro.core.monitor.DumpIngestion` step, honoring
  the retention gap (dumps spaced beyond retention lose a window,
  exactly as Figure 2's shaded gap) and pruning exported telemetry so
  a multi-year daemon holds bounded state;
- **account lifecycle churn** — honey accounts are bound to sites
  (registered-and-burned), frozen by the provider's abuse desk,
  recovered and rotated through support resets; a deterministic
  attacker stream accesses bound accounts so detections flow end to
  end through dumps into the monitor.

Every action draws from its own :class:`~repro.util.rngtree.RngTree`
stream under the service apparatus namespace and touches only the
service world — never crawl-shard state — so the whole stream is a
pure function of the :class:`~repro.service.scheduler.ServiceConfig`.
That independence is what makes checkpoint/resume cheap: a resumed
daemon replays these events from scratch and lands in the identical
state without consulting the checkpoint at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacker.breach import BreachMethod
from repro.attacker.stuffing import (
    StuffingEngine,
    StuffingWaveResult,
    build_benign_corpus,
)
from repro.core.monitor import CompromiseMonitor, DumpIngestion
from repro.core.system import TripwireSystem
from repro.email_provider.batch import LoginBatch
from repro.email_provider.telemetry import LoginMethod
from repro.identity.passwords import PasswordClass
from repro.identity.reuse import CrossSiteReuseModel
from repro.net.ipaddr import IPv4Address
from repro.obs.live import STREAM_GAP_BOUNDS
from repro.service.scheduler import ServiceConfig
from repro.sim.events import RecurringEvent
from repro.traffic import (
    BackpressureQueue,
    BenignPopulation,
    TrafficGenerator,
    TrafficProfile,
)
from repro.util.timeutil import SimInstant

#: Access methods the attacker stream rotates through (checkers in the
#: wild used mail protocols, not webmail — Section 6.2).
_ATTACK_METHODS = (LoginMethod.IMAP, LoginMethod.POP3, LoginMethod.SMTP)


@dataclass
class LifecycleStats:
    """Counters over the recurring service streams (merge-friendly)."""

    probes: int = 0
    probe_logins: int = 0
    binds: int = 0
    bind_exhausted: int = 0
    freezes: int = 0
    recoveries: int = 0
    resets: int = 0
    attacks: int = 0
    attack_successes: int = 0
    dumps: int = 0
    traffic_windows: int = 0
    traffic_logins: int = 0
    traffic_successes: int = 0
    traffic_mails: int = 0
    stuffing_waves: int = 0
    stuffing_candidates: int = 0
    stuffing_logins: int = 0
    stuffing_successes: int = 0
    stuffing_site_hits: int = 0
    state_evictions: int = 0
    #: Per-stream firing tallies, keyed by stream label
    #: (``service.probe`` etc.): cumulative fire counts and the sim
    #: instant of the most recent fire.  This is what answers "which
    #: stream is starved" from ``serve --json`` or a flight snapshot
    #: without reading the journal.
    stream_counts: dict[str, int] = field(default_factory=dict)
    stream_last_fired: dict[str, int] = field(default_factory=dict)


class AccountLifecycle:
    """Installs and drives the recurring service-event streams."""

    def __init__(
        self,
        system: TripwireSystem,
        monitor: CompromiseMonitor,
        config: ServiceConfig,
        horizon: SimInstant,
    ):
        self.system = system
        self.monitor = monitor
        self.config = config
        self.horizon = horizon
        self.stats = LifecycleStats()
        self.ingestion = DumpIngestion(system, monitor, prune=config.prune_telemetry)
        tree = system.apparatus_tree.child("service", "lifecycle")
        self._bind_rng = tree.child("bind").rng()
        self._freeze_rng = tree.child("freeze").rng()
        self._reset_rng = tree.child("reset").rng()
        self._attack_rng = tree.child("attack").rng()
        self._log = system.obs.get_logger("service.lifecycle")
        self._bind_cursor = 0
        self.handles: list[RecurringEvent] = []
        #: Stream label -> recurrence interval, filled by install().
        self.stream_intervals: dict[str, int] = {}
        self._traffic_cursor = 0
        self._traffic_gen: TrafficGenerator | None = None
        self._traffic_queue: BackpressureQueue | None = None
        self._population: BenignPopulation | None = None
        if config.traffic_users > 0:
            # The benign haystack is part of the service world: its
            # registration (sim-shaping) happens exactly once, here,
            # before any stream fires.
            self._population = BenignPopulation(config.traffic_users)
            self._population.register_with(system.provider)
            self._traffic_gen = TrafficGenerator(
                TrafficProfile(
                    users=config.traffic_users,
                    logins_per_user_day=config.traffic_logins_per_day,
                    mails_per_user_day=config.traffic_mails_per_day,
                    window_seconds=config.traffic_window,
                    batch_events=config.traffic_batch_events,
                ),
                self._population,
                tree,
            )
            self._traffic_queue = BackpressureQueue()
        self._stuffing_engine: StuffingEngine | None = None
        self._stuffing_queue: BackpressureQueue | None = None
        self._stuffing_cursor = 0
        #: Membership/password knowledge the correlation analysis reuses.
        self.reuse_model: CrossSiteReuseModel | None = None
        #: Per-wave dispatch-independent records (analysis input).
        self.stuffing_results: list[StuffingWaveResult] = []
        if config.stuffing_interval > 0:
            # The reuse model is keyed off the lifecycle namespace (a
            # derived seed — no RNG stream consumed), so stuffed
            # credentials are a pure function of the sim-shaping
            # config, like every other event the streams produce.
            self.reuse_model = CrossSiteReuseModel.from_tree(
                tree,
                exact_rate=config.stuffing_exact_rate,
                derive_rate=config.stuffing_derive_rate,
                site_density=config.stuffing_site_density,
            )
            self._stuffing_engine = StuffingEngine(
                system.provider,
                self._population,
                self.reuse_model,
                tree,
                batch_events=config.stuffing_batch_events,
            )
            self._stuffing_queue = BackpressureQueue()
            self._stuffing_rng = tree.child("stuffing", "campaign").rng()

    # -- installation ------------------------------------------------------

    def install(self) -> list[RecurringEvent]:
        """Schedule every recurring stream up to the horizon."""
        cfg = self.config
        queue = self.system.queue
        start = cfg.start
        streams = [
            (cfg.probe_interval, "service.probe", self._probe),
            (cfg.dump_interval, "service.ingest", self._ingest),
            (cfg.bind_interval, "service.bind", self._bind),
            (cfg.freeze_interval, "service.freeze", self._freeze),
            (cfg.reset_interval, "service.reset", self._reset),
            (cfg.attack_interval, "service.attack", self._attack),
        ]
        if cfg.traffic_users > 0:
            streams.append((cfg.traffic_window, "service.traffic", self._traffic))
        if self._stuffing_engine is not None:
            streams.append(
                (cfg.stuffing_interval, "service.stuffing", self._stuffing)
            )
        for interval, label, action in streams:
            self.stream_intervals[label] = interval
            # Seed the tally at zero so an installed-but-starved
            # stream still shows up in `serve --json` and snapshots.
            self.stats.stream_counts.setdefault(label, 0)
            self.handles.append(
                queue.schedule_recurring(
                    start + interval,
                    interval,
                    label,
                    self._tracked(label, action),
                    until=self.horizon,
                )
            )
        return self.handles

    def _tracked(self, label: str, action):
        """Wrap a stream action with firing bookkeeping.

        Records the cumulative fire count and last-fired sim instant
        (starvation telemetry), and observes the inter-fire gap into a
        ``stream.<label>.gap_seconds`` histogram.  The event queue
        fires streams at deterministic sim instants, so everything
        recorded here is executor-invariant.
        """
        stats = self.stats
        metrics = self.system.obs.metrics
        clock = self.system.clock

        def fire() -> None:
            now = clock.now()
            previous = stats.stream_last_fired.get(label)
            if previous is not None:
                metrics.observe(
                    f"stream.{label}.gap_seconds",
                    now - previous,
                    bounds=STREAM_GAP_BOUNDS,
                )
            stats.stream_counts[label] = stats.stream_counts.get(label, 0) + 1
            stats.stream_last_fired[label] = now
            action()

        return fire

    def queue_stats(self) -> dict | None:
        """Backpressure-queue accounting, or None with traffic off."""
        if self._traffic_queue is None:
            return None
        return self._traffic_queue.stats()

    def stuffing_queue_stats(self) -> dict | None:
        """The stuffing stream's own queue, or None with stuffing off."""
        if self._stuffing_queue is None:
            return None
        return self._stuffing_queue.stats()

    def cancel_all(self) -> int:
        """Revoke every still-pending recurring stream (daemon stop)."""
        return sum(1 for handle in self.handles if handle.cancel())

    # -- the streams -------------------------------------------------------

    def _probe(self) -> None:
        """Operator re-login over every control account."""
        succeeded = self.system.login_control_accounts()
        self.stats.probes += 1
        self.stats.probe_logins += succeeded
        self.system.obs.count("service.probe_logins", succeeded)

    def _ingest(self) -> None:
        """Pull the provider dump into the monitor, incrementally."""
        attributed = self.ingestion()
        self.stats.dumps = self.ingestion.dumps_ingested
        self.system.obs.count("service.dump_logins_attributed", len(attributed))
        # Batch-review housekeeping rides the ingestion cadence: drop
        # throttle/IP-window state whose horizons have fully expired.
        # Decision-invariant — without it a multi-year daemon's
        # evidence log and hot set grow with every account that ever
        # logged in, and its throttle entries with every account that
        # ever failed a password.
        evicted_throttle, evicted_windows = self.system.provider.evict_expired()
        self.stats.state_evictions += evicted_throttle + evicted_windows

    def _traffic(self) -> None:
        """One benign-traffic window: the haystack logs in and gets mail.

        The generator's batches flow through the bounded backpressure
        queue into the provider's batch login engine.  All events in
        the window occur at its close (now).
        """
        window = self._traffic_gen.window(
            self._traffic_cursor, self.system.clock.now()
        )
        self._traffic_cursor += 1
        provider = self.system.provider
        successes = 0

        def consume(batch: LoginBatch) -> None:
            nonlocal successes
            successes += provider.attempt_logins(batch).successes

        self._traffic_queue.pump(iter(window.batches), consume)
        mails = provider.deliver_background(window.mail_rows)

        self.stats.traffic_windows += 1
        self.stats.traffic_logins += window.login_count
        self.stats.traffic_successes += successes
        self.stats.traffic_mails += mails
        obs = self.system.obs
        obs.count("service.traffic_logins", window.login_count)
        obs.count("service.traffic_successes", successes)
        obs.count("service.traffic_mails", mails)

    def _stuffing(self) -> None:
        """One stuffing wave: breach a site, replay the haul at scale.

        The campaign stream draws — in documented order: victim rank,
        acquisition coin, then target ranks — from its own namespaced
        RNG, breaches the victim against the benign population, and
        fans the corpus out through the stuffing engine: provider
        candidates flow through the wave's backpressure queue into the
        batch login engine, cross-site targets are resolved from the
        reuse model directly.
        """
        cfg = self.config
        rng = self._stuffing_rng
        wave = self._stuffing_cursor
        self._stuffing_cursor += 1
        rank = 1 + rng.randrange(cfg.population_size)
        method = (
            BreachMethod.DB_DUMP
            if rng.random() < 0.5
            else BreachMethod.ONLINE_CAPTURE
        )
        targets: list[int] = []
        while len(targets) < min(cfg.stuffing_targets, cfg.population_size - 1):
            candidate = 1 + rng.randrange(cfg.population_size)
            if candidate != rank and candidate not in targets:
                targets.append(candidate)
        host = self.system.population.spec_at_rank(rank).host

        provider = self.system.provider
        # Housekeeping before the wave: drop the throttle entries the
        # previous wave's failures left (waves are spaced past the
        # brute-force window and lockout), so ``throttle_rows`` — which
        # the health rule and the flight snapshots read — counts this
        # wave's failures, not every account ever stuffed.  Decision-
        # invariant.
        evicted_throttle, evicted_windows = provider.evict_expired()
        self.stats.state_evictions += evicted_throttle + evicted_windows

        corpus = build_benign_corpus(
            self.reuse_model,
            cfg.traffic_users,
            rank,
            host,
            method,
            wave=wave,
            crack_rate=cfg.stuffing_crack_rate,
        )
        engine = self._stuffing_engine
        plan = engine.plan_wave(corpus, targets=tuple(targets))

        results = bytearray()

        def consume(batch: LoginBatch) -> None:
            results.extend(engine.dispatch_batch(batch))

        self._stuffing_queue.pump(iter(plan.batches), consume)
        result = engine.collect(plan, results)
        self.stuffing_results.append(result)

        site_hits = sum(t.hits for t in result.site_targets)
        stats = self.stats
        stats.stuffing_waves += 1
        stats.stuffing_candidates += result.candidates
        stats.stuffing_logins += result.attempts
        stats.stuffing_successes += result.successes
        stats.stuffing_site_hits += site_hits
        obs = self.system.obs
        obs.count("service.stuffing_logins", result.attempts)
        obs.count("service.stuffing_successes", result.successes)
        obs.count("service.stuffing_site_hits", site_hits)
        self._log.info(
            "stuffing wave dispatched",
            wave=wave,
            host=host,
            method=method.value,
            candidates=result.candidates,
            successes=result.successes,
        )

    def _bind(self) -> None:
        """Bind one honey account to the next service-probed site.

        The continuous analogue of a registration that exposed
        credentials: an identity is checked out for a deterministic
        site and burned, making any later provider login to it
        attributable to exactly that site.
        """
        rank = 1 + (self._bind_cursor % self.config.population_size)
        self._bind_cursor += 1
        host = self.system.population.spec_at_rank(rank).host
        password_class = (
            PasswordClass.HARD if self._bind_rng.random() < 0.5 else PasswordClass.EASY
        )
        identity = self.system.pool.checkout_any(host, password_class)
        if identity is None:
            self.stats.bind_exhausted += 1
            self._log.info("bind skipped: pool exhausted", host=host)
            return
        self.system.pool.burn(identity.identity_id)
        self.stats.binds += 1
        self.system.obs.count("service.binds")
        self._log.info("account bound", host=host, local=identity.email_local)

    def _bound_locals(self) -> list[str]:
        """Email locals of bound (burned) identities, in burn order."""
        return [
            identity.email_local
            for identity, _site in self.system.pool.burned_identities()
        ]

    def _freeze(self) -> None:
        """The provider's abuse desk freezes one bound account."""
        locals_ = self._bound_locals()
        if not locals_:
            return
        local = locals_[self._freeze_rng.randrange(len(locals_))]
        if not self.system.provider.support_freeze(local):
            return
        self.stats.freezes += 1
        self.system.obs.count("service.freezes")
        self._log.info("account frozen", local=local)
        # The operator notices (the next probe/dump cycle) and recovers
        # the account through the support desk after a delay.
        recovered_password = f"Svc!{self._freeze_rng.randrange(10**8):08d}"
        self.system.queue.schedule(
            self.system.clock.now() + self.config.recover_delay,
            "service.recover",
            lambda: self._recover(local, recovered_password),
        )

    def _recover(self, local: str, new_password: str) -> None:
        if self.system.provider.support_reset(local, new_password):
            self.stats.recoveries += 1
            self.system.obs.count("service.recoveries")
            self._log.info("account recovered", local=local)

    def _reset(self) -> None:
        """Operator-driven password rotation on one bound account."""
        locals_ = self._bound_locals()
        if not locals_:
            return
        local = locals_[self._reset_rng.randrange(len(locals_))]
        new_password = f"Rot@{self._reset_rng.randrange(10**8):08d}"
        if self.system.provider.support_reset(local, new_password):
            self.stats.resets += 1
            self.system.obs.count("service.resets")
            self._log.info("password rotated", local=local)

    def _attack(self) -> None:
        """An attacker tries a bound account's original credentials.

        Successful logins land in telemetry and surface — one dump
        later — as monitor detections of the bound site.  Frozen,
        rotated or reset accounts make the attempt fail, which is the
        signal degradation a long-lived deployment actually fights.
        """
        bound = self.system.pool.burned_identities()
        if not bound:
            return
        identity, _site = bound[self._attack_rng.randrange(len(bound))]
        ip = IPv4Address(self._attack_rng.randrange(1 << 32))
        method = _ATTACK_METHODS[self._attack_rng.randrange(len(_ATTACK_METHODS))]
        receipt = self.system.provider.attempt_logins(
            LoginBatch.single(identity.email_local, identity.password, ip, method)
        )
        succeeded = receipt.results[0] == 0
        self.stats.attacks += 1
        self.system.obs.count("service.attacks")
        if succeeded:
            self.stats.attack_successes += 1
            self.system.obs.count("service.attack_successes")
