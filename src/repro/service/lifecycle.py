"""Recurring service events: probes, churn, ingestion, traffic, stuffing.

Everything the managed deployment did *between* crawls, as recurring
:class:`~repro.sim.events.EventQueue` entries on the service world's
clock: control-account re-login probes (the pipeline-liveness check of
Section 4.2), incremental telemetry-dump ingestion into the
:class:`~repro.core.monitor.CompromiseMonitor` (honoring the retention
gap, pruning exported telemetry), honey-account churn (bind, freeze,
recover, reset), an attacker stream over bound accounts, and benign
traffic and credential-stuffing batches that flow through bounded
backpressure queues into the provider's batch login engine.

Each stream is one :class:`ServiceStream` record in
:attr:`AccountLifecycle.streams`; every report of a stream derives from
that record.  Every action draws from its own
:class:`~repro.util.rngtree.RngTree` stream under the service apparatus
namespace and touches only the service world, so the whole stream is a
pure function of the :class:`~repro.service.scheduler.ServiceConfig`.
That independence is what makes checkpoint/resume cheap: a resumed
daemon replays these events from scratch and lands in the identical
state without consulting the checkpoint at all.
"""

from __future__ import annotations

from collections.abc import Callable
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
    """Counters over the recurring service streams; each int counter is
    in exactly one :class:`ServiceStream`'s ``fields``."""

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
    #: Per-stream firing tallies, keyed by stream label: cumulative
    #: fire counts and the sim instant of the most recent fire (which
    #: stream is starved, without reading the journal).
    stream_counts: dict[str, int] = field(default_factory=dict)
    stream_last_fired: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceStream:
    """One recurring service stream, and how each report shows it.

    Installation, the flight snapshot's stream table, queue panels and
    notables, the queue saturation rules, the daemon's live stats and
    the CLI's totals and ``--json`` blocks all derive from these
    records.  Where each queue sits in a snapshot predates the
    registry; ``queue_path`` keeps it as data, so the pinned journal
    and flight bytes hold.
    """

    label: str
    #: Recurrence in sim seconds; 0 when the config turns the stream off.
    interval: int
    #: The action (None in a finished run's copy of the registry).
    fire: Callable[[], None] | None
    #: The :class:`LifecycleStats` counters the stream reports.
    fields: tuple[str, ...] = ()
    #: Service-totals rows: a label and a format over those counters.
    totals: tuple[tuple[str, str], ...] = ()
    #: The backpressure queue batches flow through (None while off).
    queue: BackpressureQueue | None = None
    #: Where the queue's stats sit in a flight snapshot: one key, or a
    #: key and ``queue`` when that panel also carries the stream's
    #: counters (their ``<key>_`` prefix dropped).  Joined with ``_``
    #: it names the queue in live stats and in its saturation rule;
    #: joined with ``.``, its refusal notable.  Empty without a queue.
    queue_path: tuple[str, ...] = ()
    #: Notables for counter growth: (kind, counter, attribute).
    notables: tuple[tuple[str, str, str], ...] = ()


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
        self._traffic_cursor = 0
        self._traffic_queue: BackpressureQueue | None = None
        population = None
        if config.traffic_users > 0:
            # The benign haystack is part of the service world: its
            # registration (sim-shaping) happens exactly once, here,
            # before any stream fires.
            population = BenignPopulation(config.traffic_users)
            population.register_with(system.provider)
            profile = TrafficProfile(
                users=config.traffic_users,
                logins_per_user_day=config.traffic_logins_per_day,
                mails_per_user_day=config.traffic_mails_per_day,
                window_seconds=config.traffic_window,
                batch_events=config.traffic_batch_events,
            )
            self._traffic_gen = TrafficGenerator(profile, population, tree)
            self._traffic_queue = BackpressureQueue()
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
                system.provider, population, self.reuse_model, tree,
                batch_events=config.stuffing_batch_events,
            )
            self._stuffing_queue = BackpressureQueue()
            self._stuffing_rng = tree.child("stuffing", "campaign").rng()

        cfg = config
        #: Every stream, in install order (which fixes event sequence
        #: numbers); traffic and stuffing are listed while off too, so
        #: their queue rules still report ``enabled: false``.
        self.streams = [
            ServiceStream("service.probe", cfg.probe_interval, self._probe,
                          ("probes", "probe_logins"),
                          (("Control-account probes", "{probes}"),)),
            ServiceStream("service.ingest", cfg.dump_interval, self._ingest,
                          ("dumps", "state_evictions"),
                          (("Telemetry dumps ingested", "{dumps}"),)),
            ServiceStream("service.bind", cfg.bind_interval, self._bind,
                          ("binds", "bind_exhausted"),
                          (("Accounts bound (service)", "{binds}"),)),
            ServiceStream("service.freeze", cfg.freeze_interval, self._freeze,
                          ("freezes", "recoveries"),
                          (("Provider freezes / recoveries", "{freezes} / {recoveries}"),)),
            ServiceStream("service.reset", cfg.reset_interval, self._reset,
                          ("resets",), (("Password rotations", "{resets}"),)),
            ServiceStream("service.attack", cfg.attack_interval, self._attack,
                          ("attacks", "attack_successes"),
                          (("Attacker accesses (successful)", "{attacks} ({attack_successes})"),)),
            ServiceStream(
                "service.traffic", cfg.traffic_window if cfg.traffic_users > 0 else 0,
                self._traffic,
                ("traffic_windows", "traffic_logins", "traffic_successes", "traffic_mails"),
                (("Benign logins (successful)", "{traffic_logins} ({traffic_successes})"),
                 ("Benign mails delivered", "{traffic_mails}")),
                queue=self._traffic_queue, queue_path=("queue",),
            ),
            ServiceStream(
                "service.stuffing", max(cfg.stuffing_interval, 0),
                self._stuffing,
                ("stuffing_waves", "stuffing_candidates", "stuffing_logins",
                 "stuffing_successes", "stuffing_site_hits"),
                (("Stuffing waves (candidates)", "{stuffing_waves} ({stuffing_candidates})"),
                 ("Stuffed logins (successful)", "{stuffing_logins} ({stuffing_successes})"),
                 ("Cross-site hits", "{stuffing_site_hits}")),
                queue=self._stuffing_queue, queue_path=("stuffing", "queue"),
                notables=(("stuffing.hits", "stuffing_successes", "accounts"),),
            ),
        ]

    # -- installation ------------------------------------------------------

    @property
    def stream_intervals(self) -> dict[str, int]:
        """Label -> recurrence interval of every stream that is on."""
        return {s.label: s.interval for s in self.streams if s.interval}

    def install(self) -> list[RecurringEvent]:
        """Schedule every stream that is on, up to the horizon."""
        for stream in self.streams:
            if not stream.interval:
                continue
            # Seed the tally at zero so an installed-but-starved
            # stream still shows up in `serve --json` and snapshots.
            self.stats.stream_counts.setdefault(stream.label, 0)
            self.handles.append(self.system.queue.schedule_recurring(
                self.config.start + stream.interval, stream.interval, stream.label,
                self._tracked(stream.label, stream.fire), until=self.horizon,
            ))
        return self.handles

    def _tracked(self, label: str, action):
        """Wrap a stream action with firing bookkeeping: fire count,
        last-fired sim instant and a ``stream.<label>.gap_seconds``
        histogram, all executor-invariant (streams fire at
        deterministic sim instants)."""
        stats = self.stats
        metrics = self.system.obs.metrics
        clock = self.system.clock

        def fire() -> None:
            now = clock.now()
            previous = stats.stream_last_fired.get(label)
            if previous is not None:
                metrics.observe(f"stream.{label}.gap_seconds", now - previous,
                                bounds=STREAM_GAP_BOUNDS)
            stats.stream_counts[label] = stats.stream_counts.get(label, 0) + 1
            stats.stream_last_fired[label] = now
            action()

        return fire

    def queue_stats(self) -> dict[str, dict | None]:
        """Each queued stream's queue accounting (None while off), by name."""
        return {
            "_".join(s.queue_path): None if s.queue is None else s.queue.stats()
            for s in self.streams
            if s.queue_path
        }

    def cancel_all(self) -> int:
        """Revoke every still-pending recurring stream (daemon stop)."""
        return sum(1 for handle in self.handles if handle.cancel())

    # -- the streams -------------------------------------------------------

    def _count(self, **amounts: int) -> None:
        """Add to :class:`LifecycleStats` counters and their journaled
        ``service.<counter>`` twins."""
        for name, amount in amounts.items():
            setattr(self.stats, name, getattr(self.stats, name) + amount)
            self.system.obs.count(f"service.{name}", amount)

    def _probe(self) -> None:
        """Operator re-login over every control account."""
        self.stats.probes += 1
        self._count(probe_logins=self.system.login_control_accounts())

    def _ingest(self) -> None:
        """Pull the provider dump into the monitor, incrementally."""
        attributed = self.ingestion()
        self.stats.dumps = self.ingestion.dumps_ingested
        self.system.obs.count("service.dump_logins_attributed", len(attributed))
        # Batch-review housekeeping rides the ingestion cadence: drop
        # throttle/IP-window state whose horizons have fully expired.
        # Decision-invariant — without it a multi-year daemon's
        # evidence log, hot set and throttle entries grow with every
        # account that ever logged in or failed a password.
        evicted_throttle, evicted_windows = self.system.provider.evict_expired()
        self.stats.state_evictions += evicted_throttle + evicted_windows

    def _traffic(self) -> None:
        """One benign-traffic window: the haystack logs in and gets mail.

        All events in the window occur at its close (now).
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
        self._count(traffic_logins=window.login_count,
                    traffic_successes=successes, traffic_mails=mails)

    def _stuffing(self) -> None:
        """One stuffing wave: breach a site, replay the haul at scale.

        The campaign stream draws — in documented order: victim rank,
        acquisition coin, then target ranks — from its own namespaced
        RNG, breaches the victim against the benign population, and
        fans the corpus out through the stuffing engine; cross-site
        targets are resolved from the reuse model directly.
        """
        cfg = self.config
        rng = self._stuffing_rng
        wave = self._stuffing_cursor
        self._stuffing_cursor += 1
        rank = 1 + rng.randrange(cfg.population_size)
        method = BreachMethod.DB_DUMP if rng.random() < 0.5 else BreachMethod.ONLINE_CAPTURE
        targets: list[int] = []
        while len(targets) < min(cfg.stuffing_targets, cfg.population_size - 1):
            candidate = 1 + rng.randrange(cfg.population_size)
            if candidate != rank and candidate not in targets:
                targets.append(candidate)
        host = self.system.population.spec_at_rank(rank).host

        # Housekeeping before the wave: drop the throttle entries the
        # previous wave's failures left (waves are spaced past the
        # brute-force window and lockout), so ``throttle_rows`` — which
        # the health rule and the flight snapshots read — counts this
        # wave's failures, not every account ever stuffed.  Decision-
        # invariant.
        evicted_throttle, evicted_windows = self.system.provider.evict_expired()
        self.stats.state_evictions += evicted_throttle + evicted_windows

        corpus = build_benign_corpus(
            self.reuse_model, cfg.traffic_users, rank, host, method,
            wave=wave, crack_rate=cfg.stuffing_crack_rate,
        )
        engine = self._stuffing_engine
        plan = engine.plan_wave(corpus, targets=tuple(targets))

        results = bytearray()

        def consume(batch: LoginBatch) -> None:
            results.extend(engine.dispatch_batch(batch))

        self._stuffing_queue.pump(iter(plan.batches), consume)
        result = engine.collect(plan, results)
        self.stuffing_results.append(result)

        self.stats.stuffing_waves += 1
        self.stats.stuffing_candidates += result.candidates
        self._count(stuffing_logins=result.attempts,
                    stuffing_successes=result.successes,
                    stuffing_site_hits=sum(t.hits for t in result.site_targets))
        self._log.info(
            "stuffing wave dispatched", wave=wave, host=host, method=method.value,
            candidates=result.candidates, successes=result.successes,
        )

    def _bind(self) -> None:
        """Bind one honey account to the next service-probed site.

        The continuous analogue of a registration that exposed
        credentials: the burned identity's later logins are
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
        self._count(binds=1)
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
        self._count(freezes=1)
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
            self._count(recoveries=1)
            self._log.info("account recovered", local=local)

    def _reset(self) -> None:
        """Operator-driven password rotation on one bound account."""
        locals_ = self._bound_locals()
        if not locals_:
            return
        local = locals_[self._reset_rng.randrange(len(locals_))]
        new_password = f"Rot@{self._reset_rng.randrange(10**8):08d}"
        if self.system.provider.support_reset(local, new_password):
            self._count(resets=1)
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
        self._count(attacks=1)
        if receipt.results[0] == 0:
            self._count(attack_successes=1)
