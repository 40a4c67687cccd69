"""Service-mode configuration and the sim-clock epoch scheduler.

An epoch is the daemon's unit of dispatch and checkpointing: a fixed
window of sim time in which one staggered registration wave is crawled
while the recurring service events (probes, lifecycle churn, telemetry
ingestion) fire on their own intervals.  Epoch boundaries are where
checkpoints land and where a resumed run re-enters, so every quantity
here is a pure function of the :class:`ServiceConfig` — nothing about
epochs depends on wall clock, worker count or executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.campaign import RegistrationPolicy
from repro.core.runner import check_execution
from repro.faults.plan import FaultPlan
from repro.identity.reuse import check_probability, check_reuse_rates
from repro.util.timeutil import DAY, HOUR, STUDY_START, SimInstant
from repro.web.population import RankedSite


@dataclass
class ServiceConfig:
    """Everything that shapes a service-mode run.

    Fields are split between *sim-shaping* knobs (seed, population,
    epochs, intervals, account counts — these go into the journal meta
    and the checkpoint digest) and *execution-shaping* knobs (workers,
    executor, batch sizes, world store — these may differ between the
    original and the resumed run without moving a byte of output).
    """

    # -- sim-shaping ------------------------------------------------------
    seed: int = 7
    population_size: int = 3000
    top: int = 200  # ranked sites crawled across the whole run
    shards: int = 4
    policy: RegistrationPolicy = RegistrationPolicy.HARD_FIRST
    start: SimInstant = STUDY_START
    epochs: int = 4
    epoch_length: int = 30 * DAY
    retention_days: int = 60
    #: Recurring-event intervals (sim seconds).
    probe_interval: int = 7 * DAY       # control-account re-login probes
    dump_interval: int = 20 * DAY       # telemetry-dump ingestion
    bind_interval: int = 3 * DAY        # honey-account ↔ site binding
    freeze_interval: int = 23 * DAY     # provider freezes an account
    reset_interval: int = 37 * DAY      # operator rotates a password
    attack_interval: int = 5 * DAY      # attacker accesses a bound account
    recover_delay: int = 4 * DAY        # support-desk recovery after a freeze
    #: Service-world account block (honey + unused + control).
    hard_accounts: int = 40
    easy_accounts: int = 40
    unused_accounts: int = 20
    control_accounts: int = 4
    fault_plan: FaultPlan | None = None
    #: Drop provider telemetry no future dump can return (the
    #: continuous-operation memory bound).
    prune_telemetry: bool = True
    #: Benign-traffic population (0 disables the traffic stream).  The
    #: traffic knobs below shape *which login events exist*, so they
    #: are sim-shaping; how those events are batched is
    #: execution-shaping.
    traffic_users: int = 0
    traffic_logins_per_day: float = 2.0
    traffic_mails_per_day: float = 0.5
    traffic_window: int = 6 * HOUR
    #: Credential-stuffing campaign stream (0 disables).  Requires a
    #: benign population (``traffic_users > 0``) — the reuse model and
    #: the breached corpora are derived over that population.  All of
    #: these shape which stuffed login events exist, so they are
    #: sim-shaping; the stuffing batch size below is execution-shaping,
    #: exactly like its traffic twin.
    stuffing_interval: int = 0
    stuffing_exact_rate: float = 0.3
    stuffing_derive_rate: float = 0.3
    stuffing_site_density: float = 0.05
    stuffing_crack_rate: float = 0.6
    stuffing_targets: int = 3

    # -- execution-shaping (never in journal meta) ------------------------
    workers: int = 1
    #: ``"serial"`` or ``"process"`` (:data:`repro.core.runner.EXECUTORS`).
    executor: str = "serial"
    checkpoint_every: int = 1
    #: Max events per traffic batch.  Execution-shaping: batch
    #: splitting groups the same events without reordering them.
    traffic_batch_events: int = 8192
    #: Stuffing-wave dispatch shaping (split only, never order).
    stuffing_batch_events: int = 8192
    #: Path of a built world store (:mod:`repro.store`), or None for
    #: in-memory worlds.  Execution-shaped: a run may be resumed with
    #: the store toggled either way and must still byte-match.
    world_store: str | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        check_execution(self.shards, self.workers, self.executor)
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        # A stream whose interval is 0 is off; only the stuffing and
        # (via traffic_users) traffic streams may be turned off.
        for name in ("probe_interval", "dump_interval", "bind_interval",
                     "freeze_interval", "reset_interval", "attack_interval",
                     "traffic_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("traffic_users", "traffic_logins_per_day",
                     "traffic_mails_per_day", "stuffing_targets"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        check_reuse_rates(
            self.stuffing_exact_rate,
            self.stuffing_derive_rate,
            self.stuffing_site_density,
        )
        check_probability("stuffing_crack_rate", self.stuffing_crack_rate)
        if self.stuffing_interval > 0 and self.traffic_users == 0:
            raise ValueError("stuffing_interval requires traffic_users")

    def sim_meta(self) -> dict:
        """The sim-shaping facts: journal meta and checkpoint digest.

        Deliberately excludes workers, executor, batch sizes, the world
        store and checkpoint cadence — a resumed run may change any of
        those and must still produce byte-identical output.
        """
        return {
            "command": "serve",
            "seed": self.seed,
            "population": self.population_size,
            "sites": self.top,
            "shards": self.shards,
            "policy": self.policy.value,
            "start": self.start,
            "epochs": self.epochs,
            "epoch_length": self.epoch_length,
            "retention_days": self.retention_days,
            "probe_interval": self.probe_interval,
            "dump_interval": self.dump_interval,
            "bind_interval": self.bind_interval,
            "freeze_interval": self.freeze_interval,
            "reset_interval": self.reset_interval,
            "attack_interval": self.attack_interval,
            "recover_delay": self.recover_delay,
            "hard_accounts": self.hard_accounts,
            "easy_accounts": self.easy_accounts,
            "unused_accounts": self.unused_accounts,
            "control_accounts": self.control_accounts,
            "fault_profile": self.fault_plan.profile if self.fault_plan else "off",
            "fault_seed": self.fault_plan.seed if self.fault_plan else 0,
            "prune_telemetry": self.prune_telemetry,
            "traffic_users": self.traffic_users,
            "traffic_logins_per_day": self.traffic_logins_per_day,
            "traffic_mails_per_day": self.traffic_mails_per_day,
            "traffic_window": self.traffic_window,
            "stuffing_interval": self.stuffing_interval,
            "stuffing_exact_rate": self.stuffing_exact_rate,
            "stuffing_derive_rate": self.stuffing_derive_rate,
            "stuffing_site_density": self.stuffing_site_density,
            "stuffing_crack_rate": self.stuffing_crack_rate,
            "stuffing_targets": self.stuffing_targets,
        }


@dataclass
class EpochScheduler:
    """Epoch windows and staggered wave slices, purely from config."""

    config: ServiceConfig
    _per_epoch: int = field(init=False, default=0)

    @property
    def horizon(self) -> SimInstant:
        """The sim instant the service run ends."""
        cfg = self.config
        return cfg.start + cfg.epochs * cfg.epoch_length

    def window(self, epoch: int) -> tuple[SimInstant, SimInstant]:
        """The half-open sim window ``[start, end)`` of one epoch."""
        cfg = self.config
        if not 0 <= epoch < cfg.epochs:
            raise ValueError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
        base = cfg.start + epoch * cfg.epoch_length
        return (base, base + cfg.epoch_length)

    def wave_sites(self, sites: list[RankedSite], epoch: int) -> list[RankedSite]:
        """The registration-wave slice for one epoch.

        The ranked list is chunked contiguously across epochs — the
        staggering the paper's deployment used instead of crawling the
        whole list at once.  Every site lands in exactly one epoch;
        later epochs absorb the remainder shortfall.
        """
        cfg = self.config
        per = -(-len(sites) // cfg.epochs)  # ceil division
        return sites[epoch * per:(epoch + 1) * per]

    def wave_positions(self, sites: list[RankedSite], epoch: int) -> int:
        """Global position offset of this epoch's wave in the full list."""
        per = -(-len(sites) // self.config.epochs)
        return epoch * per
