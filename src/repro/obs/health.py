"""Health probes over flight-recorder snapshots.

Each rule reads one deterministic slice of a snapshot
(:meth:`~repro.obs.live.ServiceFlightProbe.snapshot`) and renders an
``ok`` / ``warn`` / ``fail`` verdict.  Because the inputs are
sim-derived, the verdicts are too: the daemon journals every
evaluation as a ``health.<rule>`` event, and those journal bytes stay
identical across worker counts, executors, and kill/resume — a health
regression is reproducible from the seed, not a flaky alert.

The rules, in journal order:

- **<queue>_saturation** — one per queued service stream, named after
  the queue (the lifecycle's ``ServiceStream.queue_path`` joined with
  ``_``): its backpressure queue is refusing a large share of offered
  batches (the login engine can't keep up with the producer).  A
  stream that is off reports ``enabled: false``;
- **throttle_growth** — the provider's sparse throttle table has grown
  past its bound (state eviction is losing to failure volume);
- **checkpoint_staleness** — reconstructible state has fallen behind
  sim time (epochs are not completing);
- **stream_starvation** — a recurring lifecycle stream has not fired
  for multiple intervals (the event queue is wedged or mis-scheduled).

Thresholds live in :class:`HealthThresholds`; :meth:`HealthCheck.
for_config` derives the staleness bounds from the epoch length so the
rule scales with the schedule instead of hard-coding days.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

#: Verdict levels, in increasing severity.
OK, WARN, FAIL = "ok", "warn", "fail"


@dataclass(frozen=True)
class HealthStatus:
    """One rule's verdict for one snapshot."""

    rule: str
    status: str
    detail: tuple[tuple[str, object], ...] = ()

    def detail_dict(self) -> dict[str, object]:
        """Detail attributes as a mapping (JSON-friendly)."""
        return dict(self.detail)

    @property
    def healthy(self) -> bool:
        return self.status == OK


@dataclass(frozen=True)
class HealthThresholds:
    """Rule bounds (sim-shaped: they feed journaled verdicts)."""

    #: Refused/offered share of a queue's batches before warn/fail.
    queue_refusal_warn: float = 0.25
    queue_refusal_fail: float = 0.75
    #: Provider throttle-table rows before warn/fail.
    throttle_rows_warn: int = 10_000
    throttle_rows_fail: int = 50_000
    #: Sim seconds of checkpoint age before warn/fail.
    checkpoint_age_warn: int = 5_184_000   # 60 days
    checkpoint_age_fail: int = 10_368_000  # 120 days
    #: Missed intervals before a stream counts as starved.
    starvation_warn_intervals: int = 2
    starvation_fail_intervals: int = 4


class HealthCheck:
    """Evaluates every rule against one snapshot, in :attr:`rules` order.

    ``queues`` holds the snapshot path of each queued stream's queue
    stats, one saturation rule each, evaluated first.
    """

    def __init__(self, thresholds: HealthThresholds | None = None,
                 queues: Sequence[tuple[str, ...]] = ()):
        self.thresholds = thresholds or HealthThresholds()
        self.queues = tuple(queues)
        self.rules = tuple(f"{'_'.join(path)}_saturation" for path in self.queues) + (
            "throttle_growth", "checkpoint_staleness", "stream_starvation",
        )

    @classmethod
    def for_config(cls, epoch_length: int, thresholds: HealthThresholds | None = None,
                   queues: Sequence[tuple[str, ...]] = ()) -> "HealthCheck":
        """Thresholds with staleness bounds scaled to the schedule.

        A checkpoint is stale when reconstructible state trails sim
        time by multiple epochs — two to warn, four to fail.
        """
        return cls(replace(
            thresholds or HealthThresholds(),
            checkpoint_age_warn=2 * epoch_length,
            checkpoint_age_fail=4 * epoch_length,
        ), queues)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, snapshot: dict) -> list[HealthStatus]:
        """All rule verdicts for one snapshot, in :attr:`rules` order."""
        statuses = []
        for rule, path in zip(self.rules, self.queues):
            queue = snapshot
            for key in path:
                queue = queue.get(key) if queue else None
            statuses.append(self._queue_saturation(rule, queue))
        return statuses + [
            self._throttle_growth(snapshot),
            self._checkpoint_staleness(snapshot),
            self._stream_starvation(snapshot),
        ]

    def _queue_saturation(self, rule: str, queue: dict | None) -> HealthStatus:
        """Refusal share of one stream's backpressure-queue stats."""
        if not queue:
            return HealthStatus(rule, OK, (("enabled", False),))
        offered = queue["offered"] + queue["refused"]
        share = queue["refused"] / offered if offered else 0.0
        status = OK
        if share >= self.thresholds.queue_refusal_fail:
            status = FAIL
        elif share >= self.thresholds.queue_refusal_warn:
            status = WARN
        return HealthStatus(rule, status, (
            ("peak_depth", queue["peak_depth"]),
            ("refused", queue["refused"]),
            ("refusal_share", round(share, 4)),
        ))

    def _throttle_growth(self, snapshot: dict) -> HealthStatus:
        rows = snapshot.get("provider", {}).get("throttle_rows", 0)
        status = OK
        if rows >= self.thresholds.throttle_rows_fail:
            status = FAIL
        elif rows >= self.thresholds.throttle_rows_warn:
            status = WARN
        return HealthStatus("throttle_growth", status, (
            ("bound", self.thresholds.throttle_rows_warn),
            ("throttle_rows", rows),
        ))

    def _checkpoint_staleness(self, snapshot: dict) -> HealthStatus:
        age = snapshot.get("checkpoint", {}).get("age", 0)
        status = OK
        if age >= self.thresholds.checkpoint_age_fail:
            status = FAIL
        elif age >= self.thresholds.checkpoint_age_warn:
            status = WARN
        return HealthStatus("checkpoint_staleness", status, (
            ("age", age),
            ("warn_after", self.thresholds.checkpoint_age_warn),
        ))

    def _stream_starvation(self, snapshot: dict) -> HealthStatus:
        now = snapshot.get("sim_time", 0)
        start = snapshot.get("sim_start", 0)
        warn_n = self.thresholds.starvation_warn_intervals
        fail_n = self.thresholds.starvation_fail_intervals
        starved: list[str] = []
        failed: list[str] = []
        for label, stream in sorted(snapshot.get("streams", {}).items()):
            interval = stream["interval"]
            # A never-fired stream is measured from the run start: its
            # first firing is due one interval in.
            basis = stream["last_fired"]
            if basis is None:
                basis = start
            overdue = now - basis
            if overdue >= fail_n * interval:
                failed.append(label)
            elif overdue >= warn_n * interval:
                starved.append(label)
        if failed:
            return HealthStatus("stream_starvation", FAIL, (
                ("starved", ",".join(failed + starved)),
            ))
        if starved:
            return HealthStatus("stream_starvation", WARN, (
                ("starved", ",".join(starved)),
            ))
        return HealthStatus("stream_starvation", OK, (
            ("streams", len(snapshot.get("streams", {}))),
        ))
