"""Continuous-operation service mode: the campaign as a daemon.

The paper's deployment ran for roughly two years as a managed service
— staggered registrations, periodic re-login probes, sporadic
telemetry dumps with a retention gap — where the batch reproduction
ran everything once and exited.  This package is the long-running
shape:

- :mod:`repro.service.scheduler` — epoch windows on the sim clock and
  the staggered registration-wave slices;
- :mod:`repro.service.lifecycle` — recurring re-login probes,
  incremental telemetry-dump ingestion and account lifecycle churn
  (bind/freeze/reset) as cancellable :class:`~repro.sim.events.EventQueue`
  entries;
- :mod:`repro.service.checkpoint` — epoch checkpoints as world-store
  segments (one packed shard result per CRC-checked page), written
  atomically so a kill mid-write cannot corrupt, and rejected with
  :class:`CheckpointError` when damaged;
- :mod:`repro.service.daemon` — the :class:`CampaignDaemon` driving it
  all: one :class:`~repro.core.runner.CampaignRunner` dispatch per
  epoch over a persistent warm worker pool, graceful SIGTERM stop,
  and deterministic resume: a daemon killed at any epoch boundary and
  restarted from its checkpoint replays to a journal byte-identical
  to the uninterrupted run, for any worker count.
"""

from repro.service.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.daemon import CampaignDaemon, EpochReport, ServiceRunResult
from repro.service.lifecycle import AccountLifecycle, LifecycleStats
from repro.service.scheduler import EpochScheduler, ServiceConfig

__all__ = [
    "AccountLifecycle",
    "CampaignDaemon",
    "Checkpoint",
    "CheckpointError",
    "EpochReport",
    "EpochScheduler",
    "LifecycleStats",
    "ServiceConfig",
    "ServiceRunResult",
    "load_checkpoint",
    "save_checkpoint",
]
