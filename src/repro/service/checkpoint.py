"""Epoch checkpoints: durable resume state for the campaign daemon.

A checkpoint holds exactly the state a resumed daemon cannot cheaply
recompute: the per-shard crawl results of every completed epoch.
Everything else — the service world, the lifecycle streams, the
monitor — is a pure function of the
:class:`~repro.service.scheduler.ServiceConfig` and is rebuilt by
replaying the epoch loop, with checkpointed epochs' crawl dispatch
swapped for the stored results.  Because the row codec round-trips
:class:`~repro.core.runner.ShardResult` exactly, the resumed run's
journal is byte-identical to an uninterrupted run's.

The file is one world-store segment (:mod:`repro.store.segment`), the
repo's single at-rest format:

- its table name, ``checkpoint.v2/<config digest>``, names the layout
  version and the sim config the checkpoint belongs to;
- each shard result is one row, ``(epoch, position, wire tuple)`` in
  epoch/position order, where the wire tuple is
  :func:`~repro.perf.wire.encode_shard_result`'s flat form packed by
  :mod:`repro.store.packing` — loading never unpickles;
- one row per page, so every shard result carries its own CRC32 beside
  the footer's, the magic and the end marker.

:class:`~repro.store.segment.SegmentWriter` publishes through a
``.tmp`` sibling and :func:`os.replace`, so a kill mid checkpoint
leaves the previous checkpoint intact rather than a torn file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.runner import ShardResult
from repro.perf.wire import decode_shard_result, encode_shard_result
from repro.service.scheduler import ServiceConfig
from repro.store.segment import SegmentReader, SegmentWriter, StoreError

#: Bump on incompatible layout changes (it is part of the table name).
CHECKPOINT_SCHEMA = 2


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, damaged or mismatched."""


def config_digest(config: ServiceConfig) -> str:
    """Digest of the sim-shaping config a checkpoint belongs to.

    Execution-shaping knobs (workers, executor, warm caches,
    checkpoint cadence) are excluded on purpose: a resume may change
    them freely.  Changing any sim-shaping knob makes stored shard
    results meaningless, so :func:`load_checkpoint` refuses.
    """
    canonical = json.dumps(config.sim_meta(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def checkpoint_table(digest: str) -> str:
    """The segment table name of a checkpoint taken under ``digest``."""
    return f"checkpoint.v{CHECKPOINT_SCHEMA}/{digest}"


@dataclass
class Checkpoint:
    """In-memory form: completed epochs' shard results, in order."""

    config_digest: str
    epochs_completed: int = 0
    #: ``epoch_results[e]`` is the list of that epoch's ShardResults in
    #: shard order, exactly as the runner's merger expects them.
    epoch_results: list[list[ShardResult]] = field(default_factory=list)

    def record_epoch(self, results: list[ShardResult]) -> None:
        """Append one completed epoch's shard results."""
        self.epoch_results.append(list(results))
        self.epochs_completed = len(self.epoch_results)


def _encode_row(row: tuple, _strings) -> tuple:
    epoch, position, result = row
    return (epoch, position, encode_shard_result(result))


def _decode_row(row: tuple, _strings) -> tuple:
    epoch, position, wire = row
    return (epoch, position, decode_shard_result(wire))


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> int:
    """Write atomically (temp + rename); returns bytes written."""
    path = Path(path)
    table = checkpoint_table(checkpoint.config_digest)
    with SegmentWriter(path, table, _encode_row, rows_per_page=1) as writer:
        for epoch, results in enumerate(checkpoint.epoch_results):
            for position, result in enumerate(results):
                writer.append((epoch, position, result))
    return path.stat().st_size


def load_checkpoint(path: str | Path, config: ServiceConfig) -> Checkpoint:
    """Read and validate a checkpoint against the resuming config.

    Raises :class:`CheckpointError` for a file that is not a segment,
    is torn or fails any CRC, holds a row that is not a shard row,
    belongs to another checkpoint version or sim config, or holds its
    shard rows out of epoch/position order.
    """
    path = Path(path)
    digest = config_digest(config)
    table = checkpoint_table(digest)
    try:
        with SegmentReader(path, _decode_row) as reader:
            if reader.table != table:
                raise CheckpointError(
                    f"{path}: segment table {reader.table!r} is not {table!r} "
                    "(another checkpoint version, or a different sim config)"
                )
            rows = list(reader.iter_rows())
    except StoreError as exc:
        raise CheckpointError(str(exc)) from exc
    epoch_results: list[list[ShardResult]] = []
    for epoch, position, result in rows:
        if (epoch, position) == (len(epoch_results), 0):
            epoch_results.append([result])
        elif epoch_results and (epoch, position) == (
            len(epoch_results) - 1, len(epoch_results[-1])
        ):
            epoch_results[-1].append(result)
        else:
            raise CheckpointError(
                f"{path}: shard row (epoch {epoch!r}, position {position!r}) "
                "out of order"
            )
    return Checkpoint(digest, len(epoch_results), epoch_results)
