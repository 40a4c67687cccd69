"""Compact shard wire codec: the flat form of a shard result.

A :class:`~repro.core.runner.ShardResult` shipped back through a
process pool is pickled with default semantics: every
``AttemptRecord`` drags its nested frozen dataclasses
(``Identity`` → ``PostalAddress``, ``CrawlOutcome``) through the
generic reduce protocol, repeating field names and class references,
and the same ``Identity`` is re-walked for every attempt that used it.
This module flattens the result into a *wire tuple*: typed tuples over
two intern tables — one for strings, one for identities (keyed by
``identity_id``).  The tuple has two carriers:

- **The process pool** ships a single ``pickle.dumps`` of it
  (:func:`encode_shard_bytes`), so the bytes-on-wire per shard drop
  and the pool only ever pickles a ``bytes`` blob.  This stays pickle
  on purpose: the pool pickles whatever it ships anyway, the bytes
  never leave the run's own processes, and pickle is far cheaper
  here — on a ``serve_traffic`` shard (58–72 KB, 2-core host) ``pack``
  took 7.8–9.2 ms against ``pickle.dumps``' 0.6–0.7 ms, and ``unpack``
  17–21 ms against ``pickle.loads``' 0.6 ms.
- **Service checkpoints** (:mod:`repro.service.checkpoint`) store it
  packed by :mod:`repro.store.packing` in segment rows, so nothing at
  rest is ever unpickled.

The codec is **lossless by construction**: ``decode(encode(r))``
rebuilds an equal ``ShardResult`` field for field (enums round-trip
through their ``.value``; histogram lists come back as lists after
``pack``, which returns sequences as tuples), which the hypothesis
property tests in ``tests/perf/test_wire.py`` pin for both carriers.
It carries a schema number so a mixed-version pool fails loudly
instead of mis-decoding.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import TYPE_CHECKING

from repro.core.campaign import AttemptRecord, CampaignStats
from repro.crawler.outcomes import CrawlOutcome, TerminationCode
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity, PostalAddress
from repro.obs.journal import ShardObservation
from repro.obs.tracing import SpanRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.core.runner import ShardResult

#: Bump on any change to the flat layout below; decoders check it.
WIRE_SCHEMA = 1


class Interner:
    """Assigns dense indices to values, first-seen order.

    Shared with :mod:`repro.store.rows` — the persistent world store
    uses the same interned-row-tuple shape per on-disk page that this
    codec uses per shard blob.
    """

    __slots__ = ("table", "index")

    def __init__(self):
        self.table: list = []
        self.index: dict = {}

    def add(self, value) -> int:
        got = self.index.get(value)
        if got is not None:
            return got
        position = len(self.table)
        self.table.append(value)
        self.index[value] = position
        return position


def encode_identity_row(identity: Identity, strings: Interner) -> tuple:
    s = strings.add
    a = identity.address
    return (
        identity.identity_id,
        s(identity.first_name),
        s(identity.last_name),
        s(identity.gender),
        identity.date_of_birth,
        s(a.street),
        s(a.city),
        s(a.state),
        s(a.zip_code),
        s(identity.phone),
        s(identity.employer),
        s(identity.email_local),
        s(identity.email_domain),
        s(identity.password),
        s(identity.password_class.value),
    )


def decode_identity_row(row: tuple, strings: list) -> Identity:
    return Identity(
        identity_id=row[0],
        first_name=strings[row[1]],
        last_name=strings[row[2]],
        gender=strings[row[3]],
        date_of_birth=row[4],
        address=PostalAddress(
            street=strings[row[5]],
            city=strings[row[6]],
            state=strings[row[7]],
            zip_code=strings[row[8]],
        ),
        phone=strings[row[9]],
        employer=strings[row[10]],
        email_local=strings[row[11]],
        email_domain=strings[row[12]],
        password=strings[row[13]],
        password_class=PasswordClass(strings[row[14]]),
    )


def encode_outcome_row(outcome: CrawlOutcome, strings: Interner) -> tuple:
    s = strings.add
    return (
        s(outcome.site_host),
        s(outcome.url),
        s(outcome.code.value),
        s(outcome.detail),
        outcome.exposed_email,
        outcome.exposed_password,
        outcome.pages_loaded,
        outcome.started_at,
        outcome.finished_at,
        tuple(s(name) for name in outcome.filled_fields),
    )


def decode_outcome_row(row: tuple, strings: list) -> CrawlOutcome:
    return CrawlOutcome(
        site_host=strings[row[0]],
        url=strings[row[1]],
        code=TerminationCode(strings[row[2]]),
        detail=strings[row[3]],
        exposed_email=row[4],
        exposed_password=row[5],
        pages_loaded=row[6],
        started_at=row[7],
        finished_at=row[8],
        filled_fields=tuple(strings[i] for i in row[9]),
    )


def _encode_attempt(
    attempt: AttemptRecord, strings: Interner, identities: Interner
) -> tuple:
    s = strings.add
    return (
        s(attempt.site_host),
        attempt.rank,
        s(attempt.url),
        identities.add(attempt.identity),
        s(attempt.password_class.value),
        encode_outcome_row(attempt.outcome, strings),
        attempt.manual,
        attempt.registered_at,
    )


def _decode_attempt(row: tuple, strings: list, identities: list) -> AttemptRecord:
    return AttemptRecord(
        site_host=strings[row[0]],
        rank=row[1],
        url=strings[row[2]],
        identity=identities[row[3]],
        password_class=PasswordClass(strings[row[4]]),
        outcome=decode_outcome_row(row[5], strings),
        manual=row[6],
        registered_at=row[7],
    )


def _counter_tuple(record) -> tuple:
    """A counter dataclass as its field-value tuple (all ints)."""
    return tuple(
        getattr(record, f.name) for f in dataclasses.fields(record)
    )


def _encode_observation(obs: ShardObservation, strings: Interner) -> tuple:
    s = strings.add
    return (
        obs.shard_index,
        obs.counters,
        obs.gauges,
        obs.histograms,
        [
            (sp.index, sp.parent, s(sp.name), sp.start, sp.end, sp.attrs)
            for sp in obs.spans
        ],
        [
            (ev.time, s(ev.component), s(ev.message), ev.attrs)
            for ev in obs.events
        ],
    )


def _decode_observation(row: tuple, strings: list) -> ShardObservation:
    from repro.obs import EventRecord

    return ShardObservation(
        shard_index=row[0],
        counters=row[1],
        gauges=row[2],
        # pack() hands sequences back as tuples; a histogram snapshot
        # holds lists, so an at-rest round trip restores them.
        histograms={
            name: {
                **histogram,
                "bounds": list(histogram["bounds"]),
                "buckets": list(histogram["buckets"]),
            }
            for name, histogram in row[3].items()
        },
        spans=[
            SpanRecord(sp[0], sp[1], strings[sp[2]], sp[3], sp[4], sp[5])
            for sp in row[4]
        ],
        events=[
            EventRecord(ev[0], strings[ev[1]], strings[ev[2]], ev[3])
            for ev in row[5]
        ],
    )


def encode_shard_result(result: "ShardResult") -> tuple:
    """Flatten a shard result into the schema-versioned wire tuple."""
    strings = Interner()
    identities = Interner()
    site_attempts = [
        (
            position,
            [_encode_attempt(a, strings, identities) for a in attempts],
        )
        for position, attempts in result.site_attempts
    ]
    # Identity rows are encoded after the attempts so the intern table
    # is complete; rows land in first-reference order.
    identity_rows = [encode_identity_row(i, strings) for i in identities.table]
    observation = (
        _encode_observation(result.observation, strings)
        if result.observation is not None
        else None
    )
    return (
        WIRE_SCHEMA,
        result.shard_index,
        strings.table,
        identity_rows,
        site_attempts,
        _counter_tuple(result.stats),
        _counter_tuple(result.telemetry),
        _counter_tuple(result.fault_report),
        observation,
    )


def decode_shard_result(wire: tuple) -> "ShardResult":
    """Rebuild a :class:`ShardResult` from its wire tuple."""
    from repro.core.runner import ShardResult, ShardTelemetry

    if not wire or wire[0] != WIRE_SCHEMA:
        raise ValueError(
            f"unsupported wire schema {wire[0] if wire else None!r} "
            f"(codec supports {WIRE_SCHEMA})"
        )
    (_, shard_index, strings, identity_rows, site_attempts,
     stats, telemetry, fault_report, observation) = wire
    identity_table = [decode_identity_row(row, strings) for row in identity_rows]
    return ShardResult(
        shard_index=shard_index,
        site_attempts=[
            (
                position,
                [_decode_attempt(row, strings, identity_table) for row in rows],
            )
            for position, rows in site_attempts
        ],
        stats=CampaignStats(*stats),
        telemetry=ShardTelemetry(*telemetry),
        fault_report=FaultReport(*fault_report),
        observation=(
            _decode_observation(observation, strings)
            if observation is not None
            else None
        ),
    )


def encode_shard_bytes(result: "ShardResult") -> bytes:
    """A shard result as one compact bytes blob.

    ``len()`` of the return value is the exact bytes-on-wire for the
    shard: the pool afterwards pickles only a ``bytes`` object, whose
    framing overhead is constant.
    """
    return pickle.dumps(encode_shard_result(result), protocol=pickle.HIGHEST_PROTOCOL)


def decode_shard_bytes(data: bytes) -> "ShardResult":
    """Inverse of :func:`encode_shard_bytes`."""
    return decode_shard_result(pickle.loads(data))


def pickled_size(result: "ShardResult") -> int:
    """Reference size: default pickling of the full object graph."""
    return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
