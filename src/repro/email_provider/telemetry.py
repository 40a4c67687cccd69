"""Login telemetry: the provider's successful-login records.

The provider discloses **successful logins only** — timestamp, remote
IP and access method — in sporadic dumps (Section 4.2).  Records expire
after a retention window; the paper lost March 20 – June 1, 2015 to
exactly this (Figure 2's shaded gap), which :class:`LoginTelemetry`
reproduces when dumps are collected too far apart.

Storage is columnar (struct-of-arrays): parallel account-row/``time``/
``ip``/``method`` columns instead of one :class:`LoginEvent` object
per login, 13 bytes an event (int32 row, uint32 time and IP, one
method byte).  Under the heavy-traffic login front-end the log holds
the *whole* provider's successes — millions of benign logins per
sim-day around a handful of honey-account events — and three
operations must stay cheap at that scale:

- **append** — :meth:`record_rows` bulk-extends the columns with one
  bounds check per batch (the per-event :meth:`record_row` remains for
  the scalar path);
- **dump extraction** — timestamps are recorded in order, so
  :meth:`collect_dump` binary-searches the window instead of scanning
  the entire log, then materializes :class:`LoginEvent` objects only
  for the rows inside the *disclosure scope* (Section 4.2: the
  provider reports on the accounts Tripwire asked about, marked by the
  account table's ``monitored`` column — the needle sifted from the
  haystack).  Local parts are formatted only here and in the
  ground-truth export, never on the append path;
- **retention pruning** — :meth:`prune_exported` drops a front slice
  of the columns via the same binary search.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.email_provider.accounts import AccountTable
from repro.net.ipaddr import IPv4Address
from repro.obs import NO_OP
from repro.util.timeutil import DAY, SimInstant


class LoginMethod(enum.Enum):
    """Access protocol used for a successful login."""

    IMAP = "IMAP"
    POP3 = "POP3"
    WEBMAIL = "WEB"
    SMTP = "SMTP"
    ACTIVESYNC = "ACTIVESYNC"


#: Column encoding of :class:`LoginMethod` (definition order).  Batch
#: producers ship method *codes*; the scalar path maps through these.
METHOD_ORDER: tuple[LoginMethod, ...] = tuple(LoginMethod)
METHOD_CODES: dict[LoginMethod, int] = {m: i for i, m in enumerate(METHOD_ORDER)}


def narrow(values, dtype):
    """``values`` as ``dtype``, raising OverflowError where one does not fit.

    ``astype`` and fancy-index stores wrap silently, so every batch
    column narrowed into a 32-bit login log goes through here.
    """
    if values.size:
        info = np.iinfo(dtype)
        if values.min() < info.min or values.max() > info.max:
            raise OverflowError(f"a login value does not fit {np.dtype(dtype)}")
    return values.astype(dtype, copy=False)


@dataclass(frozen=True)
class LoginEvent:
    """One successful login to a provider account."""

    local_part: str
    time: SimInstant
    ip: IPv4Address
    method: LoginMethod

    def anonymized(self) -> tuple[str, SimInstant, str, str]:
        """The released-data granularity (§7.4): day, /24, method."""
        day = self.time - (self.time % DAY)
        return (self.local_part, day, str(self.ip.slash24()), self.method.value)


class LoginTelemetry:
    """Append-only columnar login log with bounded retention.

    Records are account *rows* of ``accounts`` (the provider's
    :class:`~repro.email_provider.accounts.AccountTable`); a log built
    without one keeps a private table that :meth:`record` fills by
    name.  Batch runs keep every event for ground-truth comparison.  A
    continuously-operating daemon cannot — two sim-years of logins is
    unbounded ballast, and with benign traffic the log grows by
    millions of rows per sim-day — so :meth:`prune_exported` drops
    events that both fell out of the retention window *and* were
    covered by a past dump, exactly the records a real provider would
    have expired.  Pruning never changes what any future dump returns.
    """

    def __init__(
        self,
        retention_days: int = 60,
        obs=NO_OP,
        accounts: AccountTable | None = None,
    ):
        if retention_days < 1:
            raise ValueError("retention must be at least one day")
        self.retention_days = retention_days
        self._obs = obs
        self._log = obs.get_logger("provider.telemetry")
        self._accounts = accounts if accounts is not None else AccountTable()
        self._rows = array("i")
        self._times = array("I")
        self._ips = array("I")
        self._methods = bytearray()
        self._last_collected: SimInstant | None = None
        self._lost_windows: list[tuple[SimInstant, SimInstant]] = []
        self.pruned_count = 0
        self._last_recorded: SimInstant | None = None

    # -- append side -------------------------------------------------------

    def record(self, event: LoginEvent) -> None:
        """Record one successful login by local part.

        The convenience for a log kept on its own: a local part its
        table does not know becomes a new monitored row.
        """
        accounts = self._accounts
        row = accounts.row_of(event.local_part)
        if row is None:
            row = accounts.add(event.local_part, "", "", event.time)
        self.record_row(row, event.time, event.ip.value, METHOD_CODES[event.method])

    def record_row(self, row: int, time: SimInstant, ip: int, method_code: int) -> None:
        """Record one successful login of account ``row`` (in time order).

        An instant or IP outside 32 bits raises OverflowError before any
        column grows.
        """
        if self._last_recorded is not None and time < self._last_recorded:
            raise ValueError("login events must be recorded in time order")
        if (time | ip) >> 32:
            raise OverflowError(f"login at {time} from {ip} does not fit 32 bits")
        self._rows.append(row)
        self._times.append(time)
        self._ips.append(ip)
        self._methods.append(method_code)
        self._last_recorded = time
        self._obs.count("telemetry.logins_recorded")

    def record_rows(self, rows, time: SimInstant, ips, method_codes) -> int:
        """Bulk-record one batch window's successes, all stamped ``time``.

        The batch engine's append path: one ordering check and one
        counter bump for the whole batch instead of per event.  Columns
        must be parallel numpy integer arrays: rows, IPs and uint8
        positions into :data:`METHOD_ORDER`.  They are narrowed to the
        log's widths before any column grows; a row at or past 2**31,
        or an instant or IP at or past 2**32, raises OverflowError.
        """
        n = len(rows)
        if not n:
            return 0
        if len(ips) != n or len(method_codes) != n:
            raise ValueError("batch columns must be parallel")
        if self._last_recorded is not None and time < self._last_recorded:
            raise ValueError("login events must be recorded in time order")
        rows = narrow(rows, np.int32)
        ips = narrow(ips, np.uint32)
        times = array("I", [time]) * n
        self._rows.frombytes(rows.tobytes())
        self._times.extend(times)
        self._ips.frombytes(ips.tobytes())
        self._methods.extend(method_codes.astype(np.uint8, copy=False).tobytes())
        self._last_recorded = time
        self._obs.count("telemetry.logins_recorded", n)
        return n

    # -- dump side ---------------------------------------------------------

    def _retained_since(self, now: SimInstant) -> SimInstant:
        return now - self.retention_days * DAY

    def _event(self, i: int) -> LoginEvent:
        return LoginEvent(
            self._accounts.local_of(self._rows[i]), self._times[i],
            IPv4Address(self._ips[i]), METHOD_ORDER[self._methods[i]],
        )

    def collect_dump(self, now: SimInstant) -> list[LoginEvent]:
        """Export retained in-scope events not included in a previous dump.

        If the previous collection was more than ``retention_days`` ago,
        the uncovered interval is *lost* — recorded in
        :meth:`lost_windows` and absent from every future dump.  Only
        rows in the disclosure scope (``monitored``) are materialized;
        the benign population's logins stay the provider's business.
        """
        with self._obs.span("telemetry.collect_dump"):
            times = self._times
            horizon = self._retained_since(now)
            since = self._last_collected if self._last_collected is not None else 0
            if since < horizon:
                if bisect_right(times, since) < bisect_right(times, horizon):
                    self._lost_windows.append((since, horizon))
                    self._obs.count("telemetry.windows_lost")
                    self._log.info(
                        "retention window lost", since=since, horizon=horizon
                    )
                since = horizon
            start = bisect_right(times, since)
            stop = bisect_right(times, now)
            dump = [self._event(i) for i in self._monitored_positions(start, stop)]
            self._last_collected = now
            self._obs.count("telemetry.dumps_collected")
            self._obs.count("telemetry.events_exported", len(dump))
        return dump

    def _monitored_positions(self, start: int, stop: int) -> list[int]:
        """Log positions in ``[start, stop)`` whose row is monitored."""
        if start >= stop:
            return []
        rows = np.frombuffer(self._rows, dtype=np.int32)[start:stop]
        monitored = np.frombuffer(self._accounts.monitored, dtype=np.uint8)
        return (np.flatnonzero(monitored[rows]) + start).tolist()

    def lost_windows(self) -> list[tuple[SimInstant, SimInstant]]:
        """Intervals whose events expired before any dump covered them."""
        return list(self._lost_windows)

    def prune_exported(self, now: SimInstant) -> int:
        """Drop events past retention that a previous dump already covered.

        The continuous-operation memory bound: events are removable
        once no future :meth:`collect_dump` can return them — they are
        older than the retention horizon *and* at or before the last
        collection watermark (uncollected expired events stay until the
        next dump notices the lost window).  Returns how many events
        were dropped; :attr:`pruned_count` accumulates across calls.
        """
        if self._last_collected is None:
            return 0
        cutoff = min(self._retained_since(now), self._last_collected)
        dropped = bisect_right(self._times, cutoff)
        if dropped:
            del self._rows[:dropped]
            del self._times[:dropped]
            del self._ips[:dropped]
            del self._methods[:dropped]
            self.pruned_count += dropped
            self._obs.count("telemetry.events_pruned", dropped)
        return dropped

    @property
    def retained_count(self) -> int:
        """Events currently held in memory (all accounts)."""
        return len(self._times)

    def columns(self) -> tuple[array, array, array, bytearray]:
        """The raw retained columns (rows, times, ips, methods).

        Equality checks at heavy-traffic scale compare these directly —
        two telemetry logs are identical iff their columns are — without
        materializing millions of :class:`LoginEvent` objects.
        """
        return (self._rows, self._times, self._ips, self._methods)

    def all_events_ground_truth(self) -> list[LoginEvent]:
        """Every event ever recorded — simulation ground truth only.

        The measurement side must never read this; it exists so tests
        and analyses can compare what Tripwire saw against what
        actually happened (e.g. logins inside the retention gap).
        Under :meth:`prune_exported` (service mode) the ground truth is
        truncated to what is still retained — :attr:`pruned_count`
        says how much history was dropped.
        """
        return [self._event(i) for i in range(len(self._times))]
