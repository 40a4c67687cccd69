"""Vectorized batch authentication over the columnar account table.

The heavy-traffic login front-end: one :class:`LoginBatch` carries a
whole window of login attempts as parallel columns and
:meth:`BatchLoginEngine.attempt_logins` authenticates them against the
provider's :class:`~repro.email_provider.accounts.AccountTable`
columns, ending in a single bulk telemetry append.  Generated traffic
and stuffing waves name benign accounts by **row** and carry a mask of
the events that claim the row's own derived password, so no password
or local-part string exists on their path; the few keyed batches
(probes, control logins, attacker bridges) carry local parts and
password strings.  Either way the engine first computes one
password-match column — from the mask plus the table's override map,
or from string comparison — and from there on both shapes take one
path.

The engine is *decision-for-decision identical* to
:meth:`EmailProvider.attempt_login <repro.email_provider.provider.
EmailProvider.attempt_login>` run once per event at the batch's window
instant: the same results in the same order, the same throttle and
IP-window state transitions, the same RNG draws in the same order, the
same telemetry columns, the same aggregated obs counters — so a run's
journal bytes cannot reveal which engine authenticated its logins.

How it holds that contract at speed: every event is decided against
the batch-start state of its row, read by gathers over the row-indexed
columns (account state, the throttle columns, the cached distinct-IP
counter).  An event whose row appears exactly once in the batch
touches no other event's row, so:

- a locked row answers THROTTLED and a non-active account its state's
  code, straight from the gathers;
- a failure on an active row runs the throttle arithmetic as whole
  columns — fresh or continued window, the count, a lock reached at
  ``BRUTE_FORCE_LIMIT`` — and lands as one scatter per column;
- a success on an active row clears any failure count, lands one bulk
  evidence-log append, one whole-column compare against the
  first-seen-IP column and one scatter bump of the cached distinct
  counters — provided it cannot draw from the RNG: the row is not hot
  in the suspicion machinery and not one distinct IP below the
  suspicion threshold.

Two kinds of event are **rare** and are routed, in event order,
through :meth:`EmailProvider._attempt_row` — the *same* per-row
decision core the scalar path runs: events on rows hit more than once
in the window (a row's state moves between its events), and successes
that may draw from the RNG (the draw order is the event order).

The hot-row membership probe reuses a sorted key array cached against
the provider's hot-set revision counter (``_hot_rev``), so windows that
change no hot row — the common case — probe without rebuilding it.
Duplicate detection runs in reusable scratch buffers (copy → in-place
sort → adjacent compare) rather than allocating an ``np.unique``
workspace per window.

Windows below :data:`VECTOR_MIN_EVENTS`, or with a key no account
resolves, take :meth:`BatchLoginEngine._attempt_serial` instead: every
event through `_attempt_row` in batch order, its claimed password
rebuilt as a string (:meth:`LoginBatch.password`) and compared with
the account's.  That loop is the engine's one scalar oracle — it never
reads the ``own`` mask, so it checks the mask against an independent
implementation; the equivalence tests force it for whole runs and
compare bytes.

Batch windows carry **one** timestamp (the window close) on purpose:
telemetry requires time-ordered appends, and a window's events must
not be stamped earlier than scalar events already recorded by streams
that fired inside the window.
"""

from __future__ import annotations

from operator import eq

import numpy as np

from repro.email_provider.provider import NO_ENTRY, NO_IP, STATE_RESULT_CODES
from repro.email_provider.telemetry import METHOD_CODES, METHOD_ORDER, LoginMethod
from repro.net.ipaddr import IPv4Address
from repro.util.timeutil import SimInstant

#: Batches smaller than this skip the vectorized path: numpy's fixed
#: per-operation overhead loses to the plain loop on tiny batches (the
#: service's single-event attacker/probe bridges in particular).
VECTOR_MIN_EVENTS = 32

#: Shared empty sorted-key array (the hot-row cache's rest state).
_EMPTY_KEYS = np.empty(0, np.int64)

#: Account-state byte -> result code, as a gather table (ACTIVE -> 0).
_STATE_RESULTS = np.array(STATE_RESULT_CODES, dtype=np.uint8)


def _in_sorted(sorted_keys, values):
    """Boolean membership of ``values`` in a sorted int64 key array.

    ``searchsorted`` beats ``np.isin`` here: the key sets (hot rows,
    overridden rows) are tiny next to the batch, and ``np.isin``'s
    sort-based path both concatenate-sorts the full batch and touches
    ``np.ma`` lazily, dragging a module import into the hot loop's
    first call.
    """
    idx = np.searchsorted(sorted_keys, values)
    idx[idx == len(sorted_keys)] = 0  # out-of-range probes can't match
    return sorted_keys[idx] == values


class LoginBatch:
    """One window of login attempts, as parallel columns.

    ``ips`` (uint64, :attr:`IPv4Address.value` integers) and
    ``methods`` (uint8, :data:`~repro.email_provider.telemetry.
    METHOD_CODES`) are numpy columns in both shapes:

    - a **row batch** (the constructor: traffic windows, stuffing
      waves) names benign-block accounts by table row — ``rows``
      (int64) — and carries ``own`` (bool): event *i* claims the row's
      own derived password.  ``claim(row, own)`` rebuilds the password
      string an event claims; only the scalar oracle and rows in the
      table's override map ever call it;
    - a **keyed batch** (:meth:`keyed`, :meth:`single`,
      :meth:`from_attempts`) names accounts by *lowercased* local part
      (``keys``) with ``passwords`` as strings; the engine resolves the
      rows and compares the strings.
    """

    __slots__ = ("rows", "own", "claim", "keys", "passwords", "ips", "methods")

    def __init__(self, rows, own, ips, methods, claim):
        n = len(rows)
        if len(own) != n or len(ips) != n or len(methods) != n:
            raise ValueError("batch columns must be parallel")
        self.rows = rows
        self.own = own
        self.claim = claim
        self.keys = None
        self.passwords = None
        self.ips = ips
        self.methods = methods

    @classmethod
    def keyed(
        cls, keys: list[str], passwords: list[str], ips, methods
    ) -> "LoginBatch":
        """A batch naming its accounts by lowercased local part."""
        n = len(keys)
        if len(passwords) != n or len(ips) != n or len(methods) != n:
            raise ValueError("batch columns must be parallel")
        batch = cls.__new__(cls)
        batch.rows = batch.own = batch.claim = None
        batch.keys = keys
        batch.passwords = passwords
        batch.ips = np.asarray(ips, dtype=np.uint64)
        batch.methods = np.asarray(methods, dtype=np.uint8)
        return batch

    def __len__(self) -> int:
        return len(self.ips)

    def password(self, i: int) -> str:
        """The password event ``i`` claims, as a string."""
        if self.passwords is not None:
            return self.passwords[i]
        return self.claim(int(self.rows[i]), bool(self.own[i]))

    @classmethod
    def from_attempts(
        cls, attempts: list[tuple[str, str, IPv4Address, LoginMethod]]
    ) -> "LoginBatch":
        """Build a batch from (local_part, password, ip, method) tuples."""
        return cls.keyed(
            [a[0].lower() for a in attempts],
            [a[1] for a in attempts],
            [a[2].value for a in attempts],
            [METHOD_CODES[a[3]] for a in attempts],
        )

    @classmethod
    def single(
        cls, local_part: str, password: str, ip: IPv4Address, method: LoginMethod
    ) -> "LoginBatch":
        """A one-event batch (the service streams' scalar bridge)."""
        return cls.keyed(
            [local_part.lower()], [password], [ip.value], [METHOD_CODES[method]]
        )


class BatchReceipt:
    """Per-attempt outcomes of one batch window.

    ``results`` holds one :data:`~repro.email_provider.provider.
    RESULT_ORDER` code per attempt, in batch order; SUCCESS is 0 so
    ``results.count(0)`` is the success count without decoding.
    """

    __slots__ = ("results",)

    def __init__(self, results: bytearray):
        self.results = results

    def __len__(self) -> int:
        return len(self.results)

    def result(self, i: int):
        """The :class:`LoginResult` of attempt ``i``."""
        from repro.email_provider.provider import RESULT_ORDER

        return RESULT_ORDER[self.results[i]]

    @property
    def successes(self) -> int:
        return self.results.count(0)

    def tally(self) -> dict:
        """Result -> count over the whole batch (skips zero rows)."""
        from repro.email_provider.provider import RESULT_ORDER

        counts = {}
        for code, result in enumerate(RESULT_ORDER):
            n = self.results.count(code)
            if n:
                counts[result] = n
        return counts


class BatchLoginEngine:
    """Authenticates :class:`LoginBatch` windows against one provider.

    Holds no state of its own beyond the provider reference — the
    throttle columns, evidence log, cached counters and RNG stream are
    the provider's, so scalar and batched logins interleave freely
    against the same account table.

    The path tallies (``windows``, ``vector_committed``,
    ``scalar_replayed``, ``fallback_events``) are plain attributes, not
    obs counters, on purpose: which path an event takes is an
    execution detail that must never reach journal bytes (the
    scalar-oracle leg of the CLI byte-identity matrix would catch it),
    so the tallies surface only through flight snapshots and live
    report sections.
    """

    __slots__ = (
        "_provider",
        "windows",
        "vector_committed",
        "vector_failed",
        "scalar_replayed",
        "fallback_events",
        "_hot_keys",
        "_hot_rev",
        "_sort_buf",
        "_eq_buf",
    )

    def __init__(self, provider):
        self._provider = provider
        #: Batch windows authenticated through this engine.
        self.windows = 0
        #: Events a vectorized window decided by whole-column
        #: operations (everything it did not replay).
        self.vector_committed = 0
        #: The BAD_PASSWORD subset of ``vector_committed``.
        self.vector_failed = 0
        #: Events replayed through ``_attempt_row`` inside a
        #: vectorized window (the rare mask routed them there).
        self.scalar_replayed = 0
        #: Events that took the serial path because the window never
        #: vectorized (too small, or a key no account resolves).
        self.fallback_events = 0
        # Sorted hot-row keys, valid while the provider's hot-set
        # revision counter is unchanged.
        self._hot_keys = None
        self._hot_rev = -1
        # Reusable scratch for duplicate detection (grown, never shrunk).
        self._sort_buf = None
        self._eq_buf = None

    def stats(self) -> dict:
        """The path tallies as a plain dict (flight snapshots)."""
        return {
            "windows": self.windows,
            "vector_committed": self.vector_committed,
            "vector_failed": self.vector_failed,
            "scalar_replayed": self.scalar_replayed,
            "fallback_events": self.fallback_events,
        }

    def attempt_logins(
        self, batch: LoginBatch, now: SimInstant | None = None
    ) -> BatchReceipt:
        """Authenticate one window; all events occur at instant ``now``.

        ``now`` defaults to the provider clock's current instant (the
        window close).
        """
        provider = self._provider
        if now is None:
            now = provider._clock.now()
        table = provider._table
        n = len(batch)
        if batch.keys is None:
            rows_np = batch.rows
            _check_block(table, rows_np)
            rows = None
        else:
            rows = list(map(table.row_of, batch.keys))
            rows_np = np.fromiter(
                (-1 if row is None else row for row in rows), np.int64, count=n
            )

        self.windows += 1
        if n < VECTOR_MIN_EVENTS or (rows is not None and None in rows):
            self.fallback_events += n
            results = self._attempt_serial(
                rows_np.tolist() if rows is None else rows, batch, now
            )
        else:
            pw_ok = self._match_column(rows, rows_np, batch)
            results = self._attempt_vectorized(rows_np, pw_ok, batch, now)

        self._record_window(rows_np, batch, results, now)
        return BatchReceipt(results)

    def _attempt_serial(self, rows, batch: LoginBatch, now) -> bytearray:
        """The scalar oracle: every event through the shared decision
        core, its claimed password compared as a string."""
        provider = self._provider
        attempt_row = provider._attempt_row
        password_of = provider._table.password_of
        claimed = batch.password
        results = bytearray()
        results_append = results.append
        for i, (row, ip_int) in enumerate(zip(rows, batch.ips.tolist())):
            if row is None:
                results_append(2)  # NO_SUCH_ACCOUNT
            else:
                ok = claimed(i) == password_of(row)
                results_append(attempt_row(row, ok, ip_int, now))
        return results

    def _match_column(self, rows, rows_np, batch: LoginBatch):
        """Per-event password match, as one bool column.

        Row batches read the ``own`` mask; an event on a row whose
        password was overridden compares its claimed string with the
        override instead.  Keyed batches compare strings throughout.
        """
        table = self._provider._table
        if rows is not None:
            return np.fromiter(
                map(eq, batch.passwords, map(table.password_of, rows)),
                np.bool_,
                count=len(rows),
            )
        pw_ok = np.array(batch.own, dtype=np.bool_)
        overrides = table.overrides
        if overrides:
            keys = np.sort(np.fromiter(overrides, np.int64, len(overrides)))
            for i in np.flatnonzero(_in_sorted(keys, rows_np)).tolist():
                pw_ok[i] = batch.password(i) == overrides[int(rows_np[i])]
        return pw_ok

    def _hot_sorted_keys(self):
        """The hot-row key set as a sorted array, cached per revision."""
        provider = self._provider
        rev = provider._hot_rev
        if self._hot_rev != rev:
            hot = provider._ip_hot
            if hot:
                self._hot_keys = np.sort(
                    np.fromiter(hot.keys(), np.int64, len(hot))
                )
            else:
                self._hot_keys = _EMPTY_KEYS
            self._hot_rev = rev
        return self._hot_keys

    def _duplicate_mask(self, rows_np, n):
        """Mask of events whose row appears more than once in the batch.

        Runs in reusable scratch (copy, in-place sort, adjacent
        compare) so the steady state allocates nothing proportional
        to the window; returns None when every row is unique.
        """
        sort_buf = self._sort_buf
        if sort_buf is None or sort_buf.size < n:
            size = max(n, 1024 if sort_buf is None else 2 * sort_buf.size)
            sort_buf = self._sort_buf = np.empty(size, np.int64)
            self._eq_buf = np.empty(size, np.bool_)
        sorted_rows = sort_buf[:n]
        np.copyto(sorted_rows, rows_np)
        sorted_rows.sort()
        adjacent = np.equal(
            sorted_rows[1:], sorted_rows[:-1], out=self._eq_buf[: n - 1]
        )
        if not adjacent.any():
            return None
        # Every duplicated value appears in the boundary slice (maybe
        # more than once — harmless to the searchsorted probe).
        return _in_sorted(sorted_rows[1:][adjacent], rows_np)

    def _attempt_vectorized(self, rows_np, pw_ok, batch: LoginBatch, now) -> bytearray:
        """Columnar fast path: decide unique rows by columns, replay the rest.

        Correctness hinges on two facts the masks establish up front:
        every vector event owns its row exclusively within the batch
        (the duplicate mask routes shared rows to the replay), so no
        other event can observe or disturb its row's state; and vector
        successes sit strictly below the suspicion threshold even after
        their one new IP, so no vector event can draw from the RNG
        (failures never touch the IP machinery at all).  Rare events
        run through ``_attempt_row`` in event order, which preserves
        the draw sequence and every throttle/lockout interleaving
        exactly as the scalar path would produce them.
        """
        provider = self._provider
        # Transient views over the provider's row-indexed columns.
        # They must all be dropped before anything can resize the
        # underlying buffers (provisioning between batches).
        states = np.frombuffer(provider._table.states, dtype=np.uint8)[rows_np]
        locked = np.frombuffer(provider._locked_until, dtype=np.uint32)[rows_np] > now
        results_np = _STATE_RESULTS[states]
        results_np[locked] = 3  # THROTTLED
        # Rows that decide on the password: unlocked and ACTIVE.
        active = ~locked
        active &= states == 0

        # Successes that may draw from the RNG: hot rows, and (since a
        # success adds at most one distinct IP) rows one step below the
        # suspicion threshold.
        distinct_np = np.frombuffer(provider._ip_distinct, dtype=np.uint32)
        drawing = distinct_np[rows_np] >= provider.SUSPICION_DISTINCT_IPS - 1
        if provider._ip_hot:
            drawing |= _in_sorted(self._hot_sorted_keys(), rows_np)
        rare = np.logical_and(drawing, pw_ok, out=drawing)
        rare &= active
        dup_mask = self._duplicate_mask(rows_np, len(rows_np))
        if dup_mask is not None:
            rare |= dup_mask
        vector = active & ~rare

        rare_idx = np.flatnonzero(rare)
        self.scalar_replayed += int(rare_idx.size)
        self.vector_committed += len(rows_np) - int(rare_idx.size)
        if rare_idx.size:
            attempt_row = provider._attempt_row
            for i, row, ok, ip_int in zip(
                rare_idx.tolist(),
                rows_np[rare_idx].tolist(),
                pw_ok[rare_idx].tolist(),
                batch.ips[rare_idx].tolist(),
            ):
                results_np[i] = attempt_row(row, ok, ip_int, now)

        fail_idx = np.flatnonzero(vector & ~pw_ok)
        if fail_idx.size:
            results_np[fail_idx] = 1  # BAD_PASSWORD
            self._commit_failures(rows_np[fail_idx], now)
        succ_idx = np.flatnonzero(np.logical_and(vector, pw_ok, out=vector))
        if succ_idx.size:
            self._commit_successes(
                rows_np[succ_idx], batch.ips[succ_idx], distinct_np, now
            )
        return bytearray(results_np.tobytes())

    def _commit_failures(self, f_rows, now) -> None:
        """Commit failures on unique, unlocked, active rows as columns.

        :meth:`EmailProvider._note_failure`, whole-column: a row
        without an entry counts from ``(0, 0, 0)``; a window expired
        strictly past ``BRUTE_FORCE_WINDOW`` restarts at ``now``; the
        limit-th failure locks the row until ``now +
        BRUTE_FORCE_LOCKOUT`` and clears the count.  Instants at or past
        2**32 raise OverflowError rather than wrap, as the scalar
        columns do.
        """
        provider = self._provider
        limit = provider.BRUTE_FORCE_LIMIT
        if limit > NO_ENTRY:
            raise ValueError(f"BRUTE_FORCE_LIMIT may not exceed {NO_ENTRY}")
        self.vector_failed += int(f_rows.size)
        fails_np = np.frombuffer(provider._fail_count, dtype=np.uint8)
        starts_np = np.frombuffer(provider._window_start, dtype=np.uint32)
        failures = fails_np[f_rows]
        failures[failures == NO_ENTRY] = 0
        window_start = starts_np[f_rows]
        fresh = window_start < now - provider.BRUTE_FORCE_WINDOW
        if fresh.any():
            window_start[fresh] = now
            failures[fresh] = 0
        failures += 1
        lock = failures >= limit
        if lock.any():
            until_np = np.frombuffer(provider._locked_until, dtype=np.uint32)
            until_np[f_rows[lock]] = now + provider.BRUTE_FORCE_LOCKOUT
            failures[lock] = 0
        fails_np[f_rows] = failures
        starts_np[f_rows] = window_start

    def _commit_successes(self, c_rows, c_ips, distinct_np, now) -> None:
        """Commit successes on unique, active rows that cannot draw.

        Each clears its row's failure count (if it holds an entry) and
        appends one evidence-log entry; the cached distinct bound bumps
        when the source differs from the row's first-seen IP, which a
        never-seen row adopts.  Gathers and scatters are safe because
        the rows are unique within the batch.
        """
        provider = self._provider
        m = c_rows.size
        fails_np = np.frombuffer(provider._fail_count, dtype=np.uint8)
        held = c_rows[fails_np[c_rows] != NO_ENTRY]
        if held.size:
            fails_np[held] = 0
        # Evidence-log bulk append: one window, one extend per column,
        # chain threading as a gather + scatter.
        head_np = np.frombuffer(provider._ip_head, dtype=np.int64)
        base = len(provider._log_times)
        provider._log_prev.frombytes(head_np[c_rows].tobytes())
        head_np[c_rows] = np.arange(base, base + m, dtype=np.int64)
        provider._log_times.frombytes(np.full(m, now, dtype=np.int64).tobytes())
        provider._log_ips.frombytes(c_ips.tobytes())
        provider._log_rows.frombytes(c_rows.tobytes())
        first_np = np.frombuffer(provider._ip_first, dtype=np.uint64)
        firsts = first_np[c_rows]
        unset = firsts == NO_IP
        if unset.any():
            first_np[c_rows[unset]] = c_ips[unset]
        bump_rows = c_rows[unset | (c_ips != firsts)]
        if bump_rows.size:
            distinct_np[bump_rows] += 1

    def _record_window(self, rows_np, batch: LoginBatch, results: bytearray, now) -> None:
        """One bulk telemetry append for the window's successes.

        Success columns are gathered from the results mask; column
        order is batch order, which is exactly the order the scalar
        path would have recorded the same events in.
        """
        ok_idx = np.flatnonzero(np.frombuffer(results, dtype=np.uint8) == 0)
        self._provider.telemetry.record_rows(
            rows_np[ok_idx], now, batch.ips[ok_idx], batch.methods[ok_idx]
        )


def _check_block(table, rows_np) -> None:
    """Row batches may only name rows of the table's benign block."""
    if not rows_np.size:
        return
    first = table.benign_first
    if (
        first is None
        or rows_np.min() < first
        or rows_np.max() >= first + table.benign_count
    ):
        raise ValueError("row batches must address the benign block")


def _pin_literal_codes() -> None:
    """The hot paths write literal codes; fail import if they drift."""
    from repro.email_provider.provider import RESULT_CODES, LoginResult

    assert RESULT_CODES[LoginResult.SUCCESS] == 0
    assert RESULT_CODES[LoginResult.BAD_PASSWORD] == 1
    assert RESULT_CODES[LoginResult.NO_SUCH_ACCOUNT] == 2
    assert RESULT_CODES[LoginResult.THROTTLED] == 3
    assert len(METHOD_ORDER) == len(LoginMethod)


_pin_literal_codes()
