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

How it holds that contract at speed: a batch is split into **clean**
events and **rare** events.  Clean means boring — the account exists
and is active, the row has no throttle entry and appears exactly once
in the batch, and then either the password matches and the row is not
hot in the suspicion machinery and nowhere near the suspicion
threshold (a **clean success**), or the password mismatches (a **clean
failure** — failures never touch the IP machinery, so the hot/near
conditions don't apply).  Clean events cannot draw from the RNG and
touch disjoint rows from every rare event, so they commit as
whole-column operations: numpy gathers classify them; clean successes
land one bulk evidence-log append, one whole-column compare against
the first-seen-IP column and one scatter bump of the cached distinct
counters; clean failures land one bulk insert of fresh
first-failure throttle entries.  Everything else — throttled or
locked rows, non-active accounts, hot or near-threshold successes,
rows hit more than once in the window — is routed, in event order,
through :meth:`EmailProvider._attempt_row`: the *same* per-row
decision core the scalar path runs, so the subtle cases have exactly
one implementation.

The membership probes (throttled rows, hot rows) reuse sorted key
arrays cached against the provider's key-set revision counters
(``_throttle_rev``/``_hot_rev``): windows that change no key set —
the common case — probe without rebuilding, and the engine's own
bulk throttle insert merges into the cached array instead of
invalidating it.  Duplicate detection runs in reusable scratch
buffers (copy → in-place sort → adjacent compare) rather than
allocating an ``np.unique`` workspace per window.

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

from repro.email_provider.provider import NO_IP
from repro.email_provider.telemetry import METHOD_CODES, METHOD_ORDER, LoginMethod
from repro.net.ipaddr import IPv4Address
from repro.util.timeutil import SimInstant

#: Batches smaller than this skip the vectorized path: numpy's fixed
#: per-operation overhead loses to the plain loop on tiny batches (the
#: service's single-event attacker/probe bridges in particular).
VECTOR_MIN_EVENTS = 32

#: Shared empty sorted-key array (the membership caches' rest state).
_EMPTY_KEYS = np.empty(0, np.int64)


def _in_sorted(sorted_keys, values):
    """Boolean membership of ``values`` in a sorted int64 key array.

    ``searchsorted`` beats ``np.isin`` here: the key sets (throttled
    rows, hot rows) are tiny next to the batch, and ``np.isin``'s
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
    throttle map, evidence log, cached counters and RNG stream are the
    provider's, so scalar and batched logins interleave freely against
    the same account table.

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
        "_throttle_keys",
        "_throttle_rev",
        "_hot_keys",
        "_hot_rev",
        "_sort_buf",
        "_eq_buf",
    )

    def __init__(self, provider):
        self._provider = provider
        #: Batch windows authenticated through this engine.
        self.windows = 0
        #: Events committed by the whole-column clean path (successes
        #: plus clean failures).
        self.vector_committed = 0
        #: The clean-failure subset of ``vector_committed``.
        self.vector_failed = 0
        #: Events replayed through ``_attempt_row`` inside a
        #: vectorized window (the rare mask routed them there).
        self.scalar_replayed = 0
        #: Events that took the serial path because the window never
        #: vectorized (too small, or a key no account resolves).
        self.fallback_events = 0
        # Sorted-key caches for the membership probes, valid while the
        # provider's matching revision counter is unchanged.
        self._throttle_keys = None
        self._throttle_rev = -1
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

    def _throttle_sorted_keys(self):
        """The throttle key set as a sorted array, cached per revision."""
        provider = self._provider
        rev = provider._throttle_rev
        if self._throttle_rev != rev:
            throttles = provider._throttle
            if throttles:
                self._throttle_keys = np.sort(
                    np.fromiter(throttles.keys(), np.int64, len(throttles))
                )
            else:
                self._throttle_keys = _EMPTY_KEYS
            self._throttle_rev = rev
        return self._throttle_keys

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
        """Columnar fast path: bulk-commit clean events, loop the rest.

        Correctness hinges on two facts the masks establish up front:
        clean events each own their row exclusively within the batch
        (the duplicate mask routes shared rows to the serial path), so
        no rare event can observe or disturb a clean row's state; and
        clean successes sit strictly below the suspicion threshold even
        after their one new IP, so no clean event can draw from the
        RNG (clean failures never touch the IP machinery at all).
        Rare events run through ``_attempt_row`` in event order,
        which preserves the draw sequence and every throttle/lockout
        interleaving exactly as the scalar path would produce them.
        """
        provider = self._provider
        table = provider._table
        n = len(rows_np)
        ips_np = batch.ips
        # Transient views over the provider's row-indexed columns.
        # They must all be dropped before anything can resize the
        # underlying buffers (provisioning between batches).
        states_np = np.frombuffer(table.states, dtype=np.uint8)
        distinct_np = np.frombuffer(provider._ip_distinct, dtype=np.uint32)
        head_np = np.frombuffer(provider._ip_head, dtype=np.int64)

        # Classification, all against batch-start state: gathers over
        # the columns plus membership probes of the sparse dicts.
        # Conditions that disqualify *any* event from the clean paths.
        blocked = states_np[rows_np] != 0
        rev_at_probe = provider._throttle_rev
        if provider._throttle:
            blocked |= _in_sorted(self._throttle_sorted_keys(), rows_np)
        else:
            self._throttle_keys = _EMPTY_KEYS
            self._throttle_rev = rev_at_probe
        dup_mask = self._duplicate_mask(rows_np, n)
        if dup_mask is not None:
            blocked |= dup_mask
        # Successes additionally must stay out of the RNG-drawing
        # review: not hot, and (since a clean event adds at most one
        # distinct IP) not one step below the suspicion threshold.
        succ_blocked = blocked
        if provider._ip_hot:
            succ_blocked = succ_blocked | _in_sorted(
                self._hot_sorted_keys(), rows_np
            )
        near = distinct_np[rows_np] >= provider.SUSPICION_DISTINCT_IPS - 1
        succ_blocked = succ_blocked | near

        clean_succ = pw_ok & ~succ_blocked
        if provider.BRUTE_FORCE_LIMIT > 1:
            clean_fail = ~pw_ok & ~blocked
            rare = ~(clean_succ | clean_fail)
        else:  # a single failure locks: route every failure rare
            clean_fail = None
            rare = ~clean_succ

        results_np = np.zeros(n, dtype=np.uint8)
        rare_idx = np.nonzero(rare)[0]
        self.scalar_replayed += int(rare_idx.size)
        if rare_idx.size:
            attempt_row = provider._attempt_row
            for i, row, ok, ip_int in zip(
                rare_idx.tolist(),
                rows_np[rare_idx].tolist(),
                pw_ok[rare_idx].tolist(),
                ips_np[rare_idx].tolist(),
            ):
                results_np[i] = attempt_row(row, ok, ip_int, now)

        if clean_fail is not None and clean_fail.any():
            self._commit_clean_failures(
                rows_np, clean_fail, results_np, now, rev_at_probe
            )

        clean_idx = np.nonzero(clean_succ)[0]
        m = clean_idx.size
        self.vector_committed += int(m)
        if m:
            c_rows = rows_np[clean_idx]
            c_ips = ips_np[clean_idx]
            # Evidence-log bulk append: one window, one extend per
            # column, chain threading as a gather + scatter (safe
            # because clean rows are unique within the batch).
            base = len(provider._log_times)
            provider._log_prev.frombytes(head_np[c_rows].tobytes())
            head_np[c_rows] = np.arange(base, base + m, dtype=np.int64)
            provider._log_times.frombytes(np.full(m, now, dtype=np.int64).tobytes())
            provider._log_ips.frombytes(c_ips.tobytes())
            provider._log_rows.frombytes(c_rows.tobytes())
            # Distinct bound: compare each event's source against the
            # row's first-seen IP — whole-column compares and scatters
            # (safe: clean rows are unique within the batch).
            first_np = np.frombuffer(provider._ip_first, dtype=np.uint64)
            firsts = first_np[c_rows]
            unset = firsts == NO_IP
            if unset.any():
                first_np[c_rows[unset]] = c_ips[unset]
            bump_rows = c_rows[unset | (c_ips != firsts)]
            if bump_rows.size:
                distinct_np[bump_rows] += 1

        return bytearray(results_np.tobytes())

    def _commit_clean_failures(
        self, rows_np, clean_fail, results_np, now, rev_at_probe
    ) -> None:
        """Bulk-commit the window's clean failures.

        Each clean-fail row is active, un-throttled and unique in the
        batch, so the scalar path would have produced exactly one
        fresh first-failure throttle entry per row (``(1, window
        start, 0)`` — below ``BRUTE_FORCE_LIMIT``, so no lockout) and
        returned BAD_PASSWORD.  Throttle entries are immutable, so one
        shared tuple serves every row and one dict bulk-insert per
        window lands all of them; the key-set revision advances once,
        and when no rare event inserted a throttle entry this window
        the sorted key cache absorbs the new rows by merge instead of
        a rebuild.
        """
        provider = self._provider
        fail_idx = np.nonzero(clean_fail)[0]
        count = int(fail_idx.size)
        self.vector_committed += count
        self.vector_failed += count
        results_np[fail_idx] = 1  # BAD_PASSWORD
        f_rows = rows_np[fail_idx]
        # _note_failure resets the window start only when the stale
        # window test passes — replicate its exact arithmetic.
        window_start = now if now - 0 > provider.BRUTE_FORCE_WINDOW else 0
        provider._throttle.update(
            dict.fromkeys(f_rows.tolist(), (1, window_start, 0))
        )
        prev_rev = provider._throttle_rev
        provider._throttle_rev = prev_rev + 1
        if prev_rev == rev_at_probe and self._throttle_keys is not None:
            new_keys = np.sort(f_rows)
            keys = self._throttle_keys
            self._throttle_keys = np.insert(
                keys, np.searchsorted(keys, new_keys), new_keys
            )
            self._throttle_rev = prev_rev + 1

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
