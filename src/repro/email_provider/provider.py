"""The email provider service.

Implements the provider-facing half of Section 4.2: account
provisioning with collision and naming-policy checks, mail delivery
with forwarding, a login endpoint with brute-force throttling, abuse
handling (spam → deactivation, suspicious access → freeze or forced
reset) and the sporadic login-telemetry dumps Tripwire consumes.

The provider never learns which of its accounts were registered at
websites; nothing in this class refers to sites.

Scale notes (the heavy-traffic front-end)
-----------------------------------------

Accounts live in a columnar :class:`~repro.email_provider.accounts.
AccountTable` so the provider can hold the benign population Tripwire's
accounts hide among — millions of mailboxes, not 27.  Per-login state
is compact and incremental:

- brute-force throttling keeps three row-indexed columns, 9 bytes a
  row: a uint8 failure count whose :data:`NO_ENTRY` code marks the
  quiet majority that holds no throttle entry, and two uint32
  instants (window start, lockout end) that are 0 for those rows, so
  a batch engine reads and writes whole windows of rows as gathers
  and scatters;
- the suspicious-IP review splits rows into **cold** and **hot**.
  Cold rows (virtually everyone) append ``(time, ip, row)`` to one
  shared columnar evidence log threaded by a per-row chain index, and
  bump a cached distinct-IP counter whenever the source differs from
  the row's first-seen IP — O(1) per login with no map probes at all,
  no per-row containers, no per-login pruning (the old design rebuilt
  the whole window per login).  The cached counter is an upper bound
  on the windowed distinct count (a typical account logs in from its
  one usual address, so the bound stays at 1), so while it sits below
  ``SUSPICION_DISTINCT_IPS`` no review can fire and the bound is all
  the review needs;
- the moment a row's bound reaches the threshold it is **promoted**:
  its chain is materialized into an exact ``(ring, counts)`` window
  (pruned of expired entries), removed from the shared log, and
  maintained incrementally from then on — amortized O(1) per login.
  Promotion cannot change a decision: the bound only ever
  overestimates, and the review consults the exact count;
- :meth:`evict_expired` drops spent throttle entries, prunes hot
  windows, demotes fully-expired hot rows and compacts expired
  entries out of the shared log, so a multi-year ``repro serve`` run
  holds state proportional to *recently active* accounts only.

The state that grows is per login, not per account, so every per-login
column is as narrow as its values: Unix-second instants and IPv4
addresses fit uint32, row and log positions int32.  A cold row's
successful login costs 29 bytes: 16 in the evidence log (time, IP,
row, chain link) and 13 in the telemetry log (row, time, IP, a method
byte).  A benign row's login state costs 25 bytes, 59 with its account
columns.  A value that does not fit — an instant or IP at or past
2**32, a row or log position at or past 2**31 — raises
``OverflowError`` on the scalar and the batch path alike; nothing is
stored wrapped.

:meth:`attempt_login` is the scalar path; the vectorized batch path
over the same columns lives in :mod:`repro.email_provider.batch` and
is decision-for-decision identical to it.
"""

from __future__ import annotations

import enum
from array import array
from collections import deque

import numpy as np

from repro.email_provider.accounts import (
    AccountState,
    AccountTable,
    NamingPolicy,
    ProviderAccount,
    ProvisioningResult,
    STATE_CODES,
    grown,
)
from repro.email_provider.telemetry import (
    METHOD_CODES,
    LoginEvent,
    LoginMethod,
    LoginTelemetry,
)
from repro.mail.messages import EmailMessage
from repro.net.ipaddr import IPv4Address
from repro.obs import NO_OP
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree
from repro.util.timeutil import DAY, HOUR, SimInstant


class LoginResult(enum.Enum):
    """Outcome of a login attempt."""

    SUCCESS = "success"
    BAD_PASSWORD = "bad_password"
    NO_SUCH_ACCOUNT = "no_such_account"
    THROTTLED = "throttled"  # brute-force protection kicked in
    ACCOUNT_FROZEN = "account_frozen"
    ACCOUNT_DEACTIVATED = "account_deactivated"
    RESET_REQUIRED = "reset_required"


#: Wire encoding of :class:`LoginResult` (definition order) — the batch
#: engine's receipts carry these codes; SUCCESS must stay 0.
RESULT_ORDER: tuple[LoginResult, ...] = tuple(LoginResult)
RESULT_CODES: dict[LoginResult, int] = {r: i for i, r in enumerate(RESULT_ORDER)}

#: Account-state byte -> login-result code for non-ACTIVE states
#: (FROZEN -> ACCOUNT_FROZEN, DEACTIVATED -> ..., RESET_FORCED -> ...).
STATE_RESULT_CODES: tuple[int, ...] = (
    0,  # ACTIVE: unused (the hot paths branch on state != 0 first)
    RESULT_CODES[LoginResult.ACCOUNT_FROZEN],
    RESULT_CODES[LoginResult.ACCOUNT_DEACTIVATED],
    RESULT_CODES[LoginResult.RESET_REQUIRED],
)

#: "No first-seen IP yet" sentinel — outside the 32-bit IPv4 space, so
#: it can never compare equal to a real source address.
NO_IP = 1 << 40

#: Failure-count code of a row that holds no throttle entry (never
#: failed, or evicted).  Stored counts stay below ``BRUTE_FORCE_LIMIT``,
#: which therefore may not exceed this code.
NO_ENTRY = 0xFF

#: The row-indexed login-state columns and the value a new row starts
#: with.
_LOGIN_STATE_FILL = (
    ("_ip_head", -1),
    ("_ip_distinct", 0),
    ("_ip_first", NO_IP),
    ("_fail_count", NO_ENTRY),
    ("_window_start", 0),
    ("_locked_until", 0),
)


class EmailProvider:
    """A major email provider with hundreds of millions of accounts.

    Tripwire accounts are treated "equivalently to their hundreds of
    millions of other accounts" (Section 4.4); all protective machinery
    here applies uniformly — including to the benign population
    registered through :meth:`register_benign_accounts`.
    """

    #: Failed attempts inside the window before throttling engages.
    BRUTE_FORCE_LIMIT = 10
    BRUTE_FORCE_WINDOW = 1 * HOUR
    BRUTE_FORCE_LOCKOUT = 6 * HOUR

    #: Spam messages sent before the abuse team deactivates an account.
    SPAM_DEACTIVATION_THRESHOLD = 40

    #: Distinct source IPs within the suspicion window that may trigger
    #: a freeze review.  Calibrated so roughly a quarter to a third of
    #: actively-abused accounts end up frozen (Table 3: 8 of 27).
    SUSPICION_DISTINCT_IPS = 70
    SUSPICION_WINDOW = 30 * DAY
    FREEZE_PROBABILITY = 0.05
    FORCED_RESET_PROBABILITY = 0.005

    def __init__(
        self,
        domain: str,
        clock: SimClock,
        rng_tree: RngTree,
        naming_policy: NamingPolicy | None = None,
        retention_days: int = 60,
        preexisting_locals: frozenset[str] = frozenset(),
        obs=NO_OP,
    ):
        self.domain = domain.lower()
        self._clock = clock
        self._rng = rng_tree.child("email-provider").rng()
        self._policy = naming_policy or NamingPolicy()
        self._table = AccountTable()
        self._preexisting = {name.lower() for name in preexisting_locals}
        self.telemetry = LoginTelemetry(
            retention_days=retention_days, obs=obs, accounts=self._table
        )
        #: Per-row throttle entry: failures in the current window
        #: (:data:`NO_ENTRY` for rows without an entry), the window's
        #: start and the lockout's end.  Rows without an entry hold
        #: ``(NO_ENTRY, 0, 0)``, which the failure arithmetic reads as
        #: ``(0, 0, 0)``.  The instants are uint32: writing one at or
        #: past 2**32 raises instead of wrapping.
        self._fail_count = array("B")
        self._window_start = array("I")
        self._locked_until = array("I")
        #: Hot-row key-set revision counter: bumped whenever rows are
        #: added to or removed from ``_ip_hot`` (value mutation doesn't
        #: count).  The batch engine keys its sorted membership-probe
        #: array on it so an unchanged key set is probed without a
        #: rebuild.
        self._hot_rev = 0
        #: Shared columnar login-evidence log for **cold** rows: one
        #: append per successful login, parallel columns, chained per
        #: row through ``_log_prev``/``_ip_head`` so a single row's
        #: history can be walked without scanning the log.  Entries
        #: whose row column is -1 are tombstones left by promotion and
        #: reclaimed by :meth:`evict_expired`.  16 bytes an entry:
        #: uint32 time and IP, int32 row and previous position.
        self._log_times = array("I")
        self._log_ips = array("I")
        self._log_rows = array("i")
        self._log_prev = array("i")
        #: Per-row head of the log chain (-1 = no cold history).
        self._ip_head = array("i")
        #: Per-row cached distinct-IP counter: an upper bound on the
        #: windowed distinct count for cold rows (never pruned down
        #: until eviction), the *exact* pruned count for hot rows.
        self._ip_distinct = array("I")
        #: Per-row first-seen IP (:data:`NO_IP` until the first
        #: successful login; 64-bit to hold that sentinel).  A cold
        #: login bumps the row's bound iff its source differs from
        #: this — the typical single-address account never bumps past
        #: 1, and diverse-source abuse bumps on nearly every event,
        #: which is all the bound must capture.
        self._ip_first = array("Q")
        #: Hot rows only: row -> [ring, counts] where ``ring`` is a
        #: deque of packed ``(time << 32) | ip`` ints and ``counts``
        #: the exact ip -> multiplicity map of the live window.
        self._ip_hot: dict[int, list] = {}
        #: Lifetime counters for the incremental window machinery
        #: (plain attributes, deliberately not obs metrics: the batch
        #: and scalar engines may split the work differently without
        #: moving a journal byte).
        self.ip_window_pruned = 0
        self.ip_window_promotions = 0
        self.throttle_evictions = 0
        self.ip_window_evictions = 0
        self._forwarding_hop = None  # type: ignore[assignment]
        self._batch_engine = None

    # -- provisioning --------------------------------------------------------

    def account_exists(self, local_part: str) -> bool:
        """Collision probe: is the name taken (by us or organically)?"""
        return (
            self._table.row_of(local_part) is not None
            or local_part.lower() in self._preexisting
        )

    def provision(
        self,
        local_part: str,
        display_name: str,
        password: str,
        forwarding_address: str | None = None,
    ) -> ProvisioningResult:
        """Create one account, enforcing collisions and naming policy."""
        violation = self._policy.violation(local_part)
        if violation is not None:
            return ProvisioningResult(local_part, created=False, reason=violation)
        if self.account_exists(local_part):
            return ProvisioningResult(local_part, created=False, reason="name already taken")
        self._table.add(
            local_part,
            display_name,
            password,
            created_at=self._clock.now(),
            forwarding_address=forwarding_address,
            monitored=True,
        )
        self._grow_login_state(1)
        return ProvisioningResult(local_part, created=True)

    def register_benign_accounts(self, count: int) -> int:
        """Register the organic (benign) account population as one block.

        These mailboxes are the haystack: full members of the provider
        — they collide with provisioning, log in, receive mail, get
        throttled and reviewed like anyone else — but they are outside
        the telemetry disclosure scope, so dumps never mention them.
        User ``i`` is row ``first + i``, named ``bg%08d`` and keyed by
        its derived password (:mod:`repro.email_provider.accounts`); the
        block stores no strings.  Registering twice, or over a
        provisioned name in the block's namespace, raises.  Returns the
        row index of the first registered account.
        """
        first_row = self._table.register_block(count, self._clock.now())
        self._grow_login_state(count)
        return first_row

    def _grow_login_state(self, count: int) -> None:
        """Extend the row-indexed login-state columns for new rows.

        A provisioned account appends one row.  The benign block,
        registered once, rebuilds each column at its new length by
        :func:`~repro.email_provider.accounts.grown`, writing the new
        memory once; extending would write it twice (a filled
        temporary, then the copy), which at 10^6 rows costs about 10 ms
        more.
        """
        for name, fill in _LOGIN_STATE_FILL:
            column = getattr(self, name)
            if count == 1:
                column.append(fill)
            else:
                setattr(self, name, grown(column, fill, len(column) + count))

    def account(self, local_part: str) -> ProviderAccount | None:
        """Fetch a live account view (None if absent)."""
        row = self._table.row_of(local_part)
        return None if row is None else self._table.view(row)

    def account_count(self) -> int:
        """Number of provisioned (Tripwire-requested) accounts."""
        return self._table.monitored_count

    def total_account_count(self) -> int:
        """Every mailbox at the provider, benign population included."""
        return len(self._table)

    # -- live telemetry ------------------------------------------------------

    def login_state_sizes(self, now: SimInstant | None = None) -> dict:
        """Login-state table sizes (flight snapshots).

        All sim-derived: the throttle entries, hot-row set and
        evidence log are shaped by which logins occurred, never by
        which engine or executor ran them, so these sizes are safe
        inside executor-invariant snapshot bytes.  The throttle counts
        are masks over the columns (rows without an entry hold a zero
        lockout, so they are never locked).
        """
        if now is None:
            now = self._clock.now()
        fails = np.frombuffer(self._fail_count, dtype=np.uint8)
        locked_until = np.frombuffer(self._locked_until, dtype=np.uint32)
        return {
            "accounts": len(self._table),
            "throttle_rows": int(np.count_nonzero(fails != NO_ENTRY)),
            "locked_rows": int(np.count_nonzero(locked_until > now)),
            "hot_rows": len(self._ip_hot),
            "evidence_log": len(self._log_times),
            "ip_window_pruned": self.ip_window_pruned,
            "ip_window_promotions": self.ip_window_promotions,
            "throttle_evictions": self.throttle_evictions,
            "ip_window_evictions": self.ip_window_evictions,
        }

    def login_state_bytes(self) -> dict:
        """Bytes the login-state columns hold (live reports only).

        Length × itemsize of the evidence log, the telemetry log and
        the row-indexed login-state columns; hot rows' windows are
        Python objects and are not counted.  The bytes depend on the
        column widths, an implementation detail, so unlike
        :meth:`login_state_sizes` they never enter a flight snapshot.
        """
        return {
            "evidence_log_bytes": _column_bytes(
                (self._log_times, self._log_ips, self._log_rows, self._log_prev)
            ),
            "telemetry_bytes": _column_bytes(self.telemetry.columns()),
            "row_state_bytes": _column_bytes(
                getattr(self, name) for name, _ in _LOGIN_STATE_FILL
            ),
        }

    def batch_engine_stats(self) -> dict:
        """The batch engine's path tallies (all-zero before first use)."""
        if self._batch_engine is None:
            return {
                "windows": 0,
                "vector_committed": 0,
                "vector_failed": 0,
                "scalar_replayed": 0,
                "fallback_events": 0,
            }
        return self._batch_engine.stats()

    # -- mail ----------------------------------------------------------------

    def set_forwarding_hop(self, hop) -> None:
        """Attach the delivery callable for forwarded messages.

        ``hop`` is called with each forwarded :class:`EmailMessage`
        (re-addressed to the account's forwarding address).
        """
        self._forwarding_hop = hop

    def deliver(self, message: EmailMessage) -> bool:
        """Deliver a message addressed to ``local@domain``.

        Returns False when the account does not exist or is closed.
        Active accounts with forwarding pass a re-addressed copy to the
        forwarding hop.
        """
        local, _, domain = message.recipient.partition("@")
        if domain.lower() != self.domain:
            return False
        table = self._table
        row = table.row_of(local)
        if row is None or table.states[row] == _DEACTIVATED:
            return False
        table.received_counts[row] += 1
        forward_to = table.forwarding_of(row)
        if forward_to and self._forwarding_hop is not None:
            self._forwarding_hop(message.with_recipient(forward_to))
        return True

    def deliver_background(self, rows) -> int:
        """Organic mail volume: bulk-deliver to benign rows by index.

        The traffic generator's mail half — ``rows`` is a window's
        int64 mail-row column, and counts land on the same
        ``received_message_count`` column :meth:`deliver` uses, without
        materializing an :class:`EmailMessage` per benign message.
        Deactivated rows bounce; a row drawn twice receives twice.
        Returns how many were delivered.
        """
        table = self._table
        rows = np.asarray(rows, dtype=np.int64)
        states = np.frombuffer(table.states, dtype=np.uint8)
        live = rows[states[rows] != _DEACTIVATED]
        # A uint64 increment: a Python int takes add.at's slow casting path.
        np.add.at(
            np.frombuffer(table.received_counts, dtype=np.uint64), live, np.uint64(1)
        )
        return int(live.size)

    # -- login ---------------------------------------------------------------

    def attempt_login(
        self,
        local_part: str,
        password: str,
        ip: IPv4Address,
        method: LoginMethod,
    ) -> LoginResult:
        """Authenticate; on success, record telemetry and run abuse review.

        Failed attempts are *not* recorded in telemetry — the provider
        only disclosed successes (Section 4.2).

        This is the *reference* login path: it resolves the account
        and runs :meth:`_attempt_row` — the per-row decision core every
        engine shares — then records telemetry for the success.  The
        vectorized engine (:meth:`attempt_logins`) makes these exact
        decisions over whole batches, routing repeated rows and
        RNG-drawing successes back through the same
        :meth:`_attempt_row`, and the equivalence tests hold the paths
        in lockstep.
        """
        now = self._clock.now()
        table = self._table
        row = table.row_of(local_part)
        if row is None:
            return LoginResult.NO_SUCH_ACCOUNT
        code = self._attempt_row(row, password == table.password_of(row), ip.value, now)
        if code == 0:
            self.telemetry.record_row(row, now, ip.value, METHOD_CODES[method])
        return RESULT_ORDER[code]

    def attempt_logins(self, batch, now: SimInstant | None = None):
        """Authenticate one batch window (see :mod:`..batch`).

        Lazily builds the vectorized engine on first use; the receipt's
        per-event results are identical to calling
        :meth:`attempt_login` for each event at the same instant.
        """
        if self._batch_engine is None:
            from repro.email_provider.batch import BatchLoginEngine

            self._batch_engine = BatchLoginEngine(self)
        return self._batch_engine.attempt_logins(batch, now=now)

    def _attempt_row(self, row: int, pw_ok: bool, ip_int: int, now: int) -> int:
        """Authenticate one resolved row; returns a ``RESULT_ORDER`` code.

        ``pw_ok`` says whether the attempt's password matches the
        row's: the scalar paths compare strings, the batch engine
        reads its match column.  The decision core shared verbatim by
        the scalar path, the batch engine's rare-event path and its
        serial scalar oracle — one implementation, so the engines
        cannot drift.  Telemetry is the caller's job (the batch engine
        records a whole window at once).
        """
        if now < self._locked_until[row]:
            return 3  # THROTTLED
        state = self._table.states[row]
        if state:
            return STATE_RESULT_CODES[state]
        if not pw_ok:
            self._note_failure(row, now)
            return 1  # BAD_PASSWORD
        if self._fail_count[row] != NO_ENTRY:
            self._fail_count[row] = 0  # a success clears the count
        self._note_ip(row, now, ip_int)
        self._review_after_login(row, now)
        return 0  # SUCCESS

    def _note_failure(self, row: int, now: int) -> None:
        """Count one failed attempt; the limit-th inside a window locks.

        A window expires strictly *past* ``BRUTE_FORCE_WINDOW``; a row
        without an entry counts from ``(0, 0, 0)``.
        """
        failures = self._fail_count[row]
        if failures == NO_ENTRY:
            failures = 0
        window_start = self._window_start[row]
        if now - window_start > self.BRUTE_FORCE_WINDOW:
            window_start = now
            failures = 0
        failures += 1
        if failures >= self.BRUTE_FORCE_LIMIT:
            self._locked_until[row] = now + self.BRUTE_FORCE_LOCKOUT
            failures = 0
        elif failures == NO_ENTRY:
            raise ValueError(f"BRUTE_FORCE_LIMIT may not exceed {NO_ENTRY}")
        self._fail_count[row] = failures
        self._window_start[row] = window_start

    def _note_ip(self, row: int, now: int, ip_int: int) -> None:
        """Record one successful login's source IP for the row.

        Hot rows (ever-suspicious) maintain their exact pruned window
        incrementally — amortized O(1), each entry appended once and
        popped at most once.  Cold rows are strictly O(1): one append
        to the shared evidence log plus a first-IP comparison (every
        event from somewhere other than the row's first-seen address
        bumps the bound); no pruning happens until the cached bound
        first reaches the suspicion threshold (promotion) or eviction
        compacts the log.  An instant or IP outside 32 bits raises
        before anything is written: the log columns would refuse it,
        and a hot row's packed ring would let the IP bleed into the
        time.
        """
        if (now | ip_int) >> 32:
            raise OverflowError(f"login at {now} from {ip_int} does not fit 32 bits")
        hot = self._ip_hot.get(row)
        if hot is not None:
            window, counts = hot
            window.append((now << 32) | ip_int)
            counts[ip_int] = counts.get(ip_int, 0) + 1
            packed_cutoff = (now - self.SUSPICION_WINDOW) << 32
            pruned = 0
            while window[0] < packed_cutoff:
                old_ip = window.popleft() & 0xFFFFFFFF
                remaining = counts[old_ip] - 1
                if remaining:
                    counts[old_ip] = remaining
                else:
                    del counts[old_ip]
                pruned += 1
            if pruned:
                self.ip_window_pruned += pruned
            self._ip_distinct[row] = len(counts)
            return
        prev = self._ip_head[row]
        # int32: a log position at or past 2**31 raises before the log grows.
        self._ip_head[row] = len(self._log_times)
        self._log_prev.append(prev)
        self._log_times.append(now)
        self._log_ips.append(ip_int)
        self._log_rows.append(row)
        first = self._ip_first[row]
        if first != ip_int:
            if first == NO_IP:
                self._ip_first[row] = ip_int
            bound = self._ip_distinct[row] + 1
            self._ip_distinct[row] = bound
            if bound >= self.SUSPICION_DISTINCT_IPS:
                self._promote_row(row, now)

    def _promote_row(self, row: int, now: int) -> None:
        """Materialize a cold row's exact window; the row becomes hot.

        Walks the row's chain through the shared log, builds the
        pruned ``(ring, counts)`` window and tombstones the chain
        entries (row column set to -1) for the next compaction.  The
        cached counter becomes exact from here on.
        """
        times = self._log_times
        ips = self._log_ips
        rows_col = self._log_rows
        prev = self._log_prev
        cutoff = now - self.SUSPICION_WINDOW
        chain = []
        i = self._ip_head[row]
        while i >= 0:
            chain.append(i)
            i = prev[i]
        window: deque = deque()
        counts: dict[int, int] = {}
        stale = 0
        for i in reversed(chain):  # chain is newest-first; replay oldest-first
            ip_i = ips[i]
            rows_col[i] = -1
            t = times[i]
            if t >= cutoff:
                window.append((t << 32) | ip_i)
                counts[ip_i] = counts.get(ip_i, 0) + 1
            else:
                stale += 1
        self._ip_head[row] = -1
        self._ip_hot[row] = [window, counts]
        self._hot_rev += 1
        self._ip_distinct[row] = len(counts)
        self.ip_window_pruned += stale
        self.ip_window_promotions += 1

    def _review_after_login(self, row: int, now: int) -> None:
        """Abuse review run after each successful login.

        Reads only the cached distinct-IP counter: below the threshold
        no review can fire (the counter never underestimates), and at
        or above it the row is necessarily hot — promotion happens the
        instant the bound reaches the threshold — so the counter is
        the exact pruned distinct count.
        """
        if self._ip_distinct[row] < self.SUSPICION_DISTINCT_IPS:
            return
        roll = self._rng.random()
        table = self._table
        if roll < self.FORCED_RESET_PROBABILITY:
            table.states[row] = _RESET_FORCED
            table.state_changed_at[row] = now
            table.password_changes.setdefault(row, []).append(now)
        elif roll < self.FORCED_RESET_PROBABILITY + self.FREEZE_PROBABILITY:
            table.states[row] = _FROZEN
            table.state_changed_at[row] = now

    def evict_expired(self, now: SimInstant | None = None) -> tuple[int, int]:
        """Drop per-login state whose windows have fully expired.

        The batch-window review's memory bound.  A throttle entry is
        removable once its lockout has passed *and* its failure window
        has expired: the next failure would start a fresh window from
        no entry too.  (An entry with no failures but an open window
        still fixes where the next failure's window starts.)  Hot rows
        are pruned and, once every entry has aged out, demoted; the
        shared log is compacted when its oldest entry has expired,
        dropping tombstones and expired entries and recounting the
        cached bounds from what remains.  A row left with no IP entry
        returns to the never-seen state, its first-seen IP cleared.
        Eviction is decision-invariant — evicted state is
        indistinguishable from never-created state — so either login
        engine may run it on any cadence without moving a byte of
        output.  Returns ``(throttle_evicted, window_evicted)`` where
        the second counts demoted hot rows plus expired log entries.
        """
        if now is None:
            now = self._clock.now()
        throttle_evicted = self._evict_throttle(now)
        self.throttle_evictions += throttle_evicted

        cutoff = now - self.SUSPICION_WINDOW
        packed_cutoff = cutoff << 32
        hot = self._ip_hot
        distinct = self._ip_distinct
        first = self._ip_first
        empty = []
        pruned = 0
        for row, (window, counts) in hot.items():
            if not window or window[-1] >= packed_cutoff:
                continue  # newest entry still live: nothing to drop
            while window and window[0] < packed_cutoff:
                old_ip = window.popleft() & 0xFFFFFFFF
                remaining = counts[old_ip] - 1
                if remaining:
                    counts[old_ip] = remaining
                else:
                    del counts[old_ip]
                pruned += 1
            if not window:
                empty.append(row)
        for row in empty:
            del hot[row]
            distinct[row] = 0
            first[row] = NO_IP
        if empty:
            self._hot_rev += 1
        if pruned:
            self.ip_window_pruned += pruned

        window_evicted = len(empty)
        times = self._log_times
        if times and times[0] < cutoff:
            window_evicted += self._compact_log(cutoff)
        self.ip_window_evictions += window_evicted
        return throttle_evicted, window_evicted

    def _evict_throttle(self, now: int) -> int:
        """Reset spent throttle entries to no entry; returns how many.

        One mask over the failure-count column finds the rows holding
        an entry; gathers over those rows pick the spent ones.
        """
        fails = np.frombuffer(self._fail_count, dtype=np.uint8)
        held = np.flatnonzero(fails != NO_ENTRY)
        if not held.size:
            return 0
        starts = np.frombuffer(self._window_start, dtype=np.uint32)
        locked_until = np.frombuffer(self._locked_until, dtype=np.uint32)
        stale = held[
            (locked_until[held] <= now)
            & (starts[held] < now - self.BRUTE_FORCE_WINDOW)
        ]
        fails[stale] = NO_ENTRY
        starts[stale] = 0
        locked_until[stale] = 0
        return int(stale.size)

    def _compact_log(self, cutoff: int) -> int:
        """Compact the shared log in place, without tombstones or expired entries.

        Returns the number of *live* expired entries dropped.  Every
        cold row touched by the log gets its cached bound *recounted*
        from the entries that survive: one credit for the row's
        first-seen IP, plus one per kept entry from anywhere else — the
        rule the incremental bump applies, under which a later login
        from the first-seen IP adds nothing, so the bound stays an
        overestimate of the windowed distinct count.  A row with no
        survivor returns to the never-seen state (no chain, zero bound,
        no first-seen IP).  The columns shrink only once every numpy
        view over them is gone: an ``array`` that exports its buffer
        cannot resize.
        """
        kept, dropped = self._compact_log_columns(cutoff)
        for column in (self._log_times, self._log_ips, self._log_rows, self._log_prev):
            del column[kept:]
        return dropped

    def _compact_log_columns(self, cutoff: int) -> tuple[int, int]:
        """Move the log's survivors to its front and rethread them.

        Survivors (live rows, ``time >= cutoff``) keep their log order;
        each row's chain is rebuilt from a stable sort of the survivors
        by row, and its bound is recounted per row group.  Returns
        ``(survivors, live expired entries)``; the tail past the
        survivors is left for the caller to truncate.  Temporaries are
        dropped as soon as they are spent: the log is at its largest
        when it is compacted, so they set the process's peak memory.
        The views are as narrow as the columns, so are the gathers made
        from them; only the stable order is intp.
        """
        times = np.frombuffer(self._log_times, dtype=np.uint32)
        ips = np.frombuffer(self._log_ips, dtype=np.uint32)
        rows = np.frombuffer(self._log_rows, dtype=np.int32)
        prev = np.frombuffer(self._log_prev, dtype=np.int32)
        head = np.frombuffer(self._ip_head, dtype=np.int32)
        distinct = np.frombuffer(self._ip_distinct, dtype=np.uint32)
        firsts = np.frombuffer(self._ip_first, dtype=np.uint64)
        live = rows >= 0
        fresh = times >= cutoff
        expired = rows[live & ~fresh]
        keep = np.logical_and(live, fresh, out=live)
        del fresh
        kept = int(np.count_nonzero(keep))
        times[:kept] = times[keep]
        ips[:kept] = ips[keep]
        rows[:kept] = rows[keep]
        del keep
        ips, rows = ips[:kept], rows[:kept]
        # A row that loses entries starts over as never seen; one with
        # survivors keeps its first-seen IP (gathered before the reset,
        # restored after it) and is rewritten below.
        kept_firsts = firsts[rows]
        head[expired] = -1
        distinct[expired] = 0
        firsts[expired] = NO_IP
        dropped = expired.size
        del expired
        if not kept:
            return 0, dropped
        firsts[rows] = kept_firsts
        away = ips != kept_firsts
        del kept_firsts
        order = np.argsort(rows, kind="stable")
        by_row = rows[order]
        starts = np.flatnonzero(
            np.concatenate(([True], by_row[1:] != by_row[:-1]))
        )
        group_rows = by_row[starts]
        del by_row
        # Within a row group the survivors sit in log order: each links
        # to its predecessor, the group's first to nothing, its last is
        # the row's head.
        prev[order[1:]] = order[:-1]
        prev[order[starts]] = -1
        head[group_rows] = order[np.append(starts[1:], kept) - 1]
        away = away[order]
        del order
        distinct[group_rows] = np.add.reduceat(away, starts, dtype=np.uint32) + 1
        return kept, dropped

    def login_window_snapshot(self) -> dict[int, dict]:
        """Canonical per-row view of the IP-window state (tests/bench).

        The shared log's physical layout is engine-dependent (the
        batch engine appends a window's clean events together), so
        equivalence checks compare this canonical form: per-row entry
        sequences in login order, plus hotness and the cached counter.
        """
        out: dict[int, dict] = {}
        times = self._log_times
        ips = self._log_ips
        prev = self._log_prev
        for row in {r for r in self._log_rows if r >= 0}:
            chain = []
            i = self._ip_head[row]
            while i >= 0:
                chain.append(i)
                i = prev[i]
            out[row] = {
                "hot": False,
                "entries": [(times[i], ips[i]) for i in reversed(chain)],
                "distinct": self._ip_distinct[row],
            }
        for row, (window, counts) in self._ip_hot.items():
            out[row] = {
                "hot": True,
                "entries": [(p >> 32, p & 0xFFFFFFFF) for p in window],
                "counts": dict(counts),
                "distinct": self._ip_distinct[row],
            }
        return out

    def throttle_snapshot(self) -> dict[int, tuple[int, int, int]]:
        """Canonical view of the throttle entries (tests/bench): row ->
        ``(failures, window_start, locked_until)`` for every row that
        holds an entry."""
        fails = self._fail_count
        starts = self._window_start
        locked_until = self._locked_until
        return {
            row: (fails[row], starts[row], locked_until[row])
            for row in np.flatnonzero(
                np.frombuffer(fails, dtype=np.uint8) != NO_ENTRY
            ).tolist()
        }

    # -- authenticated account actions (used by attackers) -------------------

    def change_password(self, local_part: str, old: str, new: str) -> bool:
        """Change the password; requires the current one."""
        account = self.account(local_part)
        if account is None or not account.can_login or account.password != old:
            return False
        account.password = new
        account.password_changes.append(self._clock.now())
        return True

    def remove_forwarding(self, local_part: str, password: str) -> bool:
        """Drop the forwarding address; requires the password."""
        account = self.account(local_part)
        if account is None or not account.can_login or account.password != password:
            return False
        account.forwarding_address = None
        return True

    def send_spam_from(self, local_part: str, password: str, count: int) -> int:
        """Send ``count`` spam messages through the account.

        Returns how many were sent before the abuse system deactivated
        the account (possibly all of them).
        """
        account = self.account(local_part)
        if account is None or not account.can_login or account.password != password:
            return 0
        sent = 0
        for _ in range(count):
            account.sent_spam_count += 1
            sent += 1
            if account.sent_spam_count >= self.SPAM_DEACTIVATION_THRESHOLD:
                account.state = AccountState.DEACTIVATED
                account.state_changed_at = self._clock.now()
                break
        return sent

    # -- support-desk account actions (used by the service operator) ----------

    def support_freeze(self, local_part: str) -> bool:
        """Freeze an active account pending review (support-desk path).

        The service daemon's account-lifecycle churn uses this: a
        long-running deployment sees its accounts frozen over time
        (Table 3: 8 of 27 actively-abused accounts) and the operator
        must notice the probe failures.  Returns False for unknown,
        deactivated or already-frozen accounts.
        """
        account = self.account(local_part)
        if account is None or account.state is not AccountState.ACTIVE:
            return False
        account.state = AccountState.FROZEN
        account.state_changed_at = self._clock.now()
        return True

    def support_reset(self, local_part: str, new_password: str) -> bool:
        """Recover a frozen/reset account through the support desk.

        The operator proves ownership out of band, sets a fresh
        password and the account returns to service — the paper's
        recovery path for accounts the provider locked.  Active
        accounts can also be rotated through it.  Deactivated accounts
        are gone for good.
        """
        account = self.account(local_part)
        if account is None or account.state is AccountState.DEACTIVATED:
            return False
        account.password = new_password
        account.password_changes.append(self._clock.now())
        account.state = AccountState.ACTIVE
        account.state_changed_at = self._clock.now()
        return True

    # -- telemetry export ------------------------------------------------------

    def collect_login_dump(self) -> list[LoginEvent]:
        """Export the sporadic login dump for all accounts (Section 4.2)."""
        return self.telemetry.collect_dump(self._clock.now())


def _column_bytes(columns) -> int:
    """Bytes held by ``array`` and ``bytearray`` columns."""
    return sum(len(column) * getattr(column, "itemsize", 1) for column in columns)


_FROZEN = STATE_CODES[AccountState.FROZEN]
_DEACTIVATED = STATE_CODES[AccountState.DEACTIVATED]
_RESET_FORCED = STATE_CODES[AccountState.RESET_FORCED]
