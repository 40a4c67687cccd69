"""Provider-side account storage, records and naming policy.

Accounts live in an :class:`AccountTable` — a struct-of-arrays layout
(the ``store/rows.py`` idiom applied to live state instead of pages):
one Python list/array per column rather than one dataclass
per account.  At the honey-account scale the difference is invisible;
at the heavy-traffic scale (10^6 benign accounts behind the batch
login engine, :mod:`repro.email_provider.batch`) it is the difference
between a few dozen bytes per account and gigabytes of per-account
objects, and it lets the hot login paths touch exactly the columns
they need.

The organic (benign) population is one **row block**: a first row and
a count.  Its members are pure functions of their index ``i = row -
first`` — local :func:`benign_local`, password :func:`benign_password`
— so the block holds no strings at all: names in the ``bg`` namespace
resolve by arithmetic, and only the numeric columns (state, counters,
timestamps) are stored per row.  A sparse override map remembers the
few benign passwords that something changed.

:class:`ProviderAccount` survives as the row *view*: a two-word proxy
whose properties read and write the columns, preserving the original
dataclass attribute API (``account.state``, ``account.password``,
``account.received_message_count``, ...) for the analysis layer and
the tests.
"""

from __future__ import annotations

import enum
import re
from array import array
from dataclasses import dataclass

from repro.util.timeutil import SimInstant


class AccountState(enum.Enum):
    """Lifecycle of a provider account."""

    ACTIVE = "active"
    FROZEN = "frozen"  # suspicious activity; logins rejected
    DEACTIVATED = "deactivated"  # abuse (spam); permanently closed
    RESET_FORCED = "reset_forced"  # provider forced a password reset


#: Column encoding of :class:`AccountState`: the byte stored in
#: ``AccountTable.states``.  ACTIVE must stay 0 — the hot login paths
#: test ``states[row]`` for truthiness to skip three enum compares.
STATE_CODES: dict[AccountState, int] = {
    AccountState.ACTIVE: 0,
    AccountState.FROZEN: 1,
    AccountState.DEACTIVATED: 2,
    AccountState.RESET_FORCED: 3,
}
STATE_FROM_CODE: tuple[AccountState, ...] = (
    AccountState.ACTIVE,
    AccountState.FROZEN,
    AccountState.DEACTIVATED,
    AccountState.RESET_FORCED,
)

#: ``state_changed_at`` column sentinel for "never changed" (None).
NEVER_CHANGED = -1

#: Knuth's multiplicative hash constant; spreads consecutive indices.
BENIGN_MIX = 2654435761
#: The ``bg`` namespace: 8 digits name at most this many benign users.
BENIGN_CAPACITY = 10**8


def benign_local(i: int) -> str:
    """Local part of benign user ``i`` (lowercase, policy-clean).

    The ``bg`` stem plus exactly 8 ASCII digits: Tripwire's generated
    identities never use it, so the namespace is the block's alone.
    """
    return "bg%08d" % i


def benign_password(i: int) -> str:
    """Password of benign user ``i`` (derived, never brute-forceable
    by the simulated attackers, who only target honey identities)."""
    return "bg-pw-%08x" % ((i * BENIGN_MIX) & 0xFFFFFFFF)


def _benign_index(key: str) -> int | None:
    """User index named by a lowercased key in the ``bg`` namespace.

    ``bg`` plus exactly 8 ASCII digits; anything else (7 or 9 digits,
    a non-ASCII digit ``int()`` would accept) is None.  Whether the
    index lies inside the block is the caller's check.
    """
    if len(key) != 10 or not key.startswith("bg"):
        return None
    digits = key[2:]
    if not (digits.isascii() and digits.isdigit()):
        return None
    return int(digits)


class AccountTable:
    """Struct-of-arrays storage for every mailbox at the provider.

    Rows are append-only; a row index is a stable account identity for
    the provider's whole lifetime.  The ``monitored`` column marks the
    disclosure scope of Section 4.2 — the accounts Tripwire asked the
    provider to report telemetry for — as opposed to the organic
    benign population registered through :meth:`register_block`.

    The numeric columns are full length (one entry per row).  The name
    index and the object columns (locals, display names, passwords,
    forwarding) hold *named* rows only — the provisioned accounts, on
    either side of the benign block — at slot ``row`` below the block
    and ``row - benign_count`` above it.
    """

    __slots__ = (
        "_index",
        "locals",
        "display_names",
        "passwords",
        "created_at",
        "states",
        "state_changed_at",
        "forwarding",
        "received_counts",
        "spam_counts",
        "monitored",
        "password_changes",
        "monitored_count",
        "benign_first",
        "benign_count",
        "overrides",
    )

    def __init__(self) -> None:
        #: Lowercased local part -> row index (named rows only).
        self._index: dict[str, int] = {}
        self.locals: list[str] = []
        self.display_names: list[str] = []
        self.passwords: list[str] = []
        self.created_at = array("q")
        self.states = bytearray()
        self.state_changed_at = array("q")
        self.forwarding: list[str | None] = []
        self.received_counts = array("Q")
        self.spam_counts = array("Q")
        self.monitored = bytearray()
        #: Sparse: password rotations are rare; most rows never rotate.
        self.password_changes: dict[int, list[SimInstant]] = {}
        self.monitored_count = 0
        #: First row of the benign block (None until registered).
        self.benign_first: int | None = None
        self.benign_count = 0
        #: Benign row -> password, for the rows whose derived password
        #: was changed (support reset, password change).
        self.overrides: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.states)

    def in_block(self, row: int) -> bool:
        """Whether ``row`` belongs to the benign block."""
        first = self.benign_first
        return first is not None and first <= row < first + self.benign_count

    def _slot(self, row: int) -> int:
        """Object-column slot of a named row."""
        first = self.benign_first
        if first is None or row < first:
            return row
        return row - self.benign_count

    def row_of(self, local_part: str) -> int | None:
        """Row index for a (case-insensitive) local part, or None."""
        key = local_part.lower()
        if self.benign_count:
            i = _benign_index(key)
            if i is not None and i < self.benign_count:
                return self.benign_first + i
        return self._index.get(key)

    def local_of(self, row: int) -> str:
        if self.in_block(row):
            return benign_local(row - self.benign_first)
        return self.locals[self._slot(row)]

    def password_of(self, row: int) -> str:
        if self.in_block(row):
            password = self.overrides.get(row)
            if password is None:
                password = benign_password(row - self.benign_first)
            return password
        return self.passwords[self._slot(row)]

    def set_password(self, row: int, password: str) -> None:
        if self.in_block(row):
            self.overrides[row] = password
        else:
            self.passwords[self._slot(row)] = password

    def display_name_of(self, row: int) -> str:
        return "" if self.in_block(row) else self.display_names[self._slot(row)]

    def forwarding_of(self, row: int) -> str | None:
        return None if self.in_block(row) else self.forwarding[self._slot(row)]

    def set_forwarding(self, row: int, address: str | None) -> None:
        if self.in_block(row):
            if address is not None:
                raise ValueError("benign accounts do not forward")
            return
        self.forwarding[self._slot(row)] = address

    def add(
        self,
        local_part: str,
        display_name: str,
        password: str,
        created_at: SimInstant,
        forwarding_address: str | None = None,
        monitored: bool = True,
    ) -> int:
        """Append one named account row; returns its row index."""
        row = len(self.states)
        self._index[local_part.lower()] = row
        self.locals.append(local_part)
        self.display_names.append(display_name)
        self.passwords.append(password)
        self.created_at.append(created_at)
        self.states.append(0)
        self.state_changed_at.append(NEVER_CHANGED)
        self.forwarding.append(forwarding_address)
        self.received_counts.append(0)
        self.spam_counts.append(0)
        self.monitored.append(1 if monitored else 0)
        if monitored:
            self.monitored_count += 1
        return row

    def register_block(self, count: int, created_at: SimInstant) -> int:
        """Append the benign block of ``count`` unmonitored rows.

        Stores no strings: the block's locals and passwords are
        derived from the row index.  Each numeric column is rebuilt at
        its final length by :func:`grown`.  A table holds one block;
        registering a second one, or a block whose namespace a named
        row already holds, raises.  Returns the first row.
        """
        if not 0 <= count <= BENIGN_CAPACITY:
            raise ValueError(f"block size must lie in [0, {BENIGN_CAPACITY}]")
        if self.benign_first is not None:
            raise ValueError("the benign block is already registered")
        for key in self._index:
            i = _benign_index(key)
            if i is not None and i < count:
                raise ValueError(f"named account {key!r} is in the benign namespace")
        first = len(self.states)
        size = first + count
        self.created_at = grown(self.created_at, created_at, size)
        self.states = grown(self.states, 0, size)
        self.state_changed_at = grown(self.state_changed_at, NEVER_CHANGED, size)
        self.received_counts = grown(self.received_counts, 0, size)
        self.spam_counts = grown(self.spam_counts, 0, size)
        self.monitored = grown(self.monitored, 0, size)
        self.benign_first = first
        self.benign_count = count
        return first

    def view(self, row: int) -> "ProviderAccount":
        """A live row proxy (reads and writes go to the columns)."""
        return ProviderAccount(self, row)


def grown(column, fill, size: int):
    """A copy of ``column`` (an ``array`` or ``bytearray``) padded to
    ``size`` entries of ``fill``.

    The copy is built at its final length and the old entries copied
    in, so its memory is written once; extending ``column`` from a
    filled temporary would write the new part twice.
    """
    new = column[:0]
    new.append(fill)
    new *= size
    new[: len(column)] = column
    return new


class ProviderAccount:
    """One mailbox at the provider — a live view over one table row."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: AccountTable, row: int):
        self._table = table
        self._row = row

    @property
    def local_part(self) -> str:
        return self._table.local_of(self._row)

    @property
    def display_name(self) -> str:
        return self._table.display_name_of(self._row)

    @property
    def password(self) -> str:
        return self._table.password_of(self._row)

    @password.setter
    def password(self, value: str) -> None:
        self._table.set_password(self._row, value)

    @property
    def created_at(self) -> SimInstant:
        return self._table.created_at[self._row]

    @property
    def state(self) -> AccountState:
        return STATE_FROM_CODE[self._table.states[self._row]]

    @state.setter
    def state(self, value: AccountState) -> None:
        self._table.states[self._row] = STATE_CODES[value]

    @property
    def state_changed_at(self) -> SimInstant | None:
        stamp = self._table.state_changed_at[self._row]
        return None if stamp == NEVER_CHANGED else stamp

    @state_changed_at.setter
    def state_changed_at(self, value: SimInstant | None) -> None:
        self._table.state_changed_at[self._row] = (
            NEVER_CHANGED if value is None else value
        )

    @property
    def forwarding_address(self) -> str | None:
        return self._table.forwarding_of(self._row)

    @forwarding_address.setter
    def forwarding_address(self, value: str | None) -> None:
        self._table.set_forwarding(self._row, value)

    @property
    def received_message_count(self) -> int:
        return self._table.received_counts[self._row]

    @received_message_count.setter
    def received_message_count(self, value: int) -> None:
        self._table.received_counts[self._row] = value

    @property
    def sent_spam_count(self) -> int:
        return self._table.spam_counts[self._row]

    @sent_spam_count.setter
    def sent_spam_count(self, value: int) -> None:
        self._table.spam_counts[self._row] = value

    @property
    def monitored(self) -> bool:
        """Whether this account is in the telemetry disclosure scope."""
        return bool(self._table.monitored[self._row])

    @property
    def password_changes(self) -> list[SimInstant]:
        """Rotation timestamps (live list; appends persist)."""
        return self._table.password_changes.setdefault(self._row, [])

    @property
    def can_login(self) -> bool:
        """Whether logins are currently accepted."""
        return self._table.states[self._row] == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProviderAccount({self.local_part!r}, state={self.state.value!r})"
        )


class NamingPolicy:
    """The provider's username rules.

    Real providers bound length and the character repertoire; Tripwire
    exploits the provider's collision check as a cheap probe for
    username availability everywhere else (Section 4.1.1).
    """

    def __init__(self, min_length: int = 6, max_length: int = 30):
        self.min_length = min_length
        self.max_length = max_length
        self._pattern = re.compile(r"^[A-Za-z][A-Za-z0-9._]*$")

    def violation(self, local_part: str) -> str | None:
        """Reason the name is rejected, or None when acceptable."""
        if len(local_part) < self.min_length:
            return f"shorter than {self.min_length} characters"
        if len(local_part) > self.max_length:
            return f"longer than {self.max_length} characters"
        if not self._pattern.match(local_part):
            return "contains characters outside [A-Za-z0-9._]"
        return None


@dataclass(frozen=True)
class ProvisioningResult:
    """Outcome of asking the provider to create one account."""

    local_part: str
    created: bool
    reason: str | None = None  # populated when not created
