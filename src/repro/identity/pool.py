"""The identity pool and its burn semantics (Section 4.3.1).

An identity may be *checked out* for a registration attempt at one site.
If the email address or password is ever shown to the site — regardless
of whether the crawler believes the submission succeeded — the identity
is **burned**: permanently associated with that site and never reusable
elsewhere.  If the attempt failed before exposing credentials, the
identity returns to the pool.

This one-to-one mapping is what makes a later email login attributable
to exactly one site.
"""

from __future__ import annotations

import enum
import heapq

from repro.identity.records import Identity
from repro.perf import caching as _perf


class IdentityState(enum.Enum):
    """Lifecycle of an identity within the pool."""

    AVAILABLE = "available"
    CHECKED_OUT = "checked_out"
    BURNED = "burned"
    CONTROL = "control"


class BurnedIdentityError(RuntimeError):
    """An operation was attempted on an identity burned to another site."""


class UnknownIdentityError(KeyError):
    """The pool has never seen this identity."""


class IdentityPool:
    """Tracks identity lifecycle and the identity↔site mapping."""

    def __init__(self) -> None:
        self._identities: dict[int, Identity] = {}
        self._states: dict[int, IdentityState] = {}
        self._checked_out_to: dict[int, str] = {}
        self._burned_to: dict[int, str] = {}
        # Email index for identity_for_email; identities are append-only
        # and their email addresses immutable, so the index never goes
        # stale.  setdefault preserves the linear scan's first-match
        # semantics should two identities ever share an address.
        self._by_email: dict[str, Identity] = {}
        # One min-heap of available ids per password class, for
        # checkout_any.  add and release push; an id that has since left
        # AVAILABLE is popped when it reaches the top (lazy deletion),
        # so checkout by id and burn touch no heap.  Every AVAILABLE id
        # is always on its class heap.
        self._available: dict[object, list[int]] = {}

    # -- intake -------------------------------------------------------------

    def add(self, identity: Identity) -> None:
        """Add a fresh identity to the available pool."""
        if identity.identity_id in self._identities:
            raise ValueError(f"identity {identity.identity_id} already pooled")
        self._identities[identity.identity_id] = identity
        self._states[identity.identity_id] = IdentityState.AVAILABLE
        self._by_email.setdefault(identity.email_address.lower(), identity)
        self._push_available(identity)

    def add_control(self, identity: Identity) -> None:
        """Add a control identity: monitored, never used on any site."""
        if identity.identity_id in self._identities:
            raise ValueError(f"identity {identity.identity_id} already pooled")
        self._identities[identity.identity_id] = identity
        self._states[identity.identity_id] = IdentityState.CONTROL
        self._by_email.setdefault(identity.email_address.lower(), identity)

    # -- checkout / burn ----------------------------------------------------

    def checkout(self, identity_id: int, site_host: str) -> Identity:
        """Reserve an available identity for a registration at a site."""
        state = self._state_of(identity_id)
        if state is not IdentityState.AVAILABLE:
            raise BurnedIdentityError(
                f"identity {identity_id} is {state.value}, cannot check out"
            )
        self._states[identity_id] = IdentityState.CHECKED_OUT
        self._checked_out_to[identity_id] = site_host.lower()
        return self._identities[identity_id]

    def checkout_any(self, site_host: str, password_class: object | None = None) -> Identity | None:
        """Reserve the lowest-id available identity, or None if empty.

        ``password_class`` restricts the search to identities of one
        :class:`repro.identity.passwords.PasswordClass`.  With the
        ``repro.perf`` layer off, the sorted scan answers instead of the
        heaps; both pick the same identity.
        """
        if _perf.enabled():
            heaps = (
                self._available.values()
                if password_class is None
                else [self._available.get(password_class, [])]
            )
            heads = [heap[0] for heap in map(self._clean_head, heaps) if heap]
            identity_id = min(heads, default=None)
        else:
            identity_id = self._scan_available(password_class)
        if identity_id is None:
            return None
        return self.checkout(identity_id, site_host)

    def _scan_available(self, password_class: object | None) -> int | None:
        """The lowest available id by a sorted scan (the caches-off oracle)."""
        for identity_id in sorted(self._states):
            if self._states[identity_id] is not IdentityState.AVAILABLE:
                continue
            identity = self._identities[identity_id]
            if password_class is not None and identity.password_class is not password_class:
                continue
            return identity_id
        return None

    def _push_available(self, identity: Identity) -> None:
        heap = self._available.setdefault(identity.password_class, [])
        heapq.heappush(heap, identity.identity_id)

    def _clean_head(self, heap: list[int]) -> list[int]:
        """Pop ids that are no longer available off the top; return the heap."""
        states = self._states
        while heap and states[heap[0]] is not IdentityState.AVAILABLE:
            heapq.heappop(heap)
        return heap

    def burn(self, identity_id: int) -> None:
        """Permanently associate a checked-out identity with its site.

        Called the moment credentials were exposed to the site,
        regardless of the submission outcome.
        """
        state = self._state_of(identity_id)
        if state is IdentityState.BURNED:
            return  # burning is idempotent
        if state is not IdentityState.CHECKED_OUT:
            raise BurnedIdentityError(f"identity {identity_id} is {state.value}, cannot burn")
        self._states[identity_id] = IdentityState.BURNED
        self._burned_to[identity_id] = self._checked_out_to.pop(identity_id)

    def release(self, identity_id: int) -> None:
        """Return a checked-out identity to the pool (nothing exposed)."""
        state = self._state_of(identity_id)
        if state is not IdentityState.CHECKED_OUT:
            raise BurnedIdentityError(f"identity {identity_id} is {state.value}, cannot release")
        self._states[identity_id] = IdentityState.AVAILABLE
        self._checked_out_to.pop(identity_id)
        self._push_available(self._identities[identity_id])

    # -- queries ------------------------------------------------------------

    def _state_of(self, identity_id: int) -> IdentityState:
        state = self._states.get(identity_id)
        if state is None:
            raise UnknownIdentityError(identity_id)
        return state

    def state(self, identity_id: int) -> IdentityState:
        """Current lifecycle state."""
        return self._state_of(identity_id)

    def get(self, identity_id: int) -> Identity:
        """Fetch an identity record by id."""
        identity = self._identities.get(identity_id)
        if identity is None:
            raise UnknownIdentityError(identity_id)
        return identity

    def site_for(self, identity_id: int) -> str | None:
        """The site an identity is burned to (or checked out for)."""
        if identity_id in self._burned_to:
            return self._burned_to[identity_id]
        return self._checked_out_to.get(identity_id)

    def identity_for_email(self, email_address: str) -> Identity | None:
        """Look up an identity by its provider email address."""
        wanted = email_address.lower()
        if _perf.enabled():
            return self._by_email.get(wanted)
        for identity in self._identities.values():
            if identity.email_address.lower() == wanted:
                return identity
        return None

    def burned_identities(self) -> list[tuple[Identity, str]]:
        """All burned identities with the site each is bound to."""
        return [
            (self._identities[identity_id], site)
            for identity_id, site in sorted(self._burned_to.items())
        ]

    def identities_for_site(self, site_host: str) -> list[Identity]:
        """All identities burned to one site."""
        wanted = site_host.lower()
        return [
            self._identities[identity_id]
            for identity_id, site in sorted(self._burned_to.items())
            if site == wanted
        ]

    def count_by_state(self) -> dict[IdentityState, int]:
        """Histogram of identity states."""
        counts = {state: 0 for state in IdentityState}
        for state in self._states.values():
            counts[state] += 1
        return counts

    def all_identities(self) -> list[Identity]:
        """Every identity ever added, in id order."""
        return [self._identities[i] for i in sorted(self._identities)]
