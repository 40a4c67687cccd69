"""The benign account population: deterministic, storage-free identity.

A benign user is fully determined by their index: local part, password
and home IP are arithmetic functions of ``i`` (a Knuth multiplicative
hash spreads the bits), so a 10^6-user population costs the provider's
columns and nothing else — the traffic generator re-derives credentials
on the fly instead of holding a second copy of a million strings.

Benign locals live in their own ``bg…`` namespace: policy-clean,
lowercase, collision-free against both Tripwire's generated identities
(which never use the ``bg`` stem) and each other, which is what lets
registration take the bulk :meth:`~repro.email_provider.accounts.
AccountTable.extend` path with the per-row checks hoisted out.
"""

from __future__ import annotations

from array import array

import numpy as np

#: Knuth's multiplicative hash constant; spreads consecutive indices.
_MIX = 2654435761
_MASK32 = 0xFFFFFFFF


def benign_local(i: int) -> str:
    """Local part of benign user ``i`` (lowercase, policy-clean)."""
    return "bg%08d" % i


def benign_password(i: int) -> str:
    """Password of benign user ``i`` (derived, never brute-forceable
    by the simulated attackers, who only target honey identities)."""
    return "bg-pw-%08x" % ((i * _MIX) & _MASK32)


def benign_home_ip(i: int) -> int:
    """Home IP of benign user ``i``, as a 32-bit integer.

    Confined to 96.0.0.0/3 so benign sources never collide with the
    attacker proxy pools or Tripwire's probe addresses.
    """
    return 0x60000000 | ((i * _MIX) & 0x1FFFFFFF)


class BenignPopulation:
    """A sized benign population, registrable with one provider call.

    The credential caches built for registration are kept and shared
    with the traffic generator, so the population's strings exist once
    — the provider's columns and the generator's lookup tables hold
    references to the same objects.
    """

    __slots__ = ("size", "first_row", "_locals", "_passwords", "_home_ips")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("population size must be non-negative")
        self.size = size
        #: Provider row of user 0, set by :meth:`register_with`.
        self.first_row: int | None = None
        self._locals: list[str] | None = None
        self._passwords: list[str] | None = None
        self._home_ips = None

    def credentials(self) -> tuple[list[str], list[str]]:
        """(locals, passwords) lookup tables, built once, cached."""
        if self._locals is None:
            self._locals = [benign_local(i) for i in range(self.size)]
            self._passwords = [benign_password(i) for i in range(self.size)]
        return self._locals, self._passwords

    def home_ips(self):
        """Per-user home IP table (``array('Q')``), built once, cached.

        :func:`benign_home_ip` over ``range(size)`` as one uint64 column.
        """
        if self._home_ips is None:
            ips = np.arange(self.size, dtype=np.uint64)
            ips *= _MIX
            ips &= 0x1FFFFFFF
            ips |= 0x60000000
            self._home_ips = array("Q")
            self._home_ips.frombytes(ips.view(np.uint8))
        return self._home_ips

    def register_with(self, provider) -> int:
        """Bulk-register every user; returns the first row index.

        Registration is idempotent per provider (second calls would
        collide); callers register once at world build time.
        """
        locals_lower, passwords = self.credentials()
        self.first_row = provider.register_benign_accounts(locals_lower, passwords)
        return self.first_row

    def local(self, i: int) -> str:
        return benign_local(i)

    def password(self, i: int) -> str:
        return benign_password(i)

    def home_ip(self, i: int) -> int:
        return benign_home_ip(i)
