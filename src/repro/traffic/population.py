"""The benign account population: deterministic, storage-free identity.

A benign user is fully determined by their index: local part, password
and home IP are arithmetic functions of ``i`` (a Knuth multiplicative
hash spreads the bits), so a 10^6-user population costs the provider's
numeric columns and nothing else.  The provider registers it as one
row block (user ``i`` is row ``first_row + i``) and owns the naming:
:func:`~repro.email_provider.accounts.benign_local` and
:func:`~repro.email_provider.accounts.benign_password` live beside the
account table, so one module decides what the ``bg…`` namespace means.
The traffic generator and the stuffing planner carry rows, never these
strings.
"""

from __future__ import annotations

import numpy as np

from repro.email_provider.accounts import BENIGN_MIX, benign_local, benign_password

__all__ = [
    "BenignPopulation",
    "benign_home_ip",
    "benign_home_ips",
    "benign_local",
    "benign_password",
]

#: Benign sources live in 96.0.0.0/3: a 29-bit host part under this base.
HOME_BASE = 0x60000000
HOME_BITS = 0x1FFFFFFF


def benign_home_ip(i: int) -> int:
    """Home IP of benign user ``i``, as a 32-bit integer.

    Confined to 96.0.0.0/3 so benign sources never collide with the
    attacker proxy pools or Tripwire's probe addresses.
    """
    return HOME_BASE | ((i * BENIGN_MIX) & HOME_BITS)


def benign_home_ips(users):
    """:func:`benign_home_ip` over a user-index column, as uint64."""
    ips = np.asarray(users, dtype=np.uint64) * np.uint64(BENIGN_MIX)
    ips &= np.uint64(HOME_BITS)
    ips |= np.uint64(HOME_BASE)
    return ips


class BenignPopulation:
    """A sized benign population, registrable with one provider call."""

    __slots__ = ("size", "first_row")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("population size must be non-negative")
        self.size = size
        #: Provider row of user 0, set by :meth:`register_with`.
        self.first_row: int | None = None

    def register_with(self, provider) -> int:
        """Register every user as the provider's benign row block;
        returns the first row index.

        A provider holds one block; callers register once at world
        build time.
        """
        self.first_row = provider.register_benign_accounts(self.size)
        return self.first_row
