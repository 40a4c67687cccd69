"""Cross-site password reuse: the seam credential stuffing attacks.

Wang & Reiter's framing (PAPERS.md): a user's accounts at *other*
sites are the attacker's best guess for their account *here*.  This
module gives the benign population that seam — a seeded fraction of
users reuse their provider password verbatim at the websites they
join, another fraction derive a per-site variant, and the rest keep
every site password unique.

Everything is a **pure function of (namespace key, user index, site
rank)**: one 64-bit key is derived from an :class:`~repro.util.
rngtree.RngTree` label path (no RNG object is ever advanced), and a
splitmix64 finalizer turns ``key ⊕ lane ⊕ user ⊕ site`` into the
behavior class, the per-site account membership coin and the per-site
password material.  Purity buys the properties the columnar world
depends on:

- **order independence** — any subset of users/sites evaluated in any
  order yields the same values, so warm caches, resumed runs and the
  world store never disagree;
- **prefix closure** — growing the population from ``n`` to ``n′``
  users leaves the first ``n`` users' behaviors, memberships and
  passwords untouched;
- **columnar evaluation** — every lane has a vectorized numpy uint64
  form that is bit-identical to the scalar form (the lanes' one
  oracle), so the stuffing engine can derive whole membership columns
  at once.

The provider-side mailbox password stays
:func:`~repro.email_provider.accounts.benign_password` for every class
— what varies is what the *websites* store, and therefore what a
breach corpus replays: EXACT reusers are the stuffable fraction,
DERIVED users leak a near-miss variant, UNIQUE users leak noise.
Columnar consumers never build those strings: a user's class code
plus the per-site derive suffix and unique lanes determine every
equality between two sites' passwords (:meth:`CrossSiteReuseModel.
site_password` is the scalar oracle that spells them out).
"""

from __future__ import annotations

import enum
import hashlib
from array import array

import numpy as np

from repro.email_provider.accounts import benign_password
from repro.util.rngtree import RngTree

_MASK64 = (1 << 64) - 1

#: splitmix64 finalizer constants.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB

#: Odd multipliers spreading the user index and site rank before the
#: finalizer (distinct so (i, rank) and (rank, i) never alias).
_USER_MUL = 0x9E3779B97F4A7C15
_SITE_MUL = 0xC2B2AE3D27D4EB4F


def _lane_salt(lane: str) -> int:
    """A stable 64-bit salt per named lane (behavior/member/…)."""
    digest = hashlib.sha256(b"cross-site-reuse-lane:" + lane.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


_BEHAVIOR_SALT = _lane_salt("behavior")
_MEMBER_SALT = _lane_salt("member")
_DERIVE_SALT = _lane_salt("derive")
_UNIQUE_SALT = _lane_salt("unique")
_CRACK_SALT = _lane_salt("crack")


def check_probability(name: str, value: float) -> None:
    """Reject a rate outside [0, 1] (NaN included)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1]")


def check_reuse_rates(
    exact_rate: float, derive_rate: float, site_density: float
) -> None:
    """The reuse model's rate constraints, for every caller that takes
    them from outside (the model itself, the service config)."""
    check_probability("exact_rate", exact_rate)
    check_probability("derive_rate", derive_rate)
    check_probability("site_density", site_density)
    if exact_rate + derive_rate > 1:
        raise ValueError("reuse-class rates must form a sub-distribution")


def _mix64(x: int) -> int:
    """splitmix64 finalizer over python ints (masked to 64 bits)."""
    x = (x + _SM_GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * _SM_MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _SM_MUL2) & _MASK64
    x ^= x >> 31
    return x


_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_MUL1_NP = np.uint64(_SM_MUL1)
_MUL2_NP = np.uint64(_SM_MUL2)

#: Users per block of the membership scan: its two uint64 buffers
#: (256 KiB each) stay in a core's L2 cache, where running each numpy
#: operation over the whole 10^6-row column streams through memory.
_MEMBER_BLOCK = 1 << 15


def _mix64_np(x, scratch):
    """:func:`_mix64` after its gamma add, in place over a uint64
    column; ``scratch`` is a uint64 buffer of the same length."""
    np.right_shift(x, _SHIFT30, out=scratch)
    x ^= scratch
    x *= _MUL1_NP
    np.right_shift(x, _SHIFT27, out=scratch)
    x ^= scratch
    x *= _MUL2_NP
    np.right_shift(x, _SHIFT31, out=scratch)
    x ^= scratch
    return x


def _threshold(rate: float) -> int:
    """A probability as an integer threshold over the full 64-bit range."""
    if rate <= 0.0:
        return 0
    if rate >= 1.0:
        return 1 << 64
    return round(rate * float(1 << 64))


class ReuseClass(enum.IntEnum):
    """How a user manages passwords across sites.

    Codes are the columnar byte encoding; UNIQUE must stay 0 so an
    all-zero column means "nobody reuses anything".
    """

    UNIQUE = 0  #: a fresh password per site; breaches leak noise
    EXACT = 1  #: the provider password verbatim at every site
    DERIVED = 2  #: a per-site variant of the provider password


class CrossSiteReuseModel:
    """Pure-function map from (user, site) to membership and password.

    ``key`` seeds every lane; build it from a tree path with
    :meth:`from_tree` so the model rides the simulation's single root
    seed without consuming anyone's RNG stream.
    """

    __slots__ = ("key", "exact_rate", "derive_rate", "site_density",
                 "_t_exact", "_t_derived", "_t_member")

    def __init__(
        self,
        key: int,
        exact_rate: float = 0.3,
        derive_rate: float = 0.3,
        site_density: float = 0.05,
    ):
        check_reuse_rates(exact_rate, derive_rate, site_density)
        self.key = key & _MASK64
        self.exact_rate = exact_rate
        self.derive_rate = derive_rate
        self.site_density = site_density
        self._t_exact = _threshold(exact_rate)
        self._t_derived = _threshold(exact_rate + derive_rate)
        self._t_member = _threshold(site_density)

    @classmethod
    def from_tree(
        cls,
        tree: RngTree,
        exact_rate: float = 0.3,
        derive_rate: float = 0.3,
        site_density: float = 0.05,
    ) -> "CrossSiteReuseModel":
        """Derive the lane key from ``tree.child("cross-site-reuse")``.

        Uses the node's derived seed directly — no ``random.Random``
        is created, so building the model can never perturb any other
        consumer's stream.
        """
        key = tree.child("cross-site-reuse").derived_seed() & _MASK64
        return cls(key, exact_rate, derive_rate, site_density)

    # -- scalar lanes (the oracle) ------------------------------------------

    def _lane(self, salt: int, user: int, site_rank: int) -> int:
        v = (self.key ^ salt) & _MASK64
        v = (v + user * _USER_MUL) & _MASK64
        v = (v + site_rank * _SITE_MUL) & _MASK64
        return _mix64(v)

    def behavior(self, user: int) -> ReuseClass:
        """The user's :class:`ReuseClass` (site-independent)."""
        h = self._lane(_BEHAVIOR_SALT, user, 0)
        if h < self._t_exact:
            return ReuseClass.EXACT
        if h < self._t_derived:
            return ReuseClass.DERIVED
        return ReuseClass.UNIQUE

    def has_account(self, user: int, site_rank: int) -> bool:
        """Does the user hold an account at site ``site_rank``?"""
        return self._lane(_MEMBER_SALT, user, site_rank) < self._t_member

    def site_password(self, user: int, site_rank: int) -> str:
        """What site ``site_rank`` stores for the user.

        EXACT: the provider mailbox password verbatim (the stuffable
        case).  DERIVED: the mailbox password plus a per-site suffix.
        UNIQUE: unrelated per-site material.
        """
        behavior = self.behavior(user)
        if behavior is ReuseClass.EXACT:
            return benign_password(user)
        if behavior is ReuseClass.DERIVED:
            suffix = self._lane(_DERIVE_SALT, user, site_rank) & 0xFFFF
            return benign_password(user) + ".%04x" % suffix
        return "sw-%016x" % self._lane(_UNIQUE_SALT, user, site_rank)

    def crack_recovered(self, user: int, site_rank: int, crack_rate: float) -> bool:
        """Offline-cracking coin: did the attacker recover this hash?

        A corpus-level knob, not a user trait, so the rate is passed
        in; the lane is still pure per (user, site).
        """
        return self._lane(_CRACK_SALT, user, site_rank) < _threshold(crack_rate)

    # -- columnar lanes (bit-identical to the scalar forms) -----------------

    def _lane_base(self, salt: int, site_rank: int) -> int:
        """The user-independent part of a lane's pre-mix sum (gamma
        included): lane ``(user, site)`` mixes ``base + user *
        _USER_MUL`` modulo 2**64."""
        return ((self.key ^ salt) + site_rank * _SITE_MUL + _SM_GAMMA) & _MASK64

    def _lane_np(self, salt: int, users, site_rank: int):
        x = users.astype(np.uint64) * np.uint64(_USER_MUL)
        x += np.uint64(self._lane_base(salt, site_rank))
        return _mix64_np(x, np.empty_like(x))

    def _behavior_codes(self, users_np):
        """:class:`ReuseClass` codes for an int64 user column (uint8)."""
        h = self._lane_np(_BEHAVIOR_SALT, users_np, 0)
        codes = np.zeros(len(users_np), dtype=np.uint8)
        if self._t_derived > _MASK64:  # rate sums to 1: nobody is UNIQUE
            codes[:] = ReuseClass.DERIVED
        else:
            codes[h < np.uint64(self._t_derived)] = ReuseClass.DERIVED
        if self._t_exact > _MASK64:
            codes[:] = ReuseClass.EXACT
        else:
            codes[h < np.uint64(self._t_exact)] = ReuseClass.EXACT
        return codes

    def behaviors(self, users) -> bytearray:
        """:class:`ReuseClass` codes for a user-index column."""
        users_np = np.asarray(users, dtype=np.int64)
        return bytearray(self._behavior_codes(users_np).tobytes())

    def member_mask(self, users, site_rank: int):
        """Columnar :meth:`has_account` over a user-index column."""
        users_np = np.asarray(users, dtype=np.int64)
        if self._t_member > _MASK64:
            return np.ones(len(users_np), dtype=bool)
        h = self._lane_np(_MEMBER_SALT, users_np, site_rank)
        return h < np.uint64(self._t_member)

    def members(self, site_rank: int, population: int):
        """Sorted user indices (``array('q')``) with accounts at a site.

        Pure per (user, site): ``members(rank, n)`` is always a prefix
        of ``members(rank, n′)`` for ``n′ ≥ n``.  The lane runs over
        blocks of :data:`_MEMBER_BLOCK` users in reused buffers; a
        block's lanes are ``base + (start + j) * _USER_MUL``, one add of
        a per-block constant to a precomputed ``j * _USER_MUL`` column.
        """
        out = array("q")
        if population <= 0:
            return out
        if self._t_member > _MASK64:
            out.frombytes(np.arange(population, dtype=np.int64).tobytes())
            return out
        threshold = np.uint64(self._t_member)
        base = self._lane_base(_MEMBER_SALT, site_rank)
        size = min(population, _MEMBER_BLOCK)
        steps = np.arange(size, dtype=np.uint64) * np.uint64(_USER_MUL)
        lanes = np.empty(size, dtype=np.uint64)
        scratch = np.empty(size, dtype=np.uint64)
        hits = np.empty(size, dtype=np.bool_)
        for start in range(0, population, size):
            k = min(size, population - start)
            x = np.add(
                steps[:k], np.uint64((base + start * _USER_MUL) & _MASK64),
                out=lanes[:k],
            )
            _mix64_np(x, scratch[:k])
            idx = np.flatnonzero(np.less(x, threshold, out=hits[:k]))
            idx += start
            out.frombytes(idx.tobytes())
        return out

    def derive_suffixes(self, users, site_rank: int):
        """The 16-bit DERIVED-password suffixes at one site (uint64).

        Two sites store the same DERIVED password for a user iff these
        agree (:meth:`site_password` appends ``.%04x`` of it).
        """
        users_np = np.asarray(users, dtype=np.int64)
        return self._lane_np(_DERIVE_SALT, users_np, site_rank) & np.uint64(0xFFFF)

    def unique_lanes(self, users, site_rank: int):
        """The 64-bit UNIQUE-password material at one site (uint64).

        Two sites store the same UNIQUE password for a user iff these
        agree (:meth:`site_password` spells it ``sw-%016x``).
        """
        users_np = np.asarray(users, dtype=np.int64)
        return self._lane_np(_UNIQUE_SALT, users_np, site_rank)

    def cracked_mask(self, users, site_rank: int, crack_rate: float):
        """Columnar :meth:`crack_recovered` over a user-index column."""
        t = _threshold(crack_rate)
        users_np = np.asarray(users, dtype=np.int64)
        if t > _MASK64:
            return np.ones(len(users_np), dtype=bool)
        h = self._lane_np(_CRACK_SALT, users_np, site_rank)
        return h < np.uint64(t)
