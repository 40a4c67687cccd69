"""Deterministic random-number trees.

Every stochastic component in the reproduction draws randomness from a
:class:`RngTree` rather than the global :mod:`random` state.  A tree is
seeded once; children are derived from the parent seed plus a label path
by hashing, so that:

- the whole simulation is reproducible from a single integer seed, and
- adding a new consumer of randomness (a new site, a new attacker) does
  not perturb the random streams of existing consumers, because each
  consumer's stream depends only on its own label path.

Example::

    tree = RngTree(42)
    site_rng = tree.child("web", "site", 1337).rng()
    site_rng.random()
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

_HASH_BYTES = 16


def _derive_seed(seed: int, labels: tuple[object, ...]) -> int:
    """Derive a child seed from a parent seed and a label path."""
    hasher = hashlib.sha256()
    hasher.update(str(seed).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x1f")
        hasher.update(repr(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:_HASH_BYTES], "big")


class RngTree:
    """A node in a deterministic tree of random-number generators.

    Each node is identified by a root seed and a path of labels.  Nodes
    are cheap value objects; the underlying :class:`random.Random` is
    created lazily by :meth:`rng`.
    """

    __slots__ = ("_seed", "_path")

    def __init__(self, seed: int, _path: tuple[object, ...] = ()):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._path = _path

    @property
    def seed(self) -> int:
        """Root seed of the tree this node belongs to."""
        return self._seed

    @property
    def path(self) -> tuple[object, ...]:
        """Label path from the root to this node."""
        return self._path

    def child(self, *labels: object) -> "RngTree":
        """Return the child node at ``labels`` below this node."""
        if not labels:
            raise ValueError("child() requires at least one label")
        return RngTree(self._seed, self._path + labels)

    def derived_seed(self) -> int:
        """The integer seed that this node's RNG is seeded with."""
        return _derive_seed(self._seed, self._path)

    def rng(self) -> random.Random:
        """Return a fresh :class:`random.Random` seeded for this node.

        Repeated calls return independent generator objects with the
        same seed, hence identical streams.
        """
        return random.Random(self.derived_seed())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "/".join(str(p) for p in self._path)
        return f"RngTree(seed={self._seed}, path={path!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RngTree):
            return NotImplemented
        return self._seed == other._seed and self._path == other._path

    def __hash__(self) -> int:
        return hash((self._seed, self._path))


def mt_words(rng: random.Random, count: int):
    """The next ``count`` 32-bit outputs of ``rng``, as a numpy column.

    :class:`random.Random` is MT19937, so its 624-word key and position
    (from :meth:`~random.Random.getstate`) continue unchanged in
    ``numpy.random.MT19937``; the words come back as a ``uint32`` array
    and ``rng`` is advanced past them, so its next draw is the one that
    would have followed ``count`` scalar draws.  In CPython's terms,
    ``getrandbits(k)`` for ``0 < k <= 32`` is one word ``>> (32 - k)``
    and ``random()`` is two words ``w1, w2`` combined as
    ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53`` — callers rebuild
    whole draw columns from those rules.
    """
    import numpy as np

    version, internal, gauss_next = rng.getstate()
    bits = np.random.MT19937(0)
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    words = bits.random_raw(count).astype(np.uint32)
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return words


def weighted_choice(rng: random.Random, options: Sequence[tuple[T, float]]) -> T:
    """Pick one option according to non-negative weights.

    ``options`` is a sequence of ``(value, weight)`` pairs.  Weights need
    not sum to one.  Raises :class:`ValueError` on an empty sequence or
    when all weights are zero or negative.
    """
    if not options:
        raise ValueError("weighted_choice() requires at least one option")
    total = 0.0
    for _value, weight in options:
        if weight < 0:
            raise ValueError(f"negative weight {weight!r}")
        total += weight
    if total <= 0:
        raise ValueError("all weights are zero")
    point = rng.random() * total
    cumulative = 0.0
    for value, weight in options:
        cumulative += weight
        if point < cumulative:
            return value
    # Floating-point slack: fall back to the last positive-weight option.
    for value, weight in reversed(options):
        if weight > 0:
            return value
    raise AssertionError("unreachable")  # pragma: no cover


def sample_distinct(rng: random.Random, population: Iterable[T], k: int) -> list[T]:
    """Sample ``k`` distinct items (or all of them if fewer exist)."""
    items = list(population)
    if k >= len(items):
        rng.shuffle(items)
        return items
    return rng.sample(items, k)
