"""Warm spec cache: site specs shared by every shard in a process.

Rebuilding a shard's world from its plan is the dominant cost of small
shards: every shard re-generates the same site specs that every earlier
shard in the same process (serial, or a pool worker) already computed.
This module keeps one :class:`SpecCache` per ``(seed, population
size)`` for the lifetime of the process, so a run pays the spec build
once per process instead of once per shard.

A rank's spec is a pure function of the substrate tree (root seed);
the generator draws from ``tree.child("site-generator").child("rank",
rank)`` so specs are independent per rank.  The one cross-rank input
is the host-collision set, which the generator keeps order-free by
filling shared caches *prefix-closed* (see
:meth:`~repro.web.generator.SiteGenerator.spec_for_rank`): rank ``r``
always collides against exactly ranks ``1..r-1``, whichever shard,
epoch or worker asks first.  Specs are frozen dataclasses and never
mutated after generation.

The cold path is the perf layer's switch: with it off
(``REPRO_PERF_DISABLE=1`` / ``set_enabled(False)``),
:func:`spec_cache_for` returns ``None`` and every shard generates its
specs from scratch.  ``set_enabled(False)`` also empties the store (it
registers through :class:`~repro.perf.caching.LruCache` as
``warm.worlds``), keeping A/B timings honest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.perf import caching as _perf
from repro.web.spec import SiteSpec


@dataclass
class SpecCache:
    """Process-lifetime site-spec store shared by every shard of a world.

    Satisfies :class:`repro.web.generator.SpecCacheLike`: the generator
    consults ``specs`` before generating and shares ``hosts_taken`` so
    collision handling matches a single long-lived generator.  ``lock``
    serializes the generator's check-and-fill.
    """

    specs: dict[int, SiteSpec] = field(default_factory=dict)
    hosts_taken: set[str] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)


#: Process-lifetime store, one entry per distinct ``(seed, population)``
#: this process has run; campaigns use exactly one.  Registering
#: through LruCache means ``set_enabled(False)`` / ``clear_all_caches``
#: empty it, which the A/B bench relies on.
_WORLDS = _perf.LruCache(maxsize=4, name="warm.worlds")


def spec_cache_for(seed: int, population_size: int) -> SpecCache | None:
    """The shared spec cache for a world, or ``None`` with the layer off."""
    if not _perf.enabled():
        return None
    key = (seed, population_size)
    cache = _WORLDS.get(key)
    if cache is None:
        cache = SpecCache()
        _WORLDS.put(key, cache)
    return cache  # type: ignore[return-value]
