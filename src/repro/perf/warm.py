"""Warm spec table: site specs shared by every shard in a process.

Rebuilding a shard's world from its plan is the dominant cost of small
shards: every shard would re-generate the same site specs that every
earlier shard in the same process (serial, or a pool worker) already
computed.  This module keeps one
:class:`~repro.web.generator.SpecTable` per seed for the lifetime of
the process, so a run pays the spec build once per process instead of
once per shard.  The key is the seed alone: a rank's spec does not
depend on population size, so one table serves every population of a
seed.

The table is filled prefix-closed, so each spec is a pure function of
``(seed, rank)`` whichever shard, epoch or worker asks first; specs are
never mutated after generation.

The cold path is the perf layer's switch: with it off
(``REPRO_PERF_DISABLE=1`` / ``set_enabled(False)``),
:func:`spec_table_for` hands out a fresh private table on each call,
so each shard fills its own, prefix-closed like the shared one.
``set_enabled(False)`` also empties the store (it registers through
:class:`~repro.perf.caching.LruCache` as ``warm.worlds``), keeping
A/B timings honest.
"""

from __future__ import annotations

from repro.perf import caching as _perf
from repro.web.generator import SpecTable

#: Process-lifetime store, one table per seed this process has run;
#: campaigns use exactly one.  Registering through LruCache means
#: ``set_enabled(False)`` / ``clear_all_caches`` empty it, which the
#: A/B bench relies on.
_WORLDS = _perf.LruCache(maxsize=4, name="warm.worlds")


def spec_table_for(seed: int) -> SpecTable:
    """The seed's shared spec table, or a private one with the layer off."""
    if not _perf.enabled():
        return SpecTable(seed)
    table = _WORLDS.get(seed)
    if table is None:
        table = SpecTable(seed)
        _WORLDS.put(seed, table)
    return table  # type: ignore[return-value]
