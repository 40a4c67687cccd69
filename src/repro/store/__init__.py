"""Disk-backed columnar world store (PR 7).

A world — site specs, account databases, campaign telemetry — has so
far lived entirely in process memory, capping populations around
10^3–10^4 sites.  This package extends the PR-5 wire codec (interned
row tuples) from shard-result *transport* into a persistent *backend*:

- :mod:`repro.store.packing` — a deterministic, self-describing binary
  value codec (the byte layer under every page and footer);
- :mod:`repro.store.segment` — append-only segment files: fixed-size
  row-group pages, each self-contained with its own string intern
  table, indexed by a checksummed footer.  Segments are the repo's one
  at-rest format: the service's epoch checkpoints
  (:mod:`repro.service.checkpoint`) are segments too;
- :mod:`repro.store.pagecache` — an LRU of decoded pages under a
  configurable byte budget, with residency accounting;
- :mod:`repro.store.rows` — lossless row codecs for the three world
  tables (``specs``, ``accounts``, ``telemetry``), built on the PR-5
  wire codec's interning helpers;
- :mod:`repro.store.world` — the :class:`WorldStore` directory format
  (meta + segments), prefix-closed build from a
  :class:`~repro.web.generator.SiteGenerator`, and the read-only spec
  source that listings and shard workers consume;
- :mod:`repro.store.strata` — multi-strata rank sampling
  (1k/10k/100k/1M) in the style of Common Crawl's Tranco top-K
  sampling, preserving per-stratum Table-4 incidence.

The store is strictly opt-in (``--world-store PATH`` on
``campaign``/``serve``); the in-memory path remains the default and
the two produce bit-identical journals.
"""

from repro.store.pagecache import CacheStats, PageCache
from repro.store.segment import (
    SEGMENT_SCHEMA,
    SegmentReader,
    SegmentWriter,
    StoreError,
)
from repro.store.strata import DEFAULT_STRATA, Stratum, StrataSampler
from repro.store.world import (
    STORE_SCHEMA,
    WorldStore,
    build_world_store,
    open_world_store,
    world_digest,
)

__all__ = [
    "CacheStats",
    "DEFAULT_STRATA",
    "PageCache",
    "SEGMENT_SCHEMA",
    "STORE_SCHEMA",
    "SegmentReader",
    "SegmentWriter",
    "StoreError",
    "Stratum",
    "StrataSampler",
    "WorldStore",
    "build_world_store",
    "open_world_store",
    "world_digest",
]
