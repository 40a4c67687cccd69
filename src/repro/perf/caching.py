"""Hot-path cache infrastructure.

Every cache in the performance layer goes through this module so one
switch controls them all.  The contract each cache must honor:

- **Pure memoization only.**  A cache may be keyed solely on inputs
  that fully determine the memoized output; with the layer disabled
  (``REPRO_PERF_DISABLE=1`` or :func:`set_enabled`), every call takes
  the original code path and produces byte-identical results.
- **Per-process, no invalidation protocol.**  Keys embed every input
  (e.g. the full ``SiteSpec`` field tuple), so a mutated input simply
  misses; stale entries age out of the bounded LRU.
- **No shared mutable values.**  Cached values are either immutable
  (rendered HTML strings, ``(meaning, score)`` tuples) or cloned on
  every hit (parsed DOM trees).

See DESIGN.md's "Performance model" section for the cache-by-cache key
and safety argument.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Hashable

#: Master switch.  Default on; the environment variable and
#: :func:`set_enabled` exist for the caches-off oracle runs (the golden
#: pilot pin runs with the caches off and on) and for debugging ("is
#: the cache lying to me?" — it must never be).
_ENABLED = os.environ.get("REPRO_PERF_DISABLE", "") in ("", "0")

#: Every LruCache ever constructed, by name, for stats and clearing.
_REGISTRY: dict[str, "LruCache"] = {}

#: Clear callbacks for caches not built on LruCache (functools caches).
_CLEARERS: list[Callable[[], None]] = []


def enabled() -> bool:
    """Whether the hot-path optimization layer is active."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Toggle the layer (tests use it for their caches-off oracle runs).

    Disabling also clears every registered cache so a later re-enable
    starts cold, with counters at zero.
    """
    global _ENABLED
    _ENABLED = bool(value)
    if not _ENABLED:
        clear_all_caches()


def register_clearer(clear: Callable[[], None]) -> None:
    """Register a clear callback for an external (functools) cache."""
    _CLEARERS.append(clear)


def clear_all_caches() -> None:
    """Empty every cache in the layer (tests and baseline timing)."""
    for cache in _REGISTRY.values():
        cache.clear()
    for clear in _CLEARERS:
        clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/eviction/size counters for every named cache."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}


class LruCache:
    """A small bounded mapping with least-recently-used eviction.

    Values are returned as stored — callers that cache mutable objects
    must clone on hit (see the DOM cache in ``repro.html.browser``).
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int, name: str):
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        _REGISTRY[name] = self

    def get(self, key: Hashable) -> object | None:
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Empty the cache AND reset its counters.

        Toggling the layer via :func:`set_enabled` clears every cache;
        counters restart from zero so a caches-on run's hit counts
        aren't polluted by an earlier run.
        """
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
        }
