"""Budgeted LRU cache of decoded segment pages.

The byte budget is the store's whole memory story: however large the
world on disk, at most ``budget_bytes`` of decoded pages are resident
(charged at on-disk page size, a stable proxy for the decoded
footprint).  The bounded-memory regression test asserts
``stats().peak_bytes <= budget`` over a full streaming pass, so
admission is strict — a page is either cached within budget or
*bypassed* (returned to the caller uncached) when it alone exceeds the
budget; residency never overshoots.

Thread-safe: every reader in a process shares one process-wide store,
so gets and puts take a lock.  Keys are ``(segment path, first_row)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "PageCache"]

#: Default budget: 16 MiB of decoded pages.
DEFAULT_BUDGET_BYTES = 16 * 2**20


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of cache counters."""

    hits: int
    misses: int
    evictions: int
    bypasses: int
    current_bytes: int
    peak_bytes: int
    budget_bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """LRU over decoded pages with a hard byte budget."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._pages: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bypasses = 0
        self._peak = 0

    def get(self, key: object):
        """The cached page, freshened to most-recently-used, or None."""
        with self._lock:
            entry = self._pages.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._pages.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: object, page: object, size: int) -> bool:
        """Admit a page, evicting LRU entries until it fits.

        Returns False (and caches nothing) when the page alone exceeds
        the budget — the caller keeps its transient reference and the
        resident total never crosses the budget line.
        """
        with self._lock:
            if size > self.budget_bytes:
                self._bypasses += 1
                return False
            old = self._pages.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            while self._bytes + size > self.budget_bytes and self._pages:
                _, (_, evicted_size) = self._pages.popitem(last=False)
                self._bytes -= evicted_size
                self._evictions += 1
            self._pages[key] = (page, size)
            self._bytes += size
            self._peak = max(self._peak, self._bytes)
            return True

    def clear(self) -> None:
        """Drop every page (counters, including peak, survive)."""
        with self._lock:
            self._pages.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                bypasses=self._bypasses,
                current_bytes=self._bytes,
                peak_bytes=self._peak,
                budget_bytes=self.budget_bytes,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)
