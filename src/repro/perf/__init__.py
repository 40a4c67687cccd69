"""The hot-path performance layer: caches, warm workers, wire codec.

The layer is pure memoization and algorithmic fusion over functions
that are already deterministic — it may never change an output bit.
``repro.perf.caching`` holds the shared switch and cache registry;
``repro.perf.suite`` gates the observation and flight-recorder
overhead budgets (``python -m repro.perf.suite``).  Throughput is
measured by the repository benchmark, ``perfbench/run.py``.
"""

from repro.perf.caching import (
    LruCache,
    cache_stats,
    clear_all_caches,
    enabled,
    register_clearer,
    set_enabled,
)

__all__ = [
    "LruCache",
    "cache_stats",
    "clear_all_caches",
    "enabled",
    "register_clearer",
    "set_enabled",
]
