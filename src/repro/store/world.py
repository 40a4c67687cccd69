"""The world store: a directory of segments plus a meta manifest.

Layout of a store at ``PATH``::

    PATH/
      worldstore.json   # schema, seed, population, world digest, tables
      specs.seg         # row i = SiteSpec for rank i + 1 (prefix-closed)
      accounts.seg      # campaign account database (written post-run)
      telemetry.seg     # campaign attempt records (written post-run)

**Building** streams a :class:`~repro.web.generator.SiteGenerator` in
rank order straight into segment pages — the prefix-closed generation
of a :class:`~repro.web.generator.SpecTable`, but writing pages instead
of a list, so peak memory is one page's rows no matter the population.
**Reading** goes through one budgeted
:class:`~repro.store.pagecache.PageCache` shared by all of a store's
segments.  A store is a spec source in its own right: shards and
listings read :meth:`WorldStore.spec_at_rank` directly, and nothing
ever generates or writes a spec through it.

A store is identified by its **world digest** — a hash of the seed,
deliberately excluding population size: specs are pure per-rank
functions of the seed, so a 10^6-row store serves any run with
``population <= rows`` bit-identically.
:meth:`WorldStore.require_world` enforces the match; a shard handed a
store built for a different world fails with :class:`StoreError`
instead of silently diverging.

:func:`open_world_store` keeps a process-lifetime registry so a pool
worker (many shards and epochs) opens the store and fills its page
cache once, mirroring :mod:`repro.perf.warm`'s in-memory spec table.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.store.pagecache import DEFAULT_BUDGET_BYTES, CacheStats, PageCache
from repro.store.rows import table_codec
from repro.store.segment import (
    DEFAULT_ROWS_PER_PAGE,
    SegmentReader,
    SegmentWriter,
    StoreError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.campaign import AttemptRecord
    from repro.identity.records import Identity
    from repro.web.spec import SiteSpec

__all__ = [
    "STORE_SCHEMA",
    "WorldStore",
    "build_world_store",
    "open_world_store",
    "world_digest",
]

#: Bump on incompatible manifest layout changes.
STORE_SCHEMA = 1

META_NAME = "worldstore.json"
_SEGMENT_FILES = {
    "specs": "specs.seg",
    "accounts": "accounts.seg",
    "telemetry": "telemetry.seg",
}


def world_digest(seed: int) -> str:
    """Digest of everything that determines spec content per rank.

    Population size is excluded on purpose — see the module docstring.
    """
    # The empty tuples once held a generator config and site overrides;
    # keeping them keeps the digest of every store already on disk.
    canonical = repr((seed, (), ()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class WorldStore:
    """Open handle on a built store directory."""

    def __init__(
        self,
        path: str | Path,
        *,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ):
        self.path = Path(path)
        meta_path = self.path / META_NAME
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StoreError(
                f"{self.path}: not a world store (missing {META_NAME})"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"{meta_path}: unreadable manifest ({exc})") from exc
        if not isinstance(meta, dict) or meta.get("schema") != STORE_SCHEMA:
            raise StoreError(
                f"{meta_path}: manifest schema "
                f"{meta.get('schema') if isinstance(meta, dict) else None!r} "
                f"unsupported (reader supports {STORE_SCHEMA})"
            )
        self.meta = meta
        self.seed = int(meta["seed"])
        self.population = int(meta["population"])
        self.digest = str(meta["world_digest"])
        self.page_cache = PageCache(budget_bytes)
        self._lock = threading.Lock()
        self._readers: dict[str, SegmentReader] = {}

    # -- validation ---------------------------------------------------------

    def require_world(self, seed: int, population_size: int) -> None:
        """Refuse to serve a run whose world this store did not build."""
        expected = world_digest(seed)
        if expected != self.digest:
            raise StoreError(
                f"{self.path}: store holds a different world "
                f"(digest {self.digest[:12]}… != expected {expected[:12]}…); "
                f"rebuild with the run's seed"
            )
        if population_size > self.population:
            raise StoreError(
                f"{self.path}: store built for population {self.population}, "
                f"run wants {population_size}"
            )

    # -- table access -------------------------------------------------------

    def _reader(self, table: str) -> SegmentReader:
        with self._lock:
            reader = self._readers.get(table)
            if reader is None:
                if table not in self.meta.get("tables", {}):
                    raise StoreError(
                        f"{self.path}: store has no {table!r} table"
                    )
                _, decode = table_codec(table)
                reader = SegmentReader(
                    self.path / _SEGMENT_FILES[table],
                    decode,
                    page_cache=self.page_cache,
                    expect_table=table,
                )
                self._readers[table] = reader
            return reader

    def row_count(self, table: str) -> int:
        return self._reader(table).row_count

    # -- specs --------------------------------------------------------------

    def spec_at_rank(self, rank: int) -> "SiteSpec":
        """The stored spec for a rank in [1, population]."""
        if not 1 <= rank <= self.population:
            raise StoreError(
                f"{self.path}: rank {rank} outside stored population "
                f"[1, {self.population}]"
            )
        return self._reader("specs").get(rank - 1)

    def iter_specs(
        self, start_rank: int = 1, stop_rank: int | None = None
    ) -> Iterator["SiteSpec"]:
        """Stream specs for ranks ``[start_rank, stop_rank]`` in order."""
        stop = self.population if stop_rank is None else min(stop_rank, self.population)
        return self._reader("specs").iter_rows(start_rank - 1, stop)

    @property
    def size(self) -> int:
        """Population size, as on a population (Table 4 reads it)."""
        return self.population

    # -- results tables -----------------------------------------------------

    def append_results(self, attempts: "list[AttemptRecord]") -> tuple[int, int]:
        """Persist a run's attempts and account database.

        Writes the ``telemetry`` table (attempt rows in merged order)
        and the ``accounts`` table (each distinct identity once, in
        first-reference order — the wire codec's interning rule applied
        at store scope).  Replaces any previous results atomically;
        returns ``(accounts, telemetry)`` row counts.
        """
        # Keyed on the full identity value, not identity_id — ids are
        # per-shard counters, so distinct shards reuse the same numbers.
        seen: set = set()
        accounts: list[Identity] = []
        for attempt in attempts:
            identity = attempt.identity
            if identity not in seen:
                seen.add(identity)
                accounts.append(identity)

        rows_per_page = int(self.meta.get("rows_per_page", DEFAULT_ROWS_PER_PAGE))
        written = {}
        for table, rows in (("accounts", accounts), ("telemetry", attempts)):
            encode, _ = table_codec(table)
            with SegmentWriter(
                self.path / _SEGMENT_FILES[table], table, encode,
                rows_per_page=rows_per_page,
            ) as writer:
                writer.extend(rows)
            written[table] = len(rows)
        with self._lock:
            for table in written:
                self.meta.setdefault("tables", {})[table] = _SEGMENT_FILES[table]
                stale = self._readers.pop(table, None)
                if stale is not None:
                    stale.close()
        _write_meta(self.path, self.meta)
        return written["accounts"], written["telemetry"]

    def iter_accounts(self) -> "Iterator[Identity]":
        return self._reader("accounts").iter_rows()

    def iter_attempts(self) -> "Iterator[AttemptRecord]":
        return self._reader("telemetry").iter_rows()

    # -- operations ---------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Residency and hit-rate counters for the shared page cache."""
        return self.page_cache.stats()

    def close(self) -> None:
        with self._lock:
            for reader in self._readers.values():
                reader.close()
            self._readers.clear()
            self.page_cache.clear()

    def __enter__(self) -> "WorldStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _write_meta(path: Path, meta: dict) -> None:
    """Write the manifest atomically (temp + rename)."""
    payload = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    tmp = path / (META_NAME + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, path / META_NAME)


def build_world_store(
    path: str | Path,
    seed: int,
    population: int,
    *,
    rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
    progress=None,
) -> WorldStore:
    """Build (or reopen) the store for a world at ``path``.

    An existing store is validated against ``seed`` and reopened if it
    matches and is big enough — building a 10^6-row store is the
    expensive step, so reuse is the default.  ``progress``
    (``callable(ranks_done)``) is invoked once per flushed page.
    """
    path = Path(path)
    if population < 1:
        raise ValueError("population must be positive")
    if (path / META_NAME).exists():
        store = WorldStore(path, budget_bytes=budget_bytes)
        store.require_world(seed, population)
        return store

    from repro.util.rngtree import RngTree
    from repro.web.generator import SiteGenerator

    path.mkdir(parents=True, exist_ok=True)
    generator = SiteGenerator(RngTree(seed))
    encode, _ = table_codec("specs")
    done = 0
    with SegmentWriter(
        path / _SEGMENT_FILES["specs"], "specs", encode,
        rows_per_page=rows_per_page,
    ) as writer:
        for spec in generator.iter_specs(population):
            writer.append(spec)
            done += 1
            if progress is not None and done % rows_per_page == 0:
                progress(done)
    _write_meta(
        path,
        {
            "schema": STORE_SCHEMA,
            "seed": seed,
            "population": population,
            "rows_per_page": rows_per_page,
            "world_digest": world_digest(seed),
            "tables": {"specs": _SEGMENT_FILES["specs"]},
        },
    )
    return WorldStore(path, budget_bytes=budget_bytes)


#: Process-lifetime registry: pool workers open each store once and
#: keep its page cache across shards and epochs.
_OPEN_STORES: dict[str, WorldStore] = {}
_OPEN_LOCK = threading.Lock()


def open_world_store(
    path: str | Path, *, budget_bytes: int = DEFAULT_BUDGET_BYTES
) -> WorldStore:
    """The (process-cached) open store at ``path``.

    The first open fixes the page-cache budget for this process; the
    registry is keyed on the resolved path so relative and absolute
    spellings share one handle.
    """
    key = str(Path(path).resolve())
    with _OPEN_LOCK:
        store = _OPEN_STORES.get(key)
        if store is None:
            store = WorldStore(key, budget_bytes=budget_bytes)
            _OPEN_STORES[key] = store
        return store


def close_open_stores() -> None:
    """Close and forget every registry entry (tests and shutdown)."""
    with _OPEN_LOCK:
        for store in _OPEN_STORES.values():
            store.close()
        _OPEN_STORES.clear()
