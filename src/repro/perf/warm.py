"""Warm per-worker world cache: shard-invariant substrate products.

Rebuilding a shard's world from its plan is the dominant cost of small
shards on a process pool: every worker re-generates the same site
specs, re-mints the same identity corpus and re-renders the same
wordlist-derived content that every other worker (and every earlier
run in the same worker process) already computed.  This module caches
the products that are **pure functions of the world key** —
``(seed, population size, generator config, site overrides)`` — for
the lifetime of the worker process, so a persistent pool pays the
build cost once per worker instead of once per shard.

What is cached, and why each entry is safe:

- **Site specs** (:class:`SpecCache`).  A rank's spec is a pure
  function of the substrate tree (root seed) and the generator config;
  the generator draws from ``tree.child("site-generator").child("rank",
  rank)`` so specs are independent per rank.  The one cross-rank input
  is the host-collision set, which the generator keeps order-free by
  filling shared caches *prefix-closed* (see
  :meth:`~repro.web.generator.SiteGenerator.spec_for_rank`): rank ``r``
  always collides against exactly ranks ``1..r-1``, whichever shard,
  epoch or worker asks first.  Specs are frozen dataclasses and never
  mutated after generation.
- **Identity corpora** (:attr:`WarmWorld.identity_corpus`).  A shard's
  provisioning draws ``hard + easy`` identities from the apparatus
  tree at namespace ``("shard", k)`` — a pure function of
  ``(world key, namespace, counts)``.  The cache records every
  identity *created* (including provider-rejected ones) and replays
  them through ``EmailProvider.provision``, which draws no randomness,
  so the provider and pool end in exactly the cold-path state.  The
  replay contract requires that no further identities are minted from
  that apparatus afterwards — true for ``run_shard``, which sizes its
  corpus up front.

The cold path survives untouched: with the perf layer disabled
(``REPRO_PERF_DISABLE=1`` / ``set_enabled(False)``) or
``warm_enabled=False`` on the plan, :func:`world_for_plan` returns
``None`` and every shard rebuilds from scratch.  ``set_enabled(False)``
also clears the world store (it registers through
:class:`~repro.perf.caching.LruCache`), keeping A/B timings honest.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity
from repro.perf import caching as _perf
from repro.web.spec import SiteSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.core.runner import ShardPlan
    from repro.core.system import TripwireSystem
    from repro.web.generator import GeneratorConfig


@dataclass
class SpecCache:
    """Process-lifetime site-spec store shared by every warm shard.

    Satisfies :class:`repro.web.generator.SpecCacheLike`: the generator
    consults ``specs`` before generating and shares ``hosts_taken`` so
    collision handling matches a single long-lived generator.  ``lock``
    serializes the check-and-fill across a thread pool's workers; a
    process worker owns its cache, so its lock is never contended.
    """

    specs: dict[int, SiteSpec] = field(default_factory=dict)
    hosts_taken: set[str] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)


@dataclass
class WarmWorld:
    """Everything cached for one world key.

    One instance per ``(seed, population, generator config, overrides)``
    tuple per worker process; shards with different apparatus
    namespaces share the spec cache but keep distinct corpus entries.
    """

    spec_cache: SpecCache = field(default_factory=SpecCache)
    #: ``(namespace, hard, easy) -> (hard identities, easy identities)``
    #: — every identity created for that provisioning call, in creation
    #: order, rejects included.
    identity_corpus: dict[
        tuple[Hashable, ...], tuple[tuple[Identity, ...], tuple[Identity, ...]]
    ] = field(default_factory=dict)

    def provision(
        self,
        system: "TripwireSystem",
        hard_needed: int,
        easy_needed: int,
        namespace: tuple[object, ...],
    ) -> int:
        """Provision a shard's identity corpus, replaying when warm.

        Cold: draw from the factory as usual, recording what was
        created.  Warm: replay the recorded corpus through the provider
        (which draws no RNG), leaving factory state untouched — valid
        only because ``run_shard`` never mints further identities.
        Returns how many identities joined the pool.
        """
        key = (namespace, hard_needed, easy_needed)
        cached = self.identity_corpus.get(key)
        if cached is not None:
            hard_ids, easy_ids = cached
            added = system.provision_identities(
                hard_needed, PasswordClass.HARD, prebuilt=hard_ids
            )
            added += system.provision_identities(
                easy_needed, PasswordClass.EASY, prebuilt=easy_ids
            )
            return added
        hard_record: list[Identity] = []
        easy_record: list[Identity] = []
        added = system.provision_identities(
            hard_needed, PasswordClass.HARD, record=hard_record
        )
        added += system.provision_identities(
            easy_needed, PasswordClass.EASY, record=easy_record
        )
        self.identity_corpus[key] = (tuple(hard_record), tuple(easy_record))
        return added


def _config_key(config: "GeneratorConfig | None") -> Hashable:
    """A generator config as a hashable field tuple (None-safe)."""
    if config is None:
        return None
    return tuple(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
    )


def world_key(
    seed: int,
    population_size: int,
    generator_config: "GeneratorConfig | None",
    packed_overrides: tuple,
) -> Hashable:
    """The cache key: every input that determines substrate products."""
    return (seed, population_size, _config_key(generator_config), packed_overrides)


#: Worker-process-lifetime store.  Small on purpose: one entry per
#: distinct world this process has run; campaigns use exactly one.
#: Registering through LruCache means ``set_enabled(False)`` /
#: ``clear_all_caches`` empty it, which the A/B bench relies on.
_WORLDS = _perf.LruCache(maxsize=4, name="warm.worlds")


def world_for_key(key: Hashable) -> WarmWorld:
    """The (possibly fresh) warm world for a key, unconditionally."""
    world = _WORLDS.get(key)
    if world is None:
        world = WarmWorld()
        _WORLDS.put(key, world)
    return world  # type: ignore[return-value]


def world_for_plan(plan: "ShardPlan") -> WarmWorld | None:
    """The warm world a shard plan should use, or ``None`` for cold.

    Cold when the plan didn't opt in (``warm_enabled=False``) or the
    perf layer is globally disabled — both fall back to the reference
    build path byte-for-byte.
    """
    if not plan.warm_enabled or not _perf.enabled():
        return None
    key = world_key(
        plan.seed, plan.population_size, plan.generator_config, plan.site_overrides
    )
    return world_for_key(key)
