"""The ranked internet population and its wiring to the substrate.

Builds sites lazily: specs come per rank from a spec source, and a
:class:`repro.web.site.Website` is only instantiated (plus DNS, WHOIS
and transport registration) when something actually visits the host.

A spec source is anything with ``spec_at_rank(rank)``: the
population's own :class:`~repro.web.generator.SiteGenerator`
(generating on demand, in visit order), a prefix-closed
:class:`~repro.web.generator.SpecTable` shared by every shard of a
run, or a :class:`~repro.store.world.WorldStore`.  :func:`ranked_top`
and :func:`eligibility_counts` read any of them.

Two ranking providers are emulated: the canonical ranking plays the
role of Alexa; the Quantcast list is the same population re-ranked with
noise plus a disjoint tail, so that merging the two top-1,000 lists and
de-duplicating — the paper's December 2014 seed (Section 5.1) — is a
meaningful operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.dns import DnsResolver
from repro.net.ipaddr import IPv4Address
from repro.net.transport import Transport
from repro.net.whois import HostKind, WhoisRegistry
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree
from repro.web.generator import SiteGenerator, SpecTable
from repro.web.site import MailRouter, Website
from repro.web.spec import SiteSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.world import WorldStore


@dataclass(frozen=True)
class RankedSite:
    """One entry in a ranking list."""

    rank: int
    host: str
    url: str


class InternetPopulation:
    """Lazily instantiated population of ranked websites."""

    def __init__(
        self,
        rng_tree: RngTree,
        clock: SimClock,
        transport: Transport,
        whois: WhoisRegistry,
        dns: DnsResolver,
        size: int = 30000,
        mail_router: MailRouter | None = None,
        overrides: dict[int, dict[str, object]] | None = None,
        specs: "SpecTable | WorldStore | None" = None,
    ):
        """``specs`` is a shared spec source; without one the population
        generates its own specs, with ``overrides`` pinned."""
        if size < 1:
            raise ValueError("population size must be positive")
        self.size = size
        self._tree = rng_tree.child("population")
        self._clock = clock
        self._transport = transport
        self._whois = whois
        self._dns = dns
        self._mail_router = mail_router
        self._specs = SiteGenerator(rng_tree, overrides) if specs is None else specs
        self._sites: dict[str, Website] = {}
        self._host_to_rank: dict[str, int] = {}
        self._hosting_blocks: list = []
        self._hosting_rng = self._tree.child("hosting").rng()

    # -- spec and site access -----------------------------------------------------

    def spec_at_rank(self, rank: int) -> SiteSpec:
        """The spec for a rank in [1, size]."""
        if not 1 <= rank <= self.size:
            raise ValueError(f"rank {rank} outside population [1, {self.size}]")
        spec = self._specs.spec_at_rank(rank)
        self._host_to_rank[spec.host] = rank
        return spec

    def site_at_rank(self, rank: int) -> Website:
        """The instantiated website for a rank (wired into the substrate)."""
        spec = self.spec_at_rank(rank)
        site = self._sites.get(spec.host)
        if site is None:
            site = self._instantiate(spec)
        return site

    def site_by_host(self, host: str) -> Website | None:
        """An already-instantiated site by hostname."""
        return self._sites.get(host.lower())

    def rank_of_host(self, host: str) -> int | None:
        """Rank of a host seen so far."""
        return self._host_to_rank.get(host.lower())

    def _next_hosting_ip(self) -> IPv4Address:
        """Allocate a server IP from (shared) datacenter blocks."""
        if not self._hosting_blocks or self._hosting_blocks[-1][1] >= 250:
            org = f"SimHost Cloud {len(self._hosting_blocks) + 1}"
            record = self._whois.allocate_block(24, org, "US", HostKind.DATACENTER)
            self._hosting_blocks.append([record, 0])
        record, used = self._hosting_blocks[-1]
        self._hosting_blocks[-1][1] = used + 1
        return record.block.address_at(used + 1)

    def _instantiate(self, spec: SiteSpec) -> Website:
        rng = self._tree.child("site", spec.host).rng()
        site = Website(spec, self._clock, rng, mail_router=self._mail_router)
        address = self._next_hosting_ip()
        self._dns.register_host(spec.host, address)
        if spec.notes.get("has_mx") != "no":
            self._dns.zone(spec.host).add_mx(f"mail.{spec.host}")
        self._transport.register_host(spec.host, site, https=spec.supports_https)
        if spec.load_fails:
            self._transport.set_host_down(spec.host)
        self._sites[spec.host] = site
        return site

    def instantiated_sites(self) -> list[Website]:
        """All sites built so far."""
        return list(self._sites.values())

    # -- ranking lists ---------------------------------------------------------------

    def alexa_top(self, n: int) -> list[RankedSite]:
        """The canonical ranking's top ``n`` entries."""
        return ranked_top(self, min(n, self.size))

    def quantcast_top(self, n: int) -> list[RankedSite]:
        """A second provider's noisy re-ranking of the same population.

        Roughly 70% of its top ``n`` overlaps the canonical top ``n``;
        the rest is pulled from deeper ranks.
        """
        n = min(n, self.size)
        rng = self._tree.child("quantcast").rng()
        chosen: list[int] = []
        seen: set[int] = set()
        for position in range(1, n + 1):
            if rng.random() < 0.7 or self.size <= n:
                base = position
            else:
                base = rng.randrange(1, self.size + 1)
            candidate = base
            while candidate in seen:
                candidate = rng.randrange(1, self.size + 1)
            seen.add(candidate)
            chosen.append(candidate)
        entries = []
        for position, rank in enumerate(chosen, start=1):
            spec = self.spec_at_rank(rank)
            entries.append(RankedSite(rank=position, host=spec.host, url=f"http://{spec.host}/"))
        return entries


def ranked_top(specs, n: int) -> list[RankedSite]:
    """The canonical ranking's top ``n`` entries from a spec source."""
    entries = []
    for rank in range(1, n + 1):
        spec = specs.spec_at_rank(rank)
        entries.append(RankedSite(rank=rank, host=spec.host, url=f"http://{spec.host}/"))
    return entries


def eligibility_counts(specs, ranks) -> dict[str, int]:
    """Table 4's bucket counts for a rank set, from a spec source."""
    counts = {"load_failure": 0, "non_english": 0, "no_registration": 0,
              "ineligible": 0, "rest": 0}
    for rank in ranks:
        counts[specs.spec_at_rank(rank).eligibility_bucket] += 1
    return counts
