"""The world substrate: everything a measurement runs *against*.

A :class:`WorldShard` bundles the simulation kernel (clock + event
queue), the network plane (transport, WHOIS, DNS) and the lazily
instantiated website population.  Shards are cheap and independent:
a sharded campaign builds one per rank-partition, each from the same
root seed and reading one shared spec source (the seed's prefix-closed
spec table or a world store), so every shard sees byte-identical site
specs for the ranks it touches while keeping all mutable state (clock,
request logs, site storage) private to the shard.

The apparatus layer (:mod:`repro.core.apparatus`) is wired against the
:mod:`repro.sim.protocols` seams, never against a shard directly, so
either a full shared world or a per-shard world can sit underneath it.

With a :class:`~repro.faults.plan.FaultPlan`, the substrate's own seams
are wrapped in fault injectors: the transport flaps (unreachable hosts,
TLS failures, slow responses) and the resolver intermittently fails.
Injector randomness derives from the substrate tree at
``("faults", plan.seed, <component>)``, so the fault stream is a pure
function of ``(world seed, plan)`` and sharded runs stay bit-identical
to serial with chaos enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.injectors import DnsFaultInjector, TransportFaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport
from repro.net.dns import DnsResolver
from repro.net.transport import Transport
from repro.net.whois import WhoisRegistry
from repro.obs import NO_OP, Observation
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from repro.util.rngtree import RngTree
from repro.util.timeutil import STUDY_START, SimInstant
from repro.web.population import InternetPopulation
from repro.web.site import MailRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.world import WorldStore
    from repro.web.generator import SpecTable


class WorldShard:
    """One self-contained slice of the simulated world.

    The substrate tree passed in governs site-spec generation; two
    shards that read one prefix-closed spec source agree on every spec
    (host names, eligibility, registration style) for every rank,
    which is what makes sharded results mergeable against a single
    ranked list.
    """

    def __init__(
        self,
        tree: RngTree,
        start: SimInstant = STUDY_START,
        fault_plan: FaultPlan | None = None,
        obs_enabled: bool = False,
    ):
        self.tree = tree
        self.clock = SimClock(start)
        #: One observation per world: spans, metrics and events are as
        #: shard-private as the clock, so a shard's capture is a pure
        #: function of its plan.  Disabled worlds share the no-op.
        self.obs = Observation(self.clock) if obs_enabled else NO_OP
        self.queue = EventQueue(self.clock)
        self.whois = WhoisRegistry()
        #: One report per world; apparatus-side injectors share it so a
        #: system yields a single merged fault ledger.
        self.fault_plan = fault_plan
        self.fault_report = FaultReport()

        transport = Transport(self.clock, obs=self.obs)
        dns = DnsResolver()
        if fault_plan is not None and fault_plan.enabled:
            fault_tree = tree.child("faults", fault_plan.seed)
            transport = TransportFaultInjector(
                transport, fault_plan, fault_tree.child("transport").rng(),
                self.fault_report, metrics=self.obs.metrics,
            )
            dns = DnsFaultInjector(
                dns, fault_plan, fault_tree.child("dns").rng(), self.fault_report,
                metrics=self.obs.metrics,
            )
        self.transport = transport
        self.dns = dns
        self.population: InternetPopulation | None = None

    def build_population(
        self,
        size: int,
        mail_router: MailRouter | None = None,
        overrides: dict[int, dict[str, object]] | None = None,
        specs: "SpecTable | WorldStore | None" = None,
    ) -> InternetPopulation:
        """Attach the ranked population (once) and return it.

        Built last because the mail router usually closes over the
        apparatus, which in turn needs the substrate's clock/transport.
        Sites register handlers and zones through the (possibly
        wrapped) transport/DNS — writes always delegate to the real
        objects, so faults only strike lookups and fetches.
        """
        if self.population is not None:
            raise RuntimeError("population already built for this shard")
        self.population = InternetPopulation(
            self.tree,
            self.clock,
            self.transport,
            self.whois,
            self.dns,
            size=size,
            mail_router=mail_router,
            overrides=overrides,
            specs=specs,
        )
        return self.population
