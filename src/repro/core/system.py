"""Assembly of the full Tripwire measurement system.

:class:`TripwireSystem` is a thin facade over the two explicit layers:
a :class:`repro.core.substrate.WorldShard` (clock, event queue,
transport, WHOIS/DNS, site population) and a
:class:`repro.core.apparatus.MeasurementApparatus` (email provider,
mail chain, identity machinery, crawler).  Everything is deterministic
given the seed; the familiar flat attributes (``system.clock``,
``system.crawler``, ...) are aliases into the layers so existing code
and tests are unaffected by the decomposition.

Sharded campaign execution (:mod:`repro.core.runner`) builds one
system per rank-partition with an ``apparatus_namespace`` so each
shard mints distinct identities, and hands every shard the same spec
source (``specs=``) so they agree on the site population.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.apparatus import MeasurementApparatus
from repro.core.substrate import WorldShard
from repro.crawler.engine import CrawlerConfig
from repro.email_provider.batch import LoginBatch
from repro.email_provider.telemetry import LoginMethod
from repro.faults.plan import FaultPlan
from repro.identity.passwords import PasswordClass
from repro.mail.messages import EmailMessage
from repro.net.ipaddr import IPv4Address
from repro.util.rngtree import RngTree
from repro.util.timeutil import STUDY_START, SimInstant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.world import WorldStore
    from repro.web.generator import SpecTable

__all__ = ["TripwireSystem"]


class TripwireSystem:
    """The wired-together measurement system and its world."""

    def __init__(
        self,
        seed: int = 7,
        population_size: int = 30000,
        retention_days: int = 60,
        start: SimInstant = STUDY_START,
        crawler_config: CrawlerConfig | None = None,
        site_overrides: dict[int, dict[str, object]] | None = None,
        apparatus_namespace: tuple[object, ...] = (),
        fault_plan: FaultPlan | None = None,
        obs_enabled: bool = False,
        specs: "SpecTable | WorldStore | None" = None,
    ):
        self.tree = RngTree(seed)
        #: The apparatus draws from a (possibly shard-namespaced) tree
        #: so parallel shards mint distinct identities; the substrate
        #: always uses the root tree so site specs agree across shards.
        self.apparatus_tree = (
            self.tree.child(*apparatus_namespace) if apparatus_namespace else self.tree
        )

        self.world = WorldShard(
            self.tree, start=start, fault_plan=fault_plan, obs_enabled=obs_enabled
        )
        self.apparatus = MeasurementApparatus(
            self.world,
            self.apparatus_tree,
            retention_days=retention_days,
            crawler_config=crawler_config,
        )
        #: ``specs`` shares site specs between the systems of one run:
        #: the seed's prefix-closed table (:mod:`repro.perf.warm`) or a
        #: world store.  Without it the population generates its own,
        #: in the order this system visits ranks.
        self.population = self.world.build_population(
            population_size,
            mail_router=self.route_site_mail,
            overrides=site_overrides,
            specs=specs,
        )

        # -- flat aliases into the layers (the pre-decomposition API) ------
        self.clock = self.world.clock
        self.queue = self.world.queue
        self.transport = self.world.transport
        self.whois = self.world.whois
        self.dns = self.world.dns
        self.provider = self.apparatus.provider
        self.mail_server = self.apparatus.mail_server
        self.forwarding_hop = self.apparatus.forwarding_hop
        self.identity_factory = self.apparatus.identity_factory
        self.pool = self.apparatus.pool
        self.control_locals = self.apparatus.control_locals
        self.proxy_pool = self.apparatus.proxy_pool
        self.solver = self.apparatus.solver
        self.crawler = self.apparatus.crawler
        self.fault_plan = self.world.fault_plan
        self.fault_report = self.world.fault_report
        self.obs = self.world.obs

    # -- mail routing ------------------------------------------------------------

    def route_site_mail(self, message: EmailMessage) -> bool:
        """Deliver site-originated mail to whichever domain it targets.

        Mail for the provider goes through the provider (which forwards
        to the Tripwire mail server); anything else evaporates — other
        providers are outside the measurement.
        """
        domain = message.recipient.partition("@")[2].lower()
        if domain == self.provider.domain:
            return self.provider.deliver(message)
        return False

    # -- identity provisioning -------------------------------------------------------

    def provision_identities(self, count: int, password_class: PasswordClass) -> int:
        """Create identities and the matching provider accounts."""
        return self.apparatus.provision_identities(count, password_class)

    def provision_control_accounts(self, count: int) -> list[str]:
        """Create control accounts we log into ourselves (Section 4.2)."""
        return self.apparatus.provision_control_accounts(count)

    def login_control_accounts(self) -> int:
        """Log into every control account from an institution IP.

        These logins must all surface in provider dumps — the liveness
        check on the telemetry pipeline.  The probes go through the
        provider's batch login engine as one window.
        """
        institution_ip: IPv4Address = self.proxy_pool.addresses[0]
        attempts = []
        for local in sorted(self.control_locals):
            identity = self.pool.identity_for_email(f"{local}@{self.provider.domain}")
            if identity is not None:
                attempts.append(
                    (local, identity.password, institution_ip, LoginMethod.WEBMAIL)
                )
        return self.provider.attempt_logins(LoginBatch.from_attempts(attempts)).successes
