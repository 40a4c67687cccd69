"""The measurement apparatus: everything Tripwire itself operates.

A :class:`MeasurementApparatus` owns the email-provider relationship,
the forwarding chain and mail server, the identity machinery and the
registration crawler.  It is wired against a
:class:`repro.core.substrate.WorldShard`'s protocol seams
(:mod:`repro.sim.protocols`), never against global singletons, so the
same apparatus code runs identically on the single shared world of
:class:`repro.core.system.TripwireSystem` and on each independent
shard of a :class:`repro.core.runner.CampaignRunner` execution.

Randomness comes from an *apparatus tree* that may be namespaced per
shard (``root.child("shard", k)``): shards then mint distinct
identities and crawl with distinct error streams, while the substrate
tree — which governs site specs — stays the root so every shard agrees
on what the web looks like.

With a :class:`~repro.faults.plan.FaultPlan`, the apparatus-side seams
degrade too: the captcha solver returns unsolved/mis-solved answers,
the forwarding chain's final leg drops/delays/duplicates mail (with the
hop retrying transient relay failures under the plan's
:class:`~repro.faults.retry.RetryPolicy`), provider dumps arrive late
or truncated, and the crawler retries transient failures with capped
backoff.  All injectors share the world's
:class:`~repro.faults.report.FaultReport`.
"""

from __future__ import annotations

from repro.crawler.captcha import CaptchaSolverService
from repro.crawler.engine import CrawlerConfig, RegistrationCrawler
from repro.email_provider.provider import EmailProvider
from repro.faults.injectors import (
    MailFaultInjector,
    SolverFaultInjector,
    TelemetryFaultInjector,
)
from repro.identity.generator import IdentityFactory
from repro.identity.passwords import PasswordClass
from repro.identity.pool import IdentityPool
from repro.mail.forwarding import ForwardingHop
from repro.mail.server import TripwireMailServer
from repro.net.proxies import ResearchProxyPool
from repro.core.substrate import WorldShard
from repro.util.rngtree import RngTree

#: The email provider that hosts every Tripwire account.
PROVIDER_DOMAIN = "bigmail.example"

#: Cover domains whose mail is hosted third-party then relayed to us.
COVER_DOMAINS = ("plainmailbox.example", "mailrelay-7.example")

#: Research proxy addresses the crawler rotates through.
PROXY_POOL_SIZE = 64


class MeasurementApparatus:
    """Provider, mail chain, identities and crawler over one substrate."""

    def __init__(
        self,
        world: WorldShard,
        tree: RngTree,
        retention_days: int = 60,
        crawler_config: CrawlerConfig | None = None,
    ):
        self.world = world
        self.tree = tree
        obs = world.obs
        plan = world.fault_plan
        faults_on = plan is not None and plan.enabled
        self.fault_report = world.fault_report
        #: The apparatus fault streams hang off the (possibly
        #: shard-namespaced) apparatus tree: shards inject independent
        #: apparatus-side fault sequences, deterministically.
        fault_tree = tree.child("faults", plan.seed) if faults_on else None

        # -- email provider and mail chain ---------------------------------
        self.provider = EmailProvider(
            PROVIDER_DOMAIN, world.clock, tree, retention_days=retention_days,
            obs=obs,
        )
        self.mail_server = TripwireMailServer(
            world.transport, tree.child("mail-server").rng()
        )
        deliver = self.mail_server.receive
        retry = None
        retry_rng = None
        if faults_on:
            assert plan is not None and fault_tree is not None
            deliver = MailFaultInjector(
                deliver, plan, fault_tree.child("mail").rng(),
                self.fault_report, queue=world.queue, metrics=obs.metrics,
            )
            retry = plan.retry
            retry_rng = fault_tree.child("mail-retry").rng()
        self.forwarding_hop = ForwardingHop(
            list(COVER_DOMAINS), deliver,
            retry=retry, clock=world.clock, rng=retry_rng,
            fault_report=self.fault_report if faults_on else None,
            obs=obs,
        )
        self.provider.set_forwarding_hop(self.forwarding_hop)

        #: Telemetry dumps degrade only under a plan; the scenario's
        #: dump collector consults this when not None.
        self.telemetry_faults: TelemetryFaultInjector | None = None
        if faults_on:
            assert plan is not None and fault_tree is not None
            self.telemetry_faults = TelemetryFaultInjector(
                self.provider, plan, fault_tree.child("telemetry").rng(),
                self.fault_report, metrics=obs.metrics,
            )

        # -- identities ------------------------------------------------------
        self.identity_factory = IdentityFactory(tree, email_domain=PROVIDER_DOMAIN)
        self.pool = IdentityPool()
        self.control_locals: set[str] = set()
        self._forward_index = 0

        # -- crawler apparatus ------------------------------------------------
        self.proxy_pool = ResearchProxyPool(
            world.whois, tree.child("proxies").rng(), pool_size=PROXY_POOL_SIZE
        )
        solver: CaptchaSolverService = CaptchaSolverService(tree.child("solver").rng())
        if faults_on:
            assert plan is not None and fault_tree is not None
            solver = SolverFaultInjector(
                solver, plan, fault_tree.child("solver").rng(), self.fault_report,
                metrics=obs.metrics,
            )
        self.solver = solver
        self.crawler = RegistrationCrawler(
            world.transport,
            self.solver,
            tree.child("crawler").rng(),
            config=crawler_config,
            proxy_pool=self.proxy_pool,
            retry_policy=plan.retry if faults_on else None,
            fault_report=self.fault_report if faults_on else None,
            obs=obs,
        )

    # -- identity provisioning ----------------------------------------------

    def provision_identities(self, count: int, password_class: PasswordClass) -> int:
        """Create identities and the matching provider accounts.

        Identities the provider rejects (collision / naming policy) are
        discarded, as in the paper.  Returns how many joined the pool.
        """
        added = 0
        for _ in range(count):
            identity = self.identity_factory.create(password_class)
            result = self.provider.provision(
                identity.email_local,
                identity.full_name,
                identity.password,
                forwarding_address=self.forwarding_hop.address_for(
                    identity.email_local, self._forward_index
                ),
            )
            self._forward_index += 1
            if not result.created:
                continue
            self.pool.add(identity)
            added += 1
        return added

    def provision_control_accounts(self, count: int) -> list[str]:
        """Create control accounts we log into ourselves (Section 4.2)."""
        created = []
        for _ in range(count):
            identity = self.identity_factory.create(PasswordClass.HARD)
            result = self.provider.provision(
                identity.email_local, identity.full_name, identity.password
            )
            if not result.created:
                continue
            self.pool.add_control(identity)
            self.control_locals.add(identity.email_local.lower())
            created.append(identity.email_local)
        return created
