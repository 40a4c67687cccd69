"""The pilot study, end to end (Sections 5 and 6).

Timeline reproduced:

- **Dec 2014** — seed crawl over the merged Alexa+Quantcast top lists;
- **Jan–Mar 2015** — the main crawl over the Alexa top list;
- **Nov 2015** — a second sweep over a larger prefix;
- **May 2016** — manual registrations at the top-ranked eligible sites,
  plus re-registration at sites already detected as compromised;
- breaches strike registered sites from Spring 2015 onward; attackers
  crack what the storage policy allows and feed credentials into
  botnet-driven reuse checks at the email provider;
- sporadic provider dumps (with the Spring-2015 retention gap) feed the
  monitor; disclosures go out in September and November 2016;
- observation ends **February 1, 2017**.

Counts are scaled by configuration; the default is a 10%-scale world
that runs in well under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacker.botnet import BotnetProxyNetwork
from repro.attacker.breach import BreachEvent, BreachMethod, execute_breach
from repro.attacker.checker import CredentialChecker
from repro.attacker.cracking import crack_records
from repro.attacker.monetize import Monetizer
from repro.attacker.profiles import draw_profile
from repro.core.campaign import RegistrationCampaign
from repro.core.disclosure import DisclosureCoordinator
from repro.core.estimation import CategoryEstimate, SuccessEstimator
from repro.core.monitor import CompromiseMonitor, DumpIngestion
from repro.core.system import TripwireSystem
from repro.faults.plan import FaultPlan
from repro.identity.passwords import PasswordClass
from repro.util.timeutil import (
    DAY,
    LOG_GAP_START,
    MAIN_CRAWL_START,
    MANUAL_CRAWL_START,
    SEED_CRAWL_START,
    STUDY_END,
    TOP30K_CRAWL_START,
    SimInstant,
    instant_from_date,
)
from repro.web.passwords import PasswordStorage
from repro.web.site import Website

#: Breaches aimed at a site holding only an easy account (site P).
EASY_ONLY_BREACHES = 1

#: Organic (non-Tripwire) accounts a breached site holds, min and max.
ORGANIC_ACCOUNTS = (20, 120)


def dump_dates() -> tuple[SimInstant, ...]:
    """Sporadic provider dumps reproducing the Spring-2015 retention gap."""
    dates = [LOG_GAP_START]  # 2015-03-20: the last dump before the gap
    cursor = instant_from_date(2015, 8, 1)
    while cursor < STUDY_END:
        dates.append(cursor)
        cursor += 55 * DAY
    dates.append(STUDY_END)
    return tuple(dates)


@dataclass
class ScenarioConfig:
    """Scale and behavior knobs for a pilot run."""

    seed: int = 7
    population_size: int = 3000
    seed_list_size: int = 200  # per ranking provider (paper: 1,000 each)
    main_crawl_top: int = 2500  # paper: 25,000
    second_crawl_top: int = 3000  # paper: 30,000
    manual_top: int = 50  # paper: 500
    breach_count: int = 19
    breach_hard_exposing: int = 10  # sites where hard passwords leak
    unused_account_count: int = 1000  # paper: >100,000
    control_account_count: int = 8
    retention_days: int = 60
    avoided_domains: tuple[str, ...] = ()  # attacker provider avoidance
    #: Shared-backend site pairs (the paper's sites E/F): one breach
    #: exposes the whole family, with temporally aligned checking.
    site_family_count: int = 1
    #: §6.1.4: one re-registered site gets breached again (site H was
    #: the only site whose post-detection account was accessed).
    rebreach_one_site: bool = True
    site_overrides: dict[int, dict[str, object]] = field(default_factory=dict)
    #: Deterministic chaos: None (or an all-zero plan) reproduces the
    #: fault-free run bit for bit.
    fault_plan: FaultPlan | None = None
    #: Observability: spans, metrics and events recorded against the
    #: sim clock.  Off by default — the no-op path costs nothing.
    obs_enabled: bool = False


@dataclass
class GroundTruthBreach:
    """What actually happened to one site (simulation ground truth)."""

    event: BreachEvent
    stolen_count: int
    cracked_count: int
    campaigns_started: int


@dataclass
class PilotResult:
    """Everything the analysis layer consumes."""

    config: ScenarioConfig
    system: TripwireSystem
    campaign: RegistrationCampaign
    monitor: CompromiseMonitor
    estimates: list[CategoryEstimate]
    breaches: list[GroundTruthBreach]
    checker: CredentialChecker
    monetizer: Monetizer
    disclosure: DisclosureCoordinator
    reregistration_hosts: list[str] = field(default_factory=list)

    @property
    def detected_hosts(self) -> set[str]:
        """Sites the monitor flagged."""
        return set(self.monitor.detections)

    @property
    def breached_hosts(self) -> set[str]:
        """Sites actually breached (ground truth)."""
        return {b.event.site_host for b in self.breaches}


class PilotScenario:
    """Builds and executes one pilot run."""

    def __init__(self, config: ScenarioConfig | None = None):
        self.config = config or ScenarioConfig()
        cfg = self.config
        self._install_family_overrides(cfg)
        self.system = TripwireSystem(
            seed=cfg.seed,
            population_size=cfg.population_size,
            retention_days=cfg.retention_days,
            site_overrides=cfg.site_overrides or None,
            fault_plan=cfg.fault_plan,
            obs_enabled=cfg.obs_enabled,
        )
        self._rng = self.system.tree.child("scenario").rng()
        self.campaign = RegistrationCampaign(self.system)
        self.monitor = CompromiseMonitor(
            self.system.pool, self.system.control_locals, self.system.provider.domain
        )
        self._dump_ingestion = DumpIngestion(self.system, self.monitor)
        self.botnet = BotnetProxyNetwork(
            self.system.whois, self.system.tree.child("botnet").rng()
        )
        self.monetizer = Monetizer(
            self.system.provider, self.system.tree.child("monetizer").rng(),
            obs=self.system.obs,
        )
        self.checker = CredentialChecker(
            self.system.provider,
            self.botnet,
            self.system.queue,
            self.system.tree.child("checker").rng(),
            monetizer=self.monetizer,
            avoided_domains=frozenset(cfg.avoided_domains),
            horizon=STUDY_END,
        )
        self.disclosure = DisclosureCoordinator(
            self.system.dns, self.system.tree.child("disclosure").rng()
        )
        self.breaches: list[GroundTruthBreach] = []
        self.reregistration_hosts: list[str] = []
        self._breach_targets: set[str] = set()
        self._executed_breach_hosts: set[str] = set()
        self._scheduled_breaches = 0
        self._hard_exposing_scheduled = 0
        self._easy_only_scheduled_count = 0

    # -- main entry point --------------------------------------------------------

    def run(self) -> PilotResult:
        """Execute the full pilot and return the result bundle."""
        cfg = self.config
        system = self.system

        self._provision_identities()
        self._schedule_dumps()
        self._schedule_control_logins()

        # December 2014: seed crawl (Alexa + Quantcast merged, §5.1).
        self._advance_to(SEED_CRAWL_START)
        seed_list = self._merged_seed_list()
        self.campaign.run_batch(seed_list)

        # January–March 2015: the main crawl.
        self._advance_to(MAIN_CRAWL_START)
        self.campaign.run_batch(system.population.alexa_top(cfg.main_crawl_top))
        wave1 = max(1, int(round(cfg.breach_count * 0.63))) if cfg.breach_count else 0
        self._schedule_breach_wave(
            count=wave1,
            window=(instant_from_date(2015, 4, 10), instant_from_date(2016, 2, 1)),
        )

        # November 2015: the wider sweep.
        self._advance_to(TOP30K_CRAWL_START)
        self.campaign.run_batch(system.population.alexa_top(cfg.second_crawl_top))
        self._schedule_breach_wave(
            count=cfg.breach_count - self._scheduled_breaches,
            window=(instant_from_date(2016, 1, 15), instant_from_date(2016, 11, 15)),
        )

        # May 2016: manual top-list registrations + re-registration at
        # already-detected sites (§6.1.4).
        self._advance_to(MANUAL_CRAWL_START)
        for entry in system.population.alexa_top(cfg.manual_top):
            self.campaign.manual_register(entry)
        self._reregister_detected()

        # September / November 2016: disclosures.
        self._advance_to(instant_from_date(2016, 9, 7))
        self._disclose_detected()
        self._advance_to(instant_from_date(2016, 11, 4))
        self._disclose_detected()

        # Run out the clock; the final dump lands at the end date.
        system.queue.run_until(STUDY_END)
        # Late detections (sites tripped after the November batch) are
        # disclosed at the end of the observation window.
        self._disclose_detected()

        estimator = SuccessEstimator(system)
        estimates = estimator.estimate(self.campaign.exposed_attempts())
        return PilotResult(
            config=cfg,
            system=system,
            campaign=self.campaign,
            monitor=self.monitor,
            estimates=estimates,
            breaches=self.breaches,
            checker=self.checker,
            monetizer=self.monetizer,
            disclosure=self.disclosure,
            reregistration_hosts=self.reregistration_hosts,
        )

    # -- setup helpers ----------------------------------------------------------------

    @staticmethod
    def _install_family_overrides(cfg: ScenarioConfig) -> None:
        """Pin shared-backend site pairs into the population (sites E/F).

        Each family is two adjacent ranks inside the crawled prefix with
        identical hosting company characteristics and one registration
        backend; a breach of either exposes both.
        """
        from repro.web.spec import (
            BotCheck as _BotCheck,
            LinkPlacement as _LinkPlacement,
            RegistrationStyle as _RegistrationStyle,
            ResponseStyle as _ResponseStyle,
        )

        for index in range(cfg.site_family_count):
            base_rank = max(5, cfg.main_crawl_top // 3) + 2 * index
            family = f"gamecorp-{index}"
            for offset in range(2):
                rank = base_rank + offset
                if rank > cfg.population_size:
                    continue
                cfg.site_overrides.setdefault(rank, {}).update({
                    "bucket": "rest",
                    "language": "en",
                    "load_fails": False,
                    "category": "Gaming",
                    "registration_style": _RegistrationStyle.SIMPLE,
                    "link_placement": _LinkPlacement.PROMINENT,
                    "anchor_text": "Sign up",
                    "registration_path": "/signup",
                    "bot_check": _BotCheck.NONE,
                    "response_style": _ResponseStyle.CLEAR,
                    "extra_unlabeled_field": False,
                    "requires_special_char": False,
                    "shadow_ban_rate": 0.0,
                    "max_email_length": None,
                    "max_username_length": None,
                    "password_storage": "salted_hash",
                    "site_brute_force_protection": False,  # like E/F (§6.3.5)
                    "lists_usernames_publicly": True,  # like E/F (§6.3.5)
                    "backend_family": family,
                })

    def _provision_identities(self) -> None:
        cfg = self.config
        expected_attempts = (
            2 * cfg.seed_list_size + cfg.main_crawl_top + cfg.second_crawl_top
        )
        hard_needed = int(expected_attempts * 0.9) + 50
        easy_needed = int(expected_attempts * 0.5) + cfg.manual_top + 50
        self.system.provision_identities(hard_needed, PasswordClass.HARD)
        self.system.provision_identities(easy_needed, PasswordClass.EASY)
        # The unused honeypot block: provisioned, never registered.
        half = cfg.unused_account_count // 2
        self.system.provision_identities(half, PasswordClass.HARD)
        self.system.provision_identities(cfg.unused_account_count - half, PasswordClass.EASY)
        self.system.provision_control_accounts(cfg.control_account_count)

    def _schedule_dumps(self) -> None:
        # Sporadic one-shot dump dates; the shared DumpIngestion step
        # (also driven recurrently by service mode) does the collection
        # and handles fault-postponed hand-offs.
        for when in dump_dates():
            self.system.queue.schedule(when, "provider-dump", self._dump_ingestion)

    def _schedule_control_logins(self) -> None:
        cursor = SEED_CRAWL_START
        while cursor < STUDY_END:
            self.system.queue.schedule(
                cursor, "control-logins", self.system.login_control_accounts
            )
            cursor += 30 * DAY

    def _merged_seed_list(self):
        cfg = self.config
        alexa = self.system.population.alexa_top(cfg.seed_list_size)
        quantcast = self.system.population.quantcast_top(cfg.seed_list_size)
        seen = set()
        merged = []
        for entry in alexa + quantcast:
            if entry.host in seen:
                continue
            seen.add(entry.host)
            merged.append(entry)
        return merged

    def _advance_to(self, when: SimInstant) -> None:
        self.system.queue.run_until(when)

    # -- breaches -------------------------------------------------------------------

    def _sites_with_accounts(self) -> list[Website]:
        """Instantiated sites holding at least one Tripwire account."""
        provider_domain = self.system.provider.domain
        sites = []
        for site in self.system.population.instantiated_sites():
            if any(
                a.email.endswith(f"@{provider_domain}")
                for a in site.accounts.all_accounts()
            ):
                sites.append(site)
        return sites

    def _classify_candidates(self) -> dict[str, list[Website]]:
        """Candidate pools for the breach mix (Table 2's structure)."""
        provider_domain = f"@{self.system.provider.domain}"
        pools: dict[str, list[Website]] = {"hard": [], "hashed": [], "easy_only": []}
        for site in self._sites_with_accounts():
            if site.spec.host in self._breach_targets:
                continue
            tripwire = [
                a for a in site.accounts.all_accounts() if a.email.endswith(provider_domain)
            ]
            classes = {self._password_class_of(a) for a in tripwire}
            has_hard = PasswordClass.HARD in classes
            has_easy = PasswordClass.EASY in classes
            if has_easy and not has_hard:
                pools["easy_only"].append(site)
            if has_hard:
                pools["hard"].append(site)
            if has_easy:
                pools["hashed"].append(site)
        return pools

    def _password_class_of(self, account) -> PasswordClass | None:
        identity = self.system.pool.identity_for_email(account.email)
        return identity.password_class if identity is not None else None

    def _schedule_breach_wave(self, count: int, window: tuple[SimInstant, SimInstant]) -> None:
        if count <= 0:
            return
        cfg = self.config
        pools = self._classify_candidates()
        rng = self._rng
        targets: list[tuple[Website, BreachMethod]] = []

        def reserve(site: Website) -> None:
            """Claim a target — and its whole backend family, since the
            breach event will pull the siblings in at the same time."""
            self._breach_targets.add(site.spec.host)
            family = site.spec.backend_family
            if family is None:
                return
            for sibling in self.system.population.instantiated_sites():
                if sibling.spec.backend_family == family:
                    self._breach_targets.add(sibling.spec.host)

        def take(pool: list[Website]) -> Website | None:
            candidates = [s for s in pool if s.spec.host not in self._breach_targets]
            if not candidates:
                return None
            site = rng.choice(candidates)
            reserve(site)
            return site

        # A shared-backend family member goes first when available, so
        # the E/F phenomenon (one breach, two detected sites) appears.
        family_candidates = [
            s for s in pools["hashed"] + pools["hard"]
            if s.spec.backend_family and s.spec.host not in self._breach_targets
        ]
        if family_candidates and len(targets) < count:
            site = family_candidates[0]
            reserve(site)
            targets.append((site, BreachMethod.DB_DUMP))

        hard_quota = min(
            max(0, cfg.breach_hard_exposing - self._hard_exposing_scheduled),
            max(0, count - len(targets)),
        )
        for _ in range(hard_quota):
            site = take(pools["hard"])
            if site is None:
                break
            storage = PasswordStorage(site.spec.password_storage)
            method = (
                BreachMethod.DB_DUMP
                if storage.exposes_all_passwords
                else BreachMethod.ONLINE_CAPTURE
            )
            targets.append((site, method))
            self._hard_exposing_scheduled += 1

        easy_only_quota = max(0, EASY_ONLY_BREACHES - self._easy_only_scheduled_count)
        for _ in range(max(0, min(easy_only_quota, count - len(targets)))):
            site = take(pools["easy_only"])
            if site is None:
                break
            targets.append((site, BreachMethod.DB_DUMP))
            self._easy_only_scheduled_count += 1

        while len(targets) < count:
            site = take(pools["hashed"])
            if site is None:
                break
            # A database dump: hashed storage protects hard passwords,
            # reversible storage does not (site A's situation).
            targets.append((site, BreachMethod.DB_DUMP))

        for site, method in targets:
            when = rng.randrange(window[0], window[1])
            shards = None
            if site.spec.shard_count > 1 and rng.random() < 0.5:
                exposed = rng.sample(
                    range(site.spec.shard_count), max(1, site.spec.shard_count // 2)
                )
                shards = frozenset(exposed)
            event = BreachEvent(
                site_host=site.spec.host, time=when, method=method, exposed_shards=shards
            )
            self._scheduled_breaches += 1
            self.system.queue.schedule(
                when, f"breach:{site.spec.host}", lambda e=event, s=site: self._execute_breach(s, e)
            )

    def _execute_breach(self, site: Website, event: BreachEvent) -> None:
        profile = draw_profile(self._rng)
        self._breach_one(site, event, profile)
        # A shared registration backend (sites E/F) means one breach
        # exposes every family member, checked with the same loosely
        # coupled machinery — hence the temporally aligned logins the
        # paper observed (§6.4.1).
        family = site.spec.backend_family
        if family is None:
            return
        for sibling in self.system.population.instantiated_sites():
            if sibling.spec.backend_family != family:
                continue
            if sibling.spec.host == site.spec.host:
                continue
            if sibling.spec.host in self._executed_breach_hosts:
                continue
            self._breach_targets.add(sibling.spec.host)
            sibling_event = BreachEvent(
                site_host=sibling.spec.host, time=event.time, method=event.method
            )
            self._breach_one(sibling, sibling_event, profile)

    def _breach_one(self, site: Website, event: BreachEvent, profile) -> None:
        self._executed_breach_hosts.add(site.spec.host)
        site.seed_organic_accounts(self._rng.randint(*ORGANIC_ACCOUNTS))
        stolen = execute_breach(site, event, obs=self.system.obs)
        cracked = crack_records(stolen, event.time)
        started = self.checker.launch(cracked, profile)
        self.breaches.append(
            GroundTruthBreach(
                event=event,
                stolen_count=len(stolen),
                cracked_count=len(cracked),
                campaigns_started=started,
            )
        )

    # -- re-registration and disclosure ------------------------------------------------

    def _reregister_detected(self) -> None:
        from repro.core.campaign import AttemptRecord
        from repro.web.population import RankedSite

        for host in sorted(self.monitor.detections):
            rank = self.system.population.rank_of_host(host)
            if rank is None:
                continue
            spec = self.system.population.spec_at_rank(rank)
            entry = RankedSite(rank=rank, host=host, url=f"http://{spec.host}/")
            identity = self.system.pool.checkout_any(host, PasswordClass.HARD)
            if identity is None:
                continue
            started = self.system.clock.now()
            self.system.mail_server.expect_registration(
                identity.email_local, host, started
            )
            outcome = self.system.crawler.register_at(entry.url, identity)
            if outcome.exposed_credentials:
                self.system.pool.burn(identity.identity_id)
            else:
                self.system.pool.release(identity.identity_id)
            # Recorded in the campaign ledger so the §6.1.4 recovery
            # analysis can track each fresh account's fate.
            self.campaign.record_external_attempt(
                AttemptRecord(
                    site_host=host,
                    rank=rank,
                    url=entry.url,
                    identity=identity,
                    password_class=PasswordClass.HARD,
                    outcome=outcome,
                    registered_at=started,
                )
            )
            self.reregistration_hosts.append(host)
        self._maybe_schedule_rebreach()

    def _maybe_schedule_rebreach(self) -> None:
        """§6.1.4: most sites recover, but one (site H) was breached
        again and its fresh account accessed."""
        cfg = self.config
        if not cfg.rebreach_one_site or not self.reregistration_hosts:
            return
        # Prefer a site whose fresh account actually exists, so the
        # re-breach has a honey account to expose (site H's situation).
        candidates = []
        for attempt in self.campaign.attempts:
            if attempt.site_host not in self.reregistration_hosts:
                continue
            if attempt.registered_at < MANUAL_CRAWL_START:
                continue  # an original (pre-detection) registration
            site = self.system.population.site_by_host(attempt.site_host)
            if site and site.accounts.lookup(attempt.identity.email_address):
                candidates.append(attempt.site_host)
        pool = sorted(set(candidates)) or sorted(self.reregistration_hosts)
        host = self._rng.choice(pool)
        site = self.system.population.site_by_host(host)
        if site is None:
            return
        latest = STUDY_END - 45 * DAY
        earliest = self.system.clock.now() + 30 * DAY
        if earliest >= latest:
            return
        when = self._rng.randrange(earliest, latest)
        event = BreachEvent(site_host=host, time=when,
                            method=BreachMethod.ONLINE_CAPTURE)
        self.system.queue.schedule(
            when, f"rebreach:{host}", lambda: self._execute_breach(site, event)
        )

    def _disclose_detected(self) -> None:
        now = self.system.clock.now()
        already = {r.site_host for r in self.disclosure.records}
        for host in sorted(self.monitor.detections):
            if host in already:
                continue
            self.disclosure.disclose(host, now)
