"""Registration campaigns (Sections 4.3.1, 5.1, 5.2).

The campaign walks a ranked URL list, filters out shared-backend
domains, and for each remaining site attempts a hard-password
registration first; when the crawler believes it succeeded, an
easy-password attempt (and occasionally a second hard attempt) is
enqueued.  Identities are burned the moment credentials were exposed,
and the mail server is told to expect registration mail.

The hard-then-easy ordering is the bias the paper flags in §6.1.2 —
:class:`RegistrationPolicy` exposes it (and the alternatives a future
deployment should prefer) for Ablation A.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.core.system import TripwireSystem
from repro.crawler.outcomes import CrawlOutcome, TerminationCode
from repro.data.sites import SHARED_BACKENDS
from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity
from repro.util.timeutil import SimInstant
from repro.web.population import RankedSite


class RegistrationPolicy(enum.Enum):
    """Order in which password classes are attempted per site."""

    HARD_FIRST = "hard_first"  # the paper's (biased) pilot behavior
    EASY_FIRST = "easy_first"
    SIMULTANEOUS = "simultaneous"  # both attempted unconditionally


@dataclass
class AttemptRecord:
    """One registration attempt bound to its site and identity."""

    site_host: str
    rank: int
    url: str
    identity: Identity
    password_class: PasswordClass
    outcome: CrawlOutcome
    manual: bool = False
    registered_at: SimInstant = 0

    @property
    def exposed(self) -> bool:
        """Whether the identity was shown to the site (and burned)."""
        return self.manual or self.outcome.exposed_credentials

    @property
    def believed_success(self) -> bool:
        """Whether the crawler's heuristics reported success."""
        return self.manual or self.outcome.code is TerminationCode.OK_SUBMISSION


@dataclass
class CampaignStats:
    """Counters over one campaign run."""

    sites_considered: int = 0
    sites_filtered: int = 0
    attempts: int = 0
    exposed_attempts: int = 0
    identities_consumed: int = 0
    skipped_no_identity: int = 0


class RegistrationCampaign:
    """Drives the crawler across a ranked site list."""

    #: URL filter for sites known to share a backend (Section 5.1).
    BACKEND_FILTER = re.compile(
        "|".join(re.escape(b) for b in SHARED_BACKENDS), re.IGNORECASE
    )

    def __init__(
        self,
        system: TripwireSystem,
        policy: RegistrationPolicy = RegistrationPolicy.HARD_FIRST,
        second_hard_probability: float = 0.15,
    ):
        self.system = system
        self.policy = policy
        self.second_hard_probability = second_hard_probability
        tree = getattr(system, "apparatus_tree", None) or system.tree
        self._rng = tree.child("campaign").rng()
        self.attempts: list[AttemptRecord] = []
        self.stats = CampaignStats()
        self._attempted_hosts: set[str] = set()
        # Incremental per-host indexes; scanning `attempts` per site is
        # quadratic over a ranked list (the pilot walks tens of
        # thousands of entries).
        self._attempts_by_host: dict[str, list[AttemptRecord]] = {}
        self._succeeded_hosts: set[str] = set()

    # -- batch API -----------------------------------------------------------------

    def run_batch(self, sites: list[RankedSite], skip_already_attempted: bool = True) -> int:
        """Attempt registrations across a ranked list; returns attempts made."""
        made = 0
        for entry in sites:
            self.stats.sites_considered += 1
            if self.BACKEND_FILTER.search(entry.host):
                self.stats.sites_filtered += 1
                continue
            if skip_already_attempted and entry.host in self._attempted_hosts:
                continue
            self._attempted_hosts.add(entry.host)
            made += self._attempt_site(entry)
            # Let scheduled world events (attacker checks, dumps) that
            # came due during the crawl fire in order.
            self.system.queue.run_until(self.system.clock.now())
        return made

    def _attempt_site(self, entry: RankedSite) -> int:
        # Instantiating wires the site into DNS/transport.
        self.system.population.site_at_rank(
            self.system.population.rank_of_host(entry.host)
            or self._rank_from_entry(entry)
        )
        if self.policy is RegistrationPolicy.EASY_FIRST:
            order = [PasswordClass.EASY, PasswordClass.HARD]
        else:
            order = [PasswordClass.HARD, PasswordClass.EASY]

        first = self._single_attempt(entry, order[0])
        attempts = 1 if first is not None else 0
        if first is None:
            return attempts

        proceed = (
            self.policy is RegistrationPolicy.SIMULTANEOUS or first.believed_success
        )
        if proceed:
            second = self._single_attempt(entry, order[1])
            if second is not None:
                attempts += 1
            if (
                second is not None
                and first.believed_success
                and self._rng.random() < self.second_hard_probability
            ):
                third = self._single_attempt(entry, PasswordClass.HARD)
                if third is not None:
                    attempts += 1
        return attempts

    def _rank_from_entry(self, entry: RankedSite) -> int:
        # Quantcast entries carry their own positions; fall back to the
        # canonical rank when the host is known, else treat position as rank.
        return entry.rank

    def _single_attempt(self, entry: RankedSite, password_class: PasswordClass) -> AttemptRecord | None:
        system = self.system
        identity = system.pool.checkout_any(entry.host, password_class)
        if identity is None:
            self.stats.skipped_no_identity += 1
            return None
        # Announce the expectation up front: verification mail can land
        # while the crawl is still in flight.
        started = system.clock.now()
        system.mail_server.expect_registration(identity.email_local, entry.host, started)
        outcome = system.crawler.register_at(entry.url, identity)
        record = AttemptRecord(
            site_host=entry.host,
            rank=system.population.rank_of_host(entry.host) or entry.rank,
            url=entry.url,
            identity=identity,
            password_class=password_class,
            outcome=outcome,
            registered_at=outcome.started_at,
        )
        if outcome.exposed_credentials:
            system.pool.burn(identity.identity_id)
            self.stats.exposed_attempts += 1
            self.stats.identities_consumed += 1
        else:
            system.pool.release(identity.identity_id)
        self._remember(record)
        self.stats.attempts += 1
        return record

    def _remember(self, record: AttemptRecord) -> None:
        self.attempts.append(record)
        self._attempts_by_host.setdefault(record.site_host, []).append(record)
        if record.believed_success:
            self._succeeded_hosts.add(record.site_host)

    def record_external_attempt(self, record: AttemptRecord) -> None:
        """Fold an attempt made outside the batch API into the ledger.

        Scenario code (e.g. §6.1.4 re-registration) drives the crawler
        directly but still wants the attempt in this campaign's history
        and indexes.
        """
        self._remember(record)

    # -- manual registration (Section 5.1's top-500 pass) ----------------------------

    def manual_register(self, entry: RankedSite) -> AttemptRecord | None:
        """A human operator registers at an eligible English site.

        The operator reads the page, so field identification is exact;
        only genuinely eligible sites succeed.  The paper registered
        manually with easy passwords only (Table 1's Manual row).
        """
        system = self.system
        rank = system.population.rank_of_host(entry.host) or entry.rank
        spec = system.population.spec_at_rank(rank)
        if not spec.eligible_for_tripwire:
            return None
        if entry.host in self._succeeded_hosts:
            return None  # already have an account here
        site = system.population.site_at_rank(rank)
        identity = system.pool.checkout_any(entry.host, PasswordClass.EASY)
        if identity is None:
            self.stats.skipped_no_identity += 1
            return None
        now = system.clock.now()
        # The registration must be announced before the form is
        # submitted so the mail server clicks the verification link.
        system.mail_server.expect_registration(identity.email_local, entry.host, now)
        accepted = self._human_fill_and_submit(site, spec, identity)
        if not accepted:
            # Credentials were still shown to the site: the identity is
            # burned, but we record nothing as a success.  (In practice
            # human registration succeeded on every eligible site.)
            system.pool.burn(identity.identity_id)
            return None
        outcome = CrawlOutcome(
            site_host=entry.host,
            url=entry.url,
            code=TerminationCode.OK_SUBMISSION,
            detail="manual registration",
            exposed_email=True,
            exposed_password=True,
            pages_loaded=0,
            started_at=now,
            finished_at=now,
        )
        record = AttemptRecord(
            site_host=entry.host,
            rank=rank,
            url=entry.url,
            identity=identity,
            password_class=PasswordClass.EASY,
            outcome=outcome,
            manual=True,
            registered_at=now,
        )
        self._remember(record)
        self.stats.attempts += 1
        self.stats.exposed_attempts += 1
        self._attempted_hosts.add(entry.host)
        system.clock.advance(120)  # a couple of minutes of human time
        return record

    def _human_fill_and_submit(self, site, spec, identity: Identity) -> bool:
        """Drive the site's registration over HTTP with perfect knowledge.

        A human operator reads labels correctly, solves captchas by
        looking at them, and completes multi-stage flows.  Returns
        whether the site accepted the registration.
        """
        from repro.html.parser import parse_html
        from repro.net.transport import TransportError
        from repro.web.captcha import captcha_answer_for
        from repro.web.spec import BotCheck, RegistrationStyle
        from repro.web.pages import registration_fields

        system = self.system
        host = spec.host
        scheme = "https" if spec.supports_https else "http"
        base = f"{scheme}://{host}"
        reg = spec.registration_path.rstrip("/")
        client_ip = system.proxy_pool.acquire_for_site(host)
        names = site.lex.field_names

        def value_for(semantic: str) -> str:
            mapping = {
                "email": identity.email_address,
                "username": identity.site_username,
                "password": identity.password,
                "password_confirm": identity.password,
                "first_name": identity.first_name,
                "last_name": identity.last_name,
                "phone": identity.phone,
            }
            return mapping[semantic]

        def bot_fields(page_body: str) -> dict[str, str]:
            dom = parse_html(page_body)
            extra: dict[str, str] = {}
            for node in dom.iter():
                token = node.get("data-challenge")
                if token:
                    extra[names["captcha"]] = captcha_answer_for(token)
                    extra["_challenge_token"] = token
            if spec.bot_check is BotCheck.INTERACTIVE:
                extra[f"{names['captcha']}_response"] = "human-verified"
            return extra

        def common_fields(semantics: list[str]) -> dict[str, str]:
            return {names[s]: value_for(s) for s in semantics}

        before = len(site.registration_log)
        try:
            system.clock.advance(60)  # human think time per page
            page = system.transport.get(f"{base}{reg}", client_ip=client_ip)
            if spec.registration_style is RegistrationStyle.MULTISTAGE:
                step1 = common_fields(registration_fields(spec, site.lex, step=1))
                system.clock.advance(60)
                step2_page = system.transport.post(
                    f"{base}{reg}/step2", step1, client_ip=client_ip
                )
                dom = parse_html(step2_page.body)
                stage_token = ""
                for node in dom.iter():
                    if node.get("name") == "stage_token":
                        stage_token = node.get("value")
                form = common_fields(registration_fields(spec, site.lex, step=2))
                form["stage_token"] = stage_token
                form.update(bot_fields(step2_page.body))
            else:
                form = common_fields(registration_fields(spec, site.lex, step=1))
                form.update(bot_fields(page.body))
            if spec.wants_terms_checkbox:
                form[names["terms"]] = "1"
            if spec.extra_unlabeled_field:
                form["x_fld_71"] = "n/a"
            system.clock.advance(90)
            system.transport.post(f"{base}{reg}/submit", form, client_ip=client_ip)
        except TransportError:
            # Under fault injection the connection can flap mid-flow.
            # Credentials may already have crossed the wire, so the
            # caller burns the identity; the registration just failed.
            return False
        log = site.registration_log[before:]
        return any(r.accepted and r.email == identity.email_address for r in log)

    # -- views --------------------------------------------------------------------------

    def attempts_for_site(self, host: str) -> list[AttemptRecord]:
        """All attempts at one site, oldest first."""
        return list(self._attempts_by_host.get(host.lower(), ()))

    def exposed_attempts(self) -> list[AttemptRecord]:
        """Attempts where an identity was burned (Table 1's universe)."""
        return [a for a in self.attempts if a.exposed]
