"""Coverage gained by the crawler extensions the paper proposed (§7.2).

The paper names two upgrades it never built: multi-language support
("the single greatest improvement to the crawler's coverage") and
search-engine-assisted discovery of registration pages (§6.2.2).  The
study crawls the same ranked batch three ways (baseline, + language
packs, + packs and search) and counts the sites that end up with a
believed-successful registration and with an account that logs in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.campaign import RegistrationCampaign
from repro.core.system import TripwireSystem
from repro.crawler.engine import CrawlerConfig
from repro.crawler.outcomes import TerminationCode
from repro.identity.passwords import PasswordClass
from repro.search import SearchEngine
from repro.util.tables import render_table

LANGUAGE_PACKS = frozenset({"de", "es", "fr"})

#: The crawler configurations compared: label, language packs, search.
CONFIGURATIONS = (
    ("baseline (paper pilot)", False, False),
    ("+ language packs (de/es/fr)", True, False),
    ("+ packs + search engine", True, True),
)


@dataclass(frozen=True)
class CrawlCoverage:
    """What one crawl of the batch reached."""

    believed_sites: int  # sites with a believed-successful registration
    valid_sites: int  # sites where an exposed account really logs in
    language_skips: int  # attempts stopped at the language gate


def crawl_coverage(language_packs: bool, search: bool, sites: int = 250) -> CrawlCoverage:
    """Crawl the top-``sites`` batch of one seeded world."""
    config = CrawlerConfig(system_error_rate=0.0,
                           enabled_languages=LANGUAGE_PACKS if language_packs else frozenset())
    system = TripwireSystem(seed=505, population_size=sites, crawler_config=config)
    if search:
        system.crawler._search = SearchEngine(system.transport)
    system.provision_identities(sites + 60, PasswordClass.HARD)
    system.provision_identities(sites // 2 + 30, PasswordClass.EASY)
    campaign = RegistrationCampaign(system, second_hard_probability=0.0)
    campaign.run_batch(system.population.alexa_top(sites))
    valid = set()
    for attempt in campaign.exposed_attempts():
        site = system.population.site_by_host(attempt.site_host)
        if site and site.check_credentials(attempt.identity.email_address,
                                           attempt.identity.password):
            valid.add(attempt.site_host)
    return CrawlCoverage(
        believed_sites=len({a.site_host for a in campaign.attempts if a.believed_success}),
        valid_sites=len(valid),
        language_skips=sum(
            a.outcome.code is TerminationCode.NOT_ENGLISH for a in campaign.attempts
        ),
    )


def coverage_sweep(sites: int = 250) -> dict[str, CrawlCoverage]:
    """One crawl per configuration, keyed by its label."""
    return {
        label: crawl_coverage(packs, search, sites)
        for label, packs, search in CONFIGURATIONS
    }


def render_coverage(results: dict[str, CrawlCoverage], sites: int) -> str:
    rows = [
        [label, c.believed_sites, c.valid_sites, c.language_skips]
        for label, c in results.items()
    ]
    return render_table(
        ["Crawler configuration", "Believed-success sites",
         "Sites with valid account", "Language skips"],
        rows, title=f"Extension coverage over the same top-{sites} batch (§7.2)",
        align_right=(1, 2, 3),
    )
