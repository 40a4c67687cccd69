"""Tests for the site generator and the ranked population."""

import pytest

from repro.net.dns import DnsResolver
from repro.net.transport import HostUnreachable, Transport
from repro.net.whois import WhoisRegistry
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree
from repro.web.generator import SiteGenerator, SpecTable, bot_check_prob, eligibility_probs
from repro.web.population import InternetPopulation, eligibility_counts
from repro.web.spec import RegistrationStyle


@pytest.fixture
def population():
    clock = SimClock()
    return InternetPopulation(
        RngTree(21), clock, Transport(clock), WhoisRegistry(), DnsResolver(), size=200
    )


class TestGeneratorDistributions:
    def test_specs_deterministic(self):
        a = SiteGenerator(RngTree(5)).spec_at_rank(10)
        b = SiteGenerator(RngTree(5)).spec_at_rank(10)
        assert a.host == b.host
        assert a.password_storage == b.password_storage

    def test_hosts_unique_across_ranks(self):
        generator = SiteGenerator(RngTree(6))
        hosts = {generator.spec_at_rank(rank).host for rank in range(1, 301)}
        assert len(hosts) == 300

    def test_eligibility_probs_interpolation(self):
        top = eligibility_probs(50)
        deep = eligibility_probs(100000)
        assert top == eligibility_probs(1)  # clamped below first anchor
        assert deep[2] > top[2]  # no-registration grows with rank

    def test_bot_check_prob_declines_with_rank(self):
        assert bot_check_prob(50) == pytest.approx(0.37)
        assert bot_check_prob(10000) == pytest.approx(0.15)
        assert bot_check_prob(100) > bot_check_prob(5000) > bot_check_prob(50000) - 0.01

    def test_overrides_applied(self):
        generator = SiteGenerator(
            RngTree(7),
            overrides={3: {"category": "Deals", "password_storage": "plaintext",
                           "bucket": "rest"}},
        )
        spec = generator.spec_at_rank(3)
        assert spec.category == "Deals"
        assert spec.password_storage == "plaintext"
        assert spec.eligibility_bucket == "rest"

    def test_unknown_override_rejected(self):
        generator = SiteGenerator(RngTree(8), overrides={1: {"no_such_field": 1}})
        with pytest.raises(ValueError):
            generator.spec_at_rank(1)

    def test_non_english_sites_use_non_english_lexicon(self):
        generator = SiteGenerator(RngTree(9))
        non_english = [generator.spec_at_rank(r) for r in range(1, 400)]
        samples = [s for s in non_english if not s.is_english]
        assert samples, "expected some non-English sites"
        assert all(s.language != "en" for s in samples)

    def test_population_level_bucket_rates(self):
        generator = SiteGenerator(RngTree(10))
        specs = [generator.spec_at_rank(r) for r in range(1, 1001)]
        non_english = sum(1 for s in specs if s.eligibility_bucket == "non_english")
        # Table 4: 37-53% around these ranks.
        assert 0.30 <= non_english / len(specs) <= 0.55


class TestPopulation:
    def test_rank_bounds_validated(self, population):
        with pytest.raises(ValueError):
            population.spec_at_rank(0)
        with pytest.raises(ValueError):
            population.spec_at_rank(201)

    def test_specs_cached(self, population):
        assert population.spec_at_rank(5) is population.spec_at_rank(5)

    def test_site_wired_into_transport_and_dns(self, population):
        site = population.site_at_rank(1)
        host = site.spec.host
        assert population.rank_of_host(host) == 1
        assert population.site_by_host(host) is site

    def test_load_failure_sites_marked_down(self):
        clock = SimClock()
        transport = Transport(clock)
        population = InternetPopulation(
            RngTree(22), clock, transport, WhoisRegistry(), DnsResolver(), size=400
        )
        down_ranks = [
            r for r in range(1, 401)
            if population.spec_at_rank(r).load_fails
        ]
        assert down_ranks, "expected some load-failing sites"
        rank = down_ranks[0]
        site = population.site_at_rank(rank)
        with pytest.raises(HostUnreachable):
            transport.get(f"http://{site.spec.host}/")

    def test_alexa_list_ordered(self, population):
        top = population.alexa_top(10)
        assert [entry.rank for entry in top] == list(range(1, 11))
        assert all(entry.url.startswith("http://") for entry in top)

    def test_quantcast_overlaps_but_differs(self, population):
        alexa_hosts = {e.host for e in population.alexa_top(50)}
        quantcast_hosts = {e.host for e in population.quantcast_top(50)}
        overlap = alexa_hosts & quantcast_hosts
        assert overlap  # substantial shared head
        assert quantcast_hosts - alexa_hosts  # plus some unique entries

    def test_quantcast_no_duplicate_hosts(self, population):
        hosts = [e.host for e in population.quantcast_top(80)]
        assert len(hosts) == len(set(hosts))

    def test_eligibility_ground_truth_sums(self, population):
        counts = eligibility_counts(population, range(1, 101))
        assert sum(counts.values()) == 100

    def test_mx_absent_for_some_sites(self):
        clock = SimClock()
        dns = DnsResolver()
        population = InternetPopulation(
            RngTree(23), clock, Transport(clock), WhoisRegistry(), dns, size=300
        )
        missing = 0
        for rank in range(1, 301):
            site = population.site_at_rank(rank)
            if dns.resolve_mx(site.spec.host) == []:
                missing += 1
        assert missing > 0  # site J's disclosure failure mode exists


class TestSpecInvariants:
    def test_eligible_requires_english_and_local_registration(self):
        generator = SiteGenerator(RngTree(11))
        for rank in range(1, 301):
            spec = generator.spec_at_rank(rank)
            if spec.eligible_for_tripwire:
                assert spec.is_english
                assert spec.registration_style in (
                    RegistrationStyle.SIMPLE, RegistrationStyle.MULTISTAGE
                )
                assert not spec.load_fails

    def test_bucket_consistency(self):
        generator = SiteGenerator(RngTree(12))
        for rank in range(1, 301):
            spec = generator.spec_at_rank(rank)
            bucket = spec.eligibility_bucket
            if bucket == "non_english":
                assert not spec.is_english
            if bucket == "rest":
                assert spec.eligible_for_tripwire


class TestSpecTable:
    def test_visit_order_does_not_matter(self):
        """Visited deepest rank first, a table still matches one filled
        in rank order; a generator visited that way does not (host
        collisions depend on which ranks it drew before)."""
        table, generator = SpecTable(13), SiteGenerator(RngTree(13))
        for rank in range(300, 0, -1):
            table.spec_at_rank(rank)
            generator.spec_at_rank(rank)
        in_order = SpecTable(13)
        expected = [in_order.spec_at_rank(r) for r in range(1, 301)]
        assert [table.spec_at_rank(r) for r in range(1, 301)] == expected
        assert [generator.spec_at_rank(r) for r in range(1, 301)] != expected
