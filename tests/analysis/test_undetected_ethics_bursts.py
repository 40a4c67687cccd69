"""Tests for the §6.2 miss taxonomy, §3 ethics audit and §6.4.2 bursts."""

from collections import Counter

import pytest

from repro.analysis.bursts import (
    analyze_account,
    build_burst_report,
    render_burst_report,
)
from repro.analysis.ethics import audit_load, render_ethics_audit
from repro.analysis.undetected import (
    MissReason,
    explain_miss,
    miss_report,
    render_miss_report,
)
from repro.core.monitor import AttributedLogin
from repro.core.scenario import PilotScenario, ScenarioConfig
from repro.email_provider.telemetry import LoginEvent, LoginMethod
from repro.identity.passwords import PasswordClass
from repro.net.ipaddr import IPv4Address
from repro.util.timeutil import MINUTE


class TestMissTaxonomy:
    def test_detected_host_classified_detected(self, pilot_result):
        detected = pilot_result.detected_hosts
        if not detected:
            return
        host = sorted(detected)[0]
        reason = explain_miss(pilot_result.system, pilot_result.campaign,
                              detected, host)
        assert reason is MissReason.DETECTED

    def test_unattempted_host_is_out_of_corpus(self, pilot_result):
        population = pilot_result.system.population
        attempted = {a.site_host for a in pilot_result.campaign.attempts}
        for rank in range(population.size, 0, -1):
            spec = population.spec_at_rank(rank)
            if spec.host not in attempted:
                reason = explain_miss(pilot_result.system, pilot_result.campaign,
                                      set(), spec.host)
                assert reason is MissReason.RANK_OUTSIDE_CORPUS
                return

    def test_non_english_attempts_classified(self, pilot_result):
        from repro.crawler.outcomes import TerminationCode

        for attempt in pilot_result.campaign.attempts:
            if attempt.outcome.code is TerminationCode.NOT_ENGLISH:
                reason = explain_miss(pilot_result.system, pilot_result.campaign,
                                      set(), attempt.site_host)
                assert reason is MissReason.NON_ENGLISH
                return

    def test_miss_report_totals(self, pilot_result):
        hosts = sorted({a.site_host for a in pilot_result.campaign.attempts})[:20]
        tally = miss_report(pilot_result.system, pilot_result.campaign,
                            pilot_result.detected_hosts, hosts)
        assert sum(tally.values()) == len(hosts)
        text = render_miss_report(tally)
        assert "Section 6.2" in text and "subtotals:" in text

    def test_every_reason_has_category(self):
        for reason in MissReason:
            assert reason.category in ("detected", "scale/scope", "technical",
                                       "inherent", "coverage")

    @pytest.mark.slow
    def test_missed_breach_sample(self, experiments_quote):
        """§6.2's post-mortem: 50 breached sites where Tripwire holds no
        working account, which it would therefore miss."""
        world = ScenarioConfig(
            seed=88, population_size=900, seed_list_size=80,
            main_crawl_top=500,  # ranks past 550 stay outside the corpus
            second_crawl_top=550, manual_top=15,
            breach_count=0, unused_account_count=100, control_account_count=3,
        )
        result = PilotScenario(world).run()
        population = result.system.population
        covered = set()
        for attempt in result.campaign.exposed_attempts():
            site = population.site_by_host(attempt.site_host)
            if site and site.accounts.lookup(attempt.identity.email_address):
                covered.add(attempt.site_host)
        ranks = list(range(1, population.size + 1))
        result.system.tree.child("miss-study").rng().shuffle(ranks)
        hosts = [h for h in (population.spec_at_rank(r).host for r in ranks)
                 if h not in covered][:50]
        tally = miss_report(result.system, result.campaign, set(), hosts)

        assert sum(tally.values()) == 50
        assert MissReason.DETECTED not in tally
        by_category = Counter()
        for reason, count in tally.items():
            by_category[reason.category] += count
        # Paper: 29 scale/scope, 14 technical, 6 inherent.
        assert by_category["scale/scope"] >= 15
        assert by_category["technical"] >= 3
        assert by_category["inherent"] <= 15
        rank = tally.get(MissReason.RANK_OUTSIDE_CORPUS, 0)
        language = tally.get(MissReason.NON_ENGLISH, 0)
        experiments_quote(
            f"| scale/scope (rank + language) | 29 (22 + 7) | {rank + language} "
            f"({rank} + {language}) |\n"
            "| technical (multi-page, bot checks, unfindable pages, crawler errors) "
            f"| 14 | {by_category['technical']} |\n"
            f"| inherent (payment / offline-only) | 6 | {by_category['inherent']} |"
        )


class TestEthicsAudit:
    def test_audit_over_pilot(self, pilots):
        for pilot in pilots:
            audit = audit_load(pilot.campaign, pilot.system.transport)
            assert audit.sites_contacted > 0
            assert audit.majority_two_or_fewer
            # The §3 rate limit: at least 3 s between page loads.
            assert audit.min_inter_request_gap >= 3
            assert "ethics audit" in render_ethics_audit(audit)

    def test_attempt_counts_bounded(self, pilots):
        for pilot in pilots:
            audit = audit_load(pilot.campaign, pilot.system.transport)
            assert audit.max_attempts_per_site <= 4  # paper: 16, while debugging
            assert audit.sites_with_more_than_eight_attempts == 0


def login_at(time, ip_value):
    return AttributedLogin(
        event=LoginEvent("acct", time, IPv4Address(ip_value), LoginMethod.IMAP),
        identity_id=1, site_host="s.test", password_class=PasswordClass.EASY,
    )


class TestBurstAnalysis:
    def test_multi_ip_burst_detected(self):
        logins = [login_at(i * MINUTE, 100 + i) for i in range(8)]
        stats = analyze_account("acct", "s.test", logins)
        assert stats.peak_ips_in_window == 8
        assert stats.has_multi_ip_burst
        assert not stats.has_hammering

    def test_hammering_detected(self):
        logins = [login_at(i, 42) for i in range(30)]  # one IP, 30 logins/30s
        stats = analyze_account("acct", "s.test", logins)
        assert stats.max_hammer_run == 30
        assert stats.has_hammering
        assert stats.hammer_share == 1.0
        assert not stats.has_multi_ip_burst

    def test_slow_scraper_not_bursty(self):
        logins = [login_at(i * 86400, 100 + i) for i in range(10)]
        stats = analyze_account("acct", "s.test", logins)
        assert not stats.has_multi_ip_burst
        assert not stats.has_hammering

    def test_report_over_pilot(self, pilot_result):
        rows = build_burst_report(pilot_result.monitor)
        total_accounts = sum(
            len(d.accounts_accessed) for d in pilot_result.monitor.detected_sites()
        )
        assert len(rows) == total_accounts
        text = render_burst_report(rows)
        assert "6.4.2" in text

    def test_paper_shape(self, paper_pilot):
        rows = build_burst_report(paper_pilot.monitor)
        assert rows
        # Paper: 11 of 30 accounts saw multi-IP bursts (peak 46 IPs in
        # 10 minutes) and 9 single-IP hammering; a minority, but present.
        bursty = sum(r.has_multi_ip_burst for r in rows)
        assert 1 <= bursty < len(rows)
        assert any(r.has_hammering for r in rows)
        assert max(r.peak_ips_in_window for r in rows) >= 5
