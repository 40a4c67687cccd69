"""Tests for the figure builders (Figures 1-3), the IP report and the
paper's shape claims."""

from repro.analysis.attacker_ips import (
    build_attacker_ip_report,
    render_attacker_ip_report,
)
from repro.analysis.fig1 import build_fig1, crawler_flow_graph, render_fig1
from repro.analysis.fig2 import build_fig2, render_fig2
from repro.analysis.fig3 import build_fig3, render_fig3
from repro.crawler.outcomes import TerminationCode
from repro.util.timeutil import LOG_GAP_END, LOG_GAP_START


class TestFig1:
    def test_counts_cover_all_automated_attempts(self, pilot_result):
        data = build_fig1(pilot_result.campaign.attempts)
        automated = [a for a in pilot_result.campaign.attempts if not a.manual]
        assert data.total == len(automated)
        assert sum(data.counts.values()) == data.total

    def test_exposure_only_on_exposing_codes(self, pilots):
        for pilot in pilots:
            data = build_fig1(pilot.campaign.attempts)
            for code, exposed in data.exposed_by_code.items():
                assert exposed <= data.counts[code]
            assert data.exposed_by_code.get(TerminationCode.NOT_ENGLISH, 0) == 0
            assert data.exposed_by_code.get(TerminationCode.NO_REGISTRATION_FOUND, 0) == 0

    def test_render(self, pilot_result):
        text = render_fig1(build_fig1(pilot_result.campaign.attempts))
        assert "ok_submission" in text
        assert "ID used" in text

    def test_flow_graph_structure(self):
        graph = crawler_flow_graph()
        terminals = [n for n, d in graph.nodes(data=True) if d["terminal"]]
        assert set(terminals) == {  # the five exit boxes of Figure 1
            "OK submission", "Submission heuristics failed",
            "Required fields missing", "No registration found", "System Error",
        }
        # Terminal nodes have no outgoing edges.
        for node in terminals:
            assert graph.out_degree(node) == 0
        # The fill loop self-edge exists.
        assert graph.has_edge("Identify and fill field", "Identify and fill field")

    def test_paper_shape(self, paper_pilot):
        data = build_fig1(paper_pilot.campaign.attempts)
        # Figure 1's five exits and the language gate all occur.  Only a
        # starved page budget or proxy pool exhausts the budget, which a
        # fault-free pilot never has.
        for code in TerminationCode:
            if code is not TerminationCode.BUDGET_EXHAUSTED:
                assert data.counts.get(code, 0) > 0, code
        assert data.counts.get(TerminationCode.BUDGET_EXHAUSTED, 0) == 0
        assert data.exposed_by_code.get(TerminationCode.OK_SUBMISSION, 0) == \
            data.counts[TerminationCode.OK_SUBMISSION]


class TestFig2:
    def test_rows_sorted_by_first_login(self, pilots):
        for pilot in pilots:
            first_logins = [t.first_login for t in build_fig2(pilot).timelines]
            assert first_logins == sorted(first_logins)

    def test_every_detection_has_a_row(self, pilots):
        for pilot in pilots:
            assert len(build_fig2(pilot).timelines) == pilot.monitor.site_count()

    def test_totals_match_monitor(self, pilot_result):
        data = build_fig2(pilot_result)
        by_host = {d.site_host: d for d in pilot_result.monitor.detected_sites()}
        for timeline in data.timelines:
            assert timeline.total_logins == by_host[timeline.host].login_count

    def test_registrations_precede_first_login(self, pilots):
        for pilot in pilots:
            for timeline in build_fig2(pilot).timelines:
                assert min(timeline.registrations) <= timeline.first_login

    def test_render_contains_markers_and_counts(self, pilot_result):
        data = build_fig2(pilot_result)
        text = render_fig2(data, width=60)
        assert "|" in text  # registration ticks
        for timeline in data.timelines:
            assert f"({timeline.total_logins})" in text

    def test_gap_shading_present(self, pilots):
        for pilot in pilots:
            data = build_fig2(pilot)
            assert any(  # the Spring-2015 log gap
                start <= LOG_GAP_END and end >= LOG_GAP_START
                for start, end in data.gap_windows
            )
            assert "." in render_fig2(data, width=60)

    def test_paper_shape(self, paper_pilot):
        timelines = build_fig2(paper_pilot).timelines
        assert all(t.total_logins >= 1 for t in timelines)
        assert any(t.easy_logins for t in timelines)
        assert any(t.hard_logins for t in timelines)


class TestFig3:
    def test_fractions_are_probabilities(self, pilot_result):
        data = build_fig3(pilot_result)
        for value in (data.ineligible_fraction, data.no_form_fraction,
                      data.system_error_fraction, data.fields_missing_fraction,
                      data.heuristics_failed_fraction, data.crawler_ok_fraction,
                      data.estimated_success_on_eligible):
            assert 0.0 <= value <= 1.0

    def test_panel2_shares_sum_to_one(self, pilots):
        for pilot in pilots:
            data = build_fig3(pilot)
            total = (data.no_form_fraction + data.system_error_fraction
                     + data.fields_missing_fraction + data.heuristics_failed_fraction
                     + data.crawler_ok_fraction)
            assert abs(total - 1.0) < 1e-9

    def test_majority_ineligible_like_paper(self, pilot_result):
        data = build_fig3(pilot_result)
        assert data.ineligible_fraction > 0.45  # paper: 63.8%

    def test_success_smaller_than_failure_modes(self, pilot_result):
        data = build_fig3(pilot_result)
        assert data.crawler_ok_fraction < (
            data.no_form_fraction + data.system_error_fraction
            + data.fields_missing_fraction + data.heuristics_failed_fraction
        )

    def test_render_mentions_paper_numbers(self, pilot_result):
        text = render_fig3(build_fig3(pilot_result))
        assert "63.8%" in text and "12.2%" in text

    def test_paper_shape(self, paper_pilot):
        data = build_fig3(paper_pilot)
        assert data.ineligible_fraction > 0.5  # paper: 63.8%
        # Failure dominates success in the crawler's view (paper: 47.2%
        # no form found, 12.2% success).
        assert data.no_form_fraction > data.crawler_ok_fraction * 0.8
        assert data.crawler_ok_fraction < 0.5
        # The estimate discounts believed success (paper: ~18.8%).
        assert 0.0 < data.estimated_success_on_eligible < 0.6
        assert data.estimated_valid_accounts > 0


class TestAttackerIpReport:
    def test_counts_consistent(self, pilot_result):
        report = build_attacker_ip_report(pilot_result)
        assert report.distinct_ips <= report.total_logins
        assert report.repeated_ips <= report.distinct_ips
        assert report.max_uses_single_ip >= 1

    def test_country_counts_cover_distinct_ips(self, pilot_result):
        report = build_attacker_ip_report(pilot_result)
        assert sum(n for _c, n in report.country_counts) == report.distinct_ips

    def test_mostly_residential(self, pilots):
        for pilot in pilots:
            report = build_attacker_ip_report(pilot)
            assert report.residential_ips > report.datacenter_ips

    def test_imap_dominates(self, pilots):
        for pilot in pilots:
            methods = dict(build_attacker_ip_report(pilot).method_counts)
            assert methods.get("IMAP", 0) == max(methods.values())

    def test_render(self, pilot_result):
        text = render_attacker_ip_report(build_attacker_ip_report(pilot_result))
        assert "1,316" in text  # paper headline for comparison
        assert "Top countries" in text

    def test_paper_shape(self, paper_pilot):
        report = build_attacker_ip_report(paper_pilot)
        # Paper: 1,316 distinct IPs over ~1,792 logins, 181 seen twice or more.
        assert report.total_logins > report.distinct_ips
        assert report.repeated_ips < report.distinct_ips * 0.5
        assert "RU" in [code for code, _n in report.country_counts[:6]]
