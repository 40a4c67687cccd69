"""Tests for the table builders (Tables 1-4) and the paper's shape claims."""

import pytest

from repro.analysis.report import survey_ranks_for
from repro.analysis.table1 import build_table1, render_table1
from repro.analysis.table2 import assign_site_letters, build_table2, render_table2
from repro.analysis.table3 import build_table3, render_table3
from repro.analysis.table4 import (
    PAPER_TABLE4,
    average_row,
    build_table4,
    render_table4,
)


class TestTable1:
    def test_rows_in_paper_order_with_total(self, pilot_result):
        rows = build_table1(pilot_result.estimates)
        labels = [row.label for row in rows]
        assert labels == [
            "Email verified", "Email received", "OK submission",
            "Bad heuristics/Fields missing", "Manual", "Total",
        ]

    def test_total_row_sums(self, pilot_result):
        rows = build_table1(pilot_result.estimates)
        total = rows[-1]
        assert total.attempted_total == sum(r.attempted_total for r in rows[:-1])
        assert total.estimated_total == sum(r.estimated_total for r in rows[:-1])

    def test_render_contains_paper_rates(self, pilot_result):
        text = render_table1(build_table1(pilot_result.estimates))
        assert "Paper" in text
        assert "98%" in text  # the paper's email-verified rate
        assert "Total" in text

    def test_paper_shape(self, paper_pilot):
        by_label = {row.label: row for row in build_table1(paper_pilot.estimates)}
        verified = by_label["Email verified"]
        ok = by_label["OK submission"]
        bad = by_label["Bad heuristics/Fields missing"]
        assert verified.success_rate > ok.success_rate > bad.success_rate
        assert verified.success_rate >= 0.85  # paper: 98%
        assert bad.success_rate <= 0.25  # paper: 7%
        # Easy attempts wait for a believed hard success, so the failure
        # bucket is mostly hard passwords (paper: 4,395 vs 122).
        assert bad.attempted_hard > bad.attempted_easy
        assert by_label["Manual"].success_rate == 1.0
        assert by_label["Total"].estimated_total > 0

    def test_ok_submission_success_rate(self, paper_pilot, request):
        if paper_pilot.config.seed == 4:
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "EXPERIMENTS.md Known delta 1: simulated sites fail silently "
                "less often than real ones; the rate is 86% at seed 4")))
        ok = next(row for row in build_table1(paper_pilot.estimates)
                  if row.label == "OK submission")
        assert 0.30 <= ok.success_rate <= 0.85  # paper: 59%


class TestTable2:
    def test_letters_assigned_in_detection_order(self, pilot_result):
        letters = assign_site_letters(pilot_result.monitor)
        detections = pilot_result.monitor.detected_sites()
        assert [letters[d.site_host] for d in detections] == [
            chr(ord("A") + i) for i in range(len(detections))
        ]

    def test_rows_match_detections(self, pilots):
        for pilot in pilots:
            rows = build_table2(pilot)
            assert len(rows) == pilot.monitor.site_count()
            for row in rows:
                assert row.accounts_accessed <= row.accounts_registered
                assert row.hard_accessed in ("Y", "N", "-")
                assert row.alexa_rank_rounded % 500 == 0

    def test_hard_flag_consistent_with_monitor(self, pilot_result):
        rows = {row.host: row for row in build_table2(pilot_result)}
        for detection in pilot_result.monitor.detected_sites():
            row = rows[detection.site_host]
            if row.hard_accessed == "Y":
                assert detection.hard_accessed
            if row.hard_accessed == "N":
                assert not detection.hard_accessed

    def test_render_anonymizes_hosts(self, pilot_result):
        rows = build_table2(pilot_result)
        text = render_table2(rows)
        for row in rows:
            assert row.host not in text  # Section 3: identities obscured

    def test_paper_shape(self, paper_pilot):
        rows = build_table2(paper_pilot)
        assert len(rows) >= 10  # paper: 19 detected sites
        letters = [row.letter for row in rows]
        assert letters == sorted(letters)
        assert all(row.accounts_accessed >= 1 for row in rows)
        # Paper: 10 of 19 sites exposed hard passwords, 8 were hashed-only.
        assert sum(row.hard_accessed == "Y" for row in rows) >= 3
        assert sum(row.hard_accessed == "N" for row in rows) >= 3


class TestTable3:
    def test_aliases_follow_site_letters(self, pilot_result):
        rows = build_table3(pilot_result)
        letters = {v.lower() for v in assign_site_letters(pilot_result.monitor).values()}
        for row in rows:
            assert row.alias[0] in letters
            assert row.alias[1:].isdigit()

    def test_one_row_per_accessed_account(self, pilot_result):
        rows = build_table3(pilot_result)
        total_accounts = sum(
            len(d.accounts_accessed) for d in pilot_result.monitor.detected_sites()
        )
        assert len(rows) == total_accounts

    def test_counts_and_day_ranges_consistent(self, pilots):
        for row in (row for pilot in pilots for row in build_table3(pilot)):
            assert row.login_count >= 1
            assert row.days_until_first >= 0
            assert row.days_since_last >= 0
            assert row.days_accessed >= 0
            assert row.password_type in ("hard", "easy")
            assert row.frozen in ("Y", "N")

    def test_render_has_paper_columns(self, pilot_result):
        text = render_table3(build_table3(pilot_result))
        for column in ("# Logins", "Until", "Since", "Frozen", "Days Accessed"):
            assert column in text

    def test_paper_shape(self, paper_pilot):
        rows = build_table3(paper_pilot)
        assert len(rows) >= 10  # paper: 30 accessed accounts
        assert {row.password_type for row in rows} == {"hard", "easy"}
        # One-shot verifiers and heavy scrapers (paper: 1 to 363 logins).
        counts = [row.login_count for row in rows]
        assert min(counts) <= 5
        assert max(counts) >= 20
        # Months between registration and first access.
        assert max(row.days_until_first for row in rows) > 100
        # The provider freezes some accounts, not all (paper: 8 of 30).
        frozen = sum(row.frozen == "Y" for row in rows)
        assert 0 < frozen < len(rows)


class TestTable4:
    def test_fractions_sum_to_one(self, pilots):
        for pilot in pilots:
            for row in build_table4(pilot.system.population, (1, 101, 1000), 100):
                total = (row.load_failure + row.non_english + row.no_registration
                         + row.ineligible + row.rest)
                assert abs(total - 1.0) < 1e-9

    def test_windows_beyond_population_skipped(self, pilot_result):
        rows = build_table4(pilot_result.system.population, (1, 10**7), 100)
        assert len(rows) == 1

    def test_average_row(self, pilot_result):
        rows = build_table4(pilot_result.system.population, (1, 101, 201), 100)
        avg = average_row(rows)
        assert abs(avg.non_english
                   - sum(r.non_english for r in rows) / len(rows)) < 1e-9

    def test_non_english_rate_in_paper_ballpark(self, pilot_result):
        rows = build_table4(pilot_result.system.population, (1, 101, 201), 100)
        avg = average_row(rows)
        assert 0.25 <= avg.non_english <= 0.60  # paper average: 44.3%

    def test_render_includes_paper_rows(self, pilot_result):
        rows = build_table4(pilot_result.system.population, (1,), 100)
        text = render_table4(rows, include_paper=True)
        assert "(paper 1)" in text
        assert "Average" in text

    def test_paper_reference_values_recorded(self):
        assert PAPER_TABLE4[1][1] == 0.43  # 43% non-English in the top-100

    def test_paper_shape(self, paper_pilot):
        population = paper_pilot.system.population
        starts = survey_ranks_for(population.size)
        rows = build_table4(population, starts, 100)
        assert len(rows) == len(starts)
        # Paper averages: 6.7% load failure, 44.3% non-English, 31.3% rest.
        avg = average_row(rows)
        assert 0.25 <= avg.non_english <= 0.60
        assert 0.01 <= avg.load_failure <= 0.20
        assert 0.15 <= avg.rest <= 0.55
