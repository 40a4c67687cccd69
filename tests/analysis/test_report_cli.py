"""Tests for the full report and the CLI."""

import pytest

from repro.analysis.report import full_report, survey_ranks_for
from repro.analysis.table4 import build_table4, render_table4
from repro.cli import main
from repro.store import build_world_store


class TestFullReport:
    def test_contains_every_section(self, pilot_result):
        text = full_report(pilot_result)
        for marker in (
            "Table 1:", "Table 2:", "Table 3:", "Table 4:",
            "Figure 1:", "Figure 2:", "Figure 3:",
            "Attacker login-IP analysis", "Ground truth vs detection",
            "Disclosure (Section 6.3)",
        ):
            assert marker in text, marker

    def test_integrity_line_reports_zero(self, pilot_result):
        text = full_report(pilot_result)
        assert "integrity alarms:              0" in text

    def test_anonymization_carries_through(self, pilot_result):
        text = full_report(pilot_result)
        table2_part = text.split("Table 2:")[1].split("Table 3:")[0]
        for host in pilot_result.detected_hosts:
            assert host not in table2_part

    def test_survey_ranks_respect_population(self):
        assert survey_ranks_for(150) == (1,)
        assert survey_ranks_for(1200) == (1, 1000)
        assert survey_ranks_for(50000) == (1, 1000, 10000)
        assert survey_ranks_for(50) == (1,)


class TestCli:
    def test_survey_command(self, capsys):
        assert main(["survey", "--population", "400", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Not English" in out

    def test_survey_matches_the_world_store_of_its_seed(self, tmp_path, capsys):
        """`survey` reads the seed's prefix-closed specs, so it prints
        the Table 4 that a world store of that seed gives."""
        with build_world_store(tmp_path / "world", 41, 1500) as store:
            expected = render_table4(build_table4(store, survey_ranks_for(1500)))
        assert main(["survey", "--seed", "41", "--population", "1500"]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_pilot_command_small(self, capsys):
        assert main(["pilot", "--scale", "0.01", "--seed", "8",
                     "--breaches", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Ground truth vs detection" in out
