"""Smoke tests: the example scripts run end to end."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    script = EXAMPLES / name
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "integrity alarms: 0" in out
        assert "registration attempts:" in out

    def test_eligibility_survey_small(self, capsys):
        out = run_example("eligibility_survey.py", ["300"], capsys)
        assert "Table 4" in out
        assert "Crawler outcomes" in out

    def test_password_audit(self, capsys):
        out = run_example("password_audit.py", [], capsys)
        assert "storage inference" in out
        assert "plaintext.example" in out

    @pytest.mark.slow
    def test_crawler_extensions_small(self, capsys):
        out = run_example("crawler_extensions.py", ["80"], capsys)
        assert "Extension coverage over the same top-80 batch" in out
        assert "baseline (paper pilot)" in out
