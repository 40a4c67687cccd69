"""The scenario studies: Ablations A-C (§6.1.2, §7.3) and the §7.2
crawler extensions.

Each study builds its own seeded worlds.  The slow tests run the study
at the size EXPERIMENTS.md reports, check the paper's claim and require
EXPERIMENTS.md to quote the figures they render.
"""

import pytest

from repro import cli
from repro.analysis.evasion import TRIALS, render_sampling_sweep, sampling_sweep
from repro.analysis.extensions import CONFIGURATIONS, coverage_sweep, render_coverage
from repro.core.campaign import RegistrationCampaign, RegistrationPolicy
from repro.core.scenario import PilotScenario, ScenarioConfig
from repro.core.system import TripwireSystem
from repro.identity.passwords import PasswordClass

SITES = 250


def easy_coverage(policy: RegistrationPolicy) -> int:
    """Sites left with a valid easy-password account under ``policy``."""
    system = TripwireSystem(seed=404, population_size=SITES)
    system.provision_identities(SITES + 60, PasswordClass.HARD)
    system.provision_identities(SITES + 60, PasswordClass.EASY)
    campaign = RegistrationCampaign(system, policy=policy, second_hard_probability=0.0)
    campaign.run_batch(system.population.alexa_top(SITES))
    covered = set()
    for attempt in campaign.exposed_attempts():
        site = system.population.site_by_host(attempt.site_host)
        if (attempt.password_class is PasswordClass.EASY and site
                and site.check_credentials(attempt.identity.email_address,
                                           attempt.identity.password)):
            covered.add(attempt.site_host)
    return len(covered)


@pytest.mark.slow
def test_ablation_a_easy_after_hard_under_reports(experiments_quote):
    """§6.1.2: registering easy accounts only after a believed hard
    success biases Tripwire towards under-reporting."""
    hard_first = easy_coverage(RegistrationPolicy.HARD_FIRST)
    simultaneous = easy_coverage(RegistrationPolicy.SIMULTANEOUS)
    assert simultaneous >= hard_first
    assert simultaneous > 0
    experiments_quote(f"measured {hard_first} vs {simultaneous} sites on a {SITES}-site batch")


class TestAttackerSampling:
    def test_cli_runs_without_examples(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_examples_dir", lambda: None)
        assert cli.main(["evasion", "--trials", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Ablation B: detection odds vs attacker sampling rate (§7.3)"
        assert [line.split()[0] for line in lines[3:]] == ["100%", "50%", "25%", "10%"]

    @pytest.mark.slow
    def test_ablation_b_detection_falls_with_sampling(self, experiments_quote):
        """§7.3: "the odds of detection are inversely proportional to the
        percentage of email accounts tested"."""
        detected = sampling_sweep()
        assert detected[1.0] >= detected[0.25]
        assert detected[1.0] >= detected[0.1]
        assert detected[1.0] >= TRIALS * 0.5
        experiments_quote(render_sampling_sweep(detected, TRIALS))


@pytest.mark.slow
def test_ablation_c_provider_avoidance(experiments_quote):
    """§7.3 and §4.4: an attacker who never tests credentials at the
    monitored provider is never detected, but forfeits that share of the
    haul; the unused accounts stay silent either way."""
    world = dict(
        population_size=300, seed_list_size=50, main_crawl_top=250,
        second_crawl_top=300, manual_top=10, breach_count=8,
        breach_hard_exposing=4, unused_account_count=120, control_account_count=4,
    )
    normal = PilotScenario(ScenarioConfig(seed=61, **world)).run()
    avoidant = PilotScenario(ScenarioConfig(
        seed=61, avoided_domains=("bigmail.example",), **world)).run()
    assert normal.detected_hosts
    assert not avoidant.detected_hosts
    assert avoidant.checker.skipped_by_avoidance > 0
    assert normal.monitor.alarms == []
    assert avoidant.monitor.alarms == []
    experiments_quote(
        f"measured on a 300-site pilot: {len(normal.breaches)} breaches and "
        f"{len(normal.detected_hosts)} detected sites when the attacker tests the "
        f"provider, {len(avoidant.breaches)} and {len(avoidant.detected_hosts)} when it "
        f"avoids it, at the cost of {avoidant.checker.skipped_by_avoidance} "
        "forfeited provider credentials"
    )


class TestExtensionCoverage:
    def test_language_packs_cut_language_skips(self):
        results = coverage_sweep(40)
        assert list(results) == [label for label, _packs, _search in CONFIGURATIONS]
        base, packs, full = results.values()
        assert packs.language_skips < base.language_skips
        assert full.language_skips == packs.language_skips
        assert "top-40 batch" in render_coverage(results, 40)

    @pytest.mark.slow
    def test_extension_coverage(self, experiments_quote):
        """§7.2: language packs, then search-assisted discovery of
        registration pages, each add sites with a valid account."""
        results = coverage_sweep(SITES)
        base, packs, full = results.values()
        assert packs.language_skips < base.language_skips
        assert packs.valid_sites >= base.valid_sites
        assert full.valid_sites >= packs.valid_sites
        assert full.valid_sites > base.valid_sites
        experiments_quote(render_coverage(results, SITES))
