"""Section 7.3: detection odds when the attacker samples the haul.

"The odds of detection are inversely proportional to the percentage of
email accounts tested."  One trial builds a small world, registers
Tripwire accounts, breaches a site that holds one, and lets a
credential checker test only a fraction of the cracked haul at the
monitored provider.  The sweep repeats the trial over seeded worlds for
each fraction and counts the breaches Tripwire detects.  This is
Ablation B; ``repro evasion`` prints the same sweep.
"""

from __future__ import annotations

from repro.attacker.botnet import BotnetProxyNetwork
from repro.attacker.breach import BreachEvent, BreachMethod, execute_breach
from repro.attacker.checker import CredentialChecker
from repro.attacker.cracking import crack_records
from repro.attacker.profiles import CheckerArchetype, CheckerProfile
from repro.core.campaign import RegistrationCampaign
from repro.core.monitor import CompromiseMonitor
from repro.core.system import TripwireSystem
from repro.identity.passwords import PasswordClass
from repro.util.rngtree import RngTree
from repro.util.tables import render_table
from repro.util.timeutil import DAY

#: Fractions of the haul the attacker tests, largest first.
FRACTIONS = (1.0, 0.5, 0.25, 0.1)
#: Seeded worlds per fraction.
TRIALS = 25


def detection_trial(test_fraction: float, seed: int) -> bool:
    """One breach in a 25-site world: does Tripwire detect it when the
    checker tests ``test_fraction`` of the cracked credentials?"""
    system = TripwireSystem(seed=seed, population_size=25)
    system.crawler.config.system_error_rate = 0.0
    system.provision_identities(25, PasswordClass.HARD)
    system.provision_identities(12, PasswordClass.EASY)
    campaign = RegistrationCampaign(system)
    campaign.run_batch(system.population.alexa_top(18))
    target = None
    for attempt in campaign.exposed_attempts():
        site = system.population.site_by_host(attempt.site_host)
        if site and site.accounts.lookup(attempt.identity.email_address):
            target = site
            break
    if target is None:
        return False
    target.seed_organic_accounts(40)
    when = system.clock.now() + 5 * DAY
    cracked = crack_records(
        execute_breach(target, BreachEvent(target.spec.host, when, BreachMethod.ONLINE_CAPTURE)),
        when,
    )
    botnet = BotnetProxyNetwork(system.whois, system.tree.child("botnet").rng())
    checker = CredentialChecker(system.provider, botnet, system.queue,
                                RngTree(seed).child("checker").rng(),
                                test_fraction=test_fraction)
    profile = CheckerProfile(archetype=CheckerArchetype.VERIFIER,
                             initial_delay_days=3, session_count=1,
                             period_days=5, multi_ip_burst_prob=0.0,
                             hammer_prob=0.0)
    checker.launch(cracked, profile)
    monitor = CompromiseMonitor(system.pool, system.control_locals, system.provider.domain)
    for _ in range(2):
        system.queue.run_until(system.clock.now() + 30 * DAY)
        monitor.ingest_dump(system.provider.collect_login_dump())
    return target.spec.host in monitor.detections


def sampling_sweep(trials: int = TRIALS) -> dict[float, int]:
    """Detected breaches per fraction in FRACTIONS, over the worlds
    seeded 7000, 7031, 7062, ... (``trials`` of them)."""
    return {
        fraction: sum(detection_trial(fraction, 7000 + 31 * t) for t in range(trials))
        for fraction in FRACTIONS
    }


def render_sampling_sweep(detected: dict[float, int], trials: int) -> str:
    """The sweep as Ablation B's table."""
    rows = [
        [f"{fraction:.0%}", f"{count}/{trials}", f"{count / trials:.0%}"]
        for fraction, count in detected.items()
    ]
    return render_table(
        ["Haul fraction tested", "Detected", "Rate"], rows,
        title="Ablation B: detection odds vs attacker sampling rate (§7.3)",
    )
