"""Attacker credential sampling vs detection odds (Section 7.3).

An informed attacker can test only a fraction of the stolen haul at the
email provider.  Detection odds fall roughly linearly with the fraction
tested ("the odds of detection are inversely proportional to the
percentage of email accounts tested").  Skipping the monitored provider
altogether evades detection, but forfeits the most valuable slice of
the haul; Ablation C measures that on a whole pilot
(``ScenarioConfig.avoided_domains``).

Run:  python examples/evasion_analysis.py
"""

from repro.analysis.evasion import TRIALS, render_sampling_sweep, sampling_sweep


def main() -> None:
    print(render_sampling_sweep(sampling_sweep(), TRIALS))


if __name__ == "__main__":
    main()
