"""The overhead suite's identity checks, one arm run each, never timed.

``python -m repro.perf.suite`` gates the wall-time budgets; these tests
pin only what each leg asserts about results, on small configs.
"""

import dataclasses

from repro.perf.suite import (
    daemon_config,
    flight_problems,
    pilot_config,
    pilot_problems,
    run_daemon,
    run_pilot,
)


def test_obs_leg_observation_leaves_the_pilot_unchanged():
    config = pilot_config()
    off = run_pilot(config, observed=False)
    on = run_pilot(config, observed=True)
    assert off.campaign.attempts and off.detected_hosts
    assert pilot_problems(off, on) == []


def test_flight_leg_recorder_adds_only_health_lines(tmp_path):
    config = dataclasses.replace(
        daemon_config(), top=40, population_size=300, epochs=2, shards=2,
        traffic_users=200,
    )
    flight_path = tmp_path / "flight.jsonl"
    off = run_daemon(config, None)
    on = run_daemon(config, flight_path)
    assert '"health.' in on.journal.to_jsonl()
    assert flight_problems(config, off, on, flight_path) == []
