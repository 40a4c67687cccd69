"""Health probes: rule semantics on synthetic snapshots, journaling.

Each rule is exercised against hand-built snapshot slices (the fast,
exhaustive way to pin warn/fail boundaries), then the daemon
integration asserts that ``health.*`` events actually land in the
journal — the deterministic alerting surface the live-smoke CI job
greps for.
"""

from repro.obs.health import FAIL, OK, WARN, HealthCheck, HealthThresholds
from repro.service.daemon import CampaignDaemon
from repro.util.timeutil import DAY

from tests.obs.test_live import make_config

#: The serve daemon's queue layout: traffic's queue at the top level,
#: stuffing's nested in its panel (``ServiceStream.queue_path``).
QUEUES = (("queue",), ("stuffing", "queue"))


def snapshot(**overrides) -> dict:
    """A healthy baseline snapshot; tests override one slice at a time."""
    base = {
        "sim_time": 100 * DAY,
        "sim_start": 0,
        "epoch_length": 10 * DAY,
        "streams": {
            "service.probe": {
                "interval": 3 * DAY, "count": 33, "last_fired": 99 * DAY,
            },
        },
        "queue": {
            "depth": 0, "max_depth": 8, "offered": 100, "refused": 0,
            "taken": 100, "peak_depth": 2,
        },
        "provider": {"throttle_rows": 10, "locked_rows": 0},
        "checkpoint": {"covered_epochs": 10, "covered_sim_time": 100 * DAY,
                       "age": 0},
    }
    base.update(overrides)
    return base


def check_for(**kwargs) -> HealthCheck:
    return HealthCheck(queues=QUEUES, **kwargs)


def verdict(check: HealthCheck, snap: dict, rule: str) -> str:
    statuses = {s.rule: s for s in check.evaluate(snap)}
    return statuses[rule].status


class TestQueueSaturation:
    def test_ok_warn_fail_by_refusal_share(self):
        check = check_for()
        queue = {"depth": 0, "max_depth": 8, "offered": 75, "refused": 25,
                 "taken": 75, "peak_depth": 8}
        assert verdict(check, snapshot(queue=queue), "queue_saturation") == WARN
        queue = dict(queue, offered=25, refused=75)
        assert verdict(check, snapshot(queue=queue), "queue_saturation") == FAIL
        queue = dict(queue, offered=99, refused=1)
        assert verdict(check, snapshot(queue=queue), "queue_saturation") == OK

    def test_disabled_queue_is_ok(self):
        status = {
            s.rule: s for s in check_for().evaluate(snapshot(queue=None))
        }["queue_saturation"]
        assert status.status == OK
        assert status.detail_dict() == {"enabled": False}

    def test_nested_queue_gets_its_own_rule(self):
        check = check_for()
        queue = {"depth": 0, "max_depth": 8, "offered": 25, "refused": 75,
                 "taken": 25, "peak_depth": 8}
        snap = snapshot(stuffing={"queue": queue, "waves": 3})
        assert verdict(check, snap, "stuffing_queue_saturation") == FAIL
        assert verdict(check, snap, "queue_saturation") == OK
        off = {s.rule: s for s in check.evaluate(snapshot(stuffing=None))}
        assert off["stuffing_queue_saturation"].detail_dict() == {"enabled": False}

    def test_zero_offered_is_ok(self):
        queue = {"depth": 0, "max_depth": 8, "offered": 0, "refused": 0,
                 "taken": 0, "peak_depth": 0}
        assert verdict(check_for(), snapshot(queue=queue),
                       "queue_saturation") == OK


class TestThrottleGrowth:
    def test_bounds(self):
        check = check_for()
        ok = snapshot(provider={"throttle_rows": 9_999, "locked_rows": 0})
        warn = snapshot(provider={"throttle_rows": 10_000, "locked_rows": 0})
        fail = snapshot(provider={"throttle_rows": 50_000, "locked_rows": 0})
        assert verdict(check, ok, "throttle_growth") == OK
        assert verdict(check, warn, "throttle_growth") == WARN
        assert verdict(check, fail, "throttle_growth") == FAIL


class TestCheckpointStaleness:
    def test_for_config_scales_with_epoch_length(self):
        check = HealthCheck.for_config(epoch_length=10 * DAY, queues=QUEUES)
        assert check.thresholds.checkpoint_age_warn == 20 * DAY
        assert check.thresholds.checkpoint_age_fail == 40 * DAY
        ok = snapshot(checkpoint={"age": 19 * DAY})
        warn = snapshot(checkpoint={"age": 20 * DAY})
        fail = snapshot(checkpoint={"age": 40 * DAY})
        assert verdict(check, ok, "checkpoint_staleness") == OK
        assert verdict(check, warn, "checkpoint_staleness") == WARN
        assert verdict(check, fail, "checkpoint_staleness") == FAIL

    def test_for_config_keeps_other_thresholds(self):
        base = HealthThresholds(queue_refusal_warn=0.1)
        check = HealthCheck.for_config(10 * DAY, thresholds=base, queues=QUEUES)
        assert check.thresholds.queue_refusal_warn == 0.1
        assert check.thresholds.throttle_rows_fail == base.throttle_rows_fail
        assert check.rules == check_for().rules


class TestStreamStarvation:
    def test_overdue_stream_warns_then_fails(self):
        check = check_for()
        warn = snapshot(streams={
            "service.probe": {"interval": 3 * DAY, "count": 5,
                              "last_fired": 94 * DAY},
        })
        assert verdict(check, warn, "stream_starvation") == WARN
        fail = snapshot(streams={
            "service.probe": {"interval": 3 * DAY, "count": 5,
                              "last_fired": 88 * DAY},
        })
        assert verdict(check, fail, "stream_starvation") == FAIL

    def test_never_fired_stream_measured_from_start(self):
        check = check_for()
        snap = snapshot(
            sim_time=7 * DAY,
            streams={"service.probe": {"interval": 3 * DAY, "count": 0,
                                       "last_fired": None}},
        )
        assert verdict(check, snap, "stream_starvation") == WARN

    def test_at_start_nothing_is_starved(self):
        snap = snapshot(
            sim_time=0,
            streams={"service.probe": {"interval": 3 * DAY, "count": 0,
                                       "last_fired": None}},
        )
        assert verdict(check_for(), snap, "stream_starvation") == OK

    def test_detail_lists_the_starved_streams(self):
        snap = snapshot(streams={
            "service.probe": {"interval": 3 * DAY, "count": 1,
                              "last_fired": 80 * DAY},
            "service.bind": {"interval": 2 * DAY, "count": 1,
                             "last_fired": 95 * DAY},
        })
        status = {
            s.rule: s for s in check_for().evaluate(snap)
        }["stream_starvation"]
        assert status.status == FAIL
        assert "service.probe" in status.detail_dict()["starved"]
        assert "service.bind" in status.detail_dict()["starved"]


class TestHealthStatus:
    def test_healthy_property(self):
        from repro.obs.health import HealthStatus

        assert HealthStatus("r", OK).healthy
        assert not HealthStatus("r", WARN).healthy

    def test_rule_order_is_stable(self):
        statuses = check_for().evaluate(snapshot())
        assert [s.rule for s in statuses] == list(check_for().rules) == [
            "queue_saturation", "stuffing_queue_saturation",
            "throttle_growth", "checkpoint_staleness", "stream_starvation",
        ]


class TestHealthJournaling:
    def test_daemon_journals_health_events(self, tmp_path):
        result = CampaignDaemon(
            make_config(), flight_path=tmp_path / "flight.jsonl"
        ).run()
        text = result.journal.to_jsonl()
        for rule in check_for().rules:
            assert f"health.{rule}" in text

    def test_no_flight_no_health_events(self):
        result = CampaignDaemon(make_config()).run()
        assert "health." not in result.journal.to_jsonl()
