"""The flight recorder: snapshot byte-identity, ring, side channel.

The tentpole contract under test: the flight file a serving daemon
flushes every epoch is a pure function of the sim-shaping config —
byte-identical for any worker count and executor, under fault
injection, and across kill/resume (a resumed daemon re-flushes the
replayed epochs to the same bytes).  Wall-clock profiling lands only
in the ``.wall`` side channel, which is explicitly *not* compared.
"""

import json

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.health import HealthStatus
from repro.obs.live import (
    DEFAULT_RING_CAPACITY,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    parse_flight,
    read_flight,
)
from repro.service.checkpoint import load_checkpoint
from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY


def make_config(fault_profile=None, **kwargs):
    defaults = dict(
        population_size=300, top=16, shards=2, epochs=3, epoch_length=10 * DAY,
        probe_interval=3 * DAY, dump_interval=7 * DAY, bind_interval=2 * DAY,
        freeze_interval=9 * DAY, reset_interval=13 * DAY,
        attack_interval=4 * DAY, recover_delay=2 * DAY,
        hard_accounts=8, easy_accounts=8, unused_accounts=4, control_accounts=2,
        traffic_users=40,
    )
    if fault_profile is not None:
        defaults["fault_plan"] = FaultPlan.from_profile(fault_profile, seed=3)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


def run_with_flight(tmp_path, name, fault_profile=None, **kwargs):
    flight_path = tmp_path / f"{name}.jsonl"
    result = CampaignDaemon(
        make_config(fault_profile, **kwargs), flight_path=flight_path
    ).run()
    assert not result.interrupted
    return flight_path


class TestFlightRecorderUnit:
    META = {"seed": 1, "command": "test"}

    def test_header_then_snapshots_in_sequence(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl", self.META)
        recorder.flush({"epoch": 0, "sim_time": 10})
        recorder.flush({"epoch": 1, "sim_time": 20})
        flight = read_flight(tmp_path / "f.jsonl")
        assert flight["header"]["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert flight["header"]["meta"] == self.META
        assert [s["seq"] for s in flight["snapshots"]] == [0, 1]
        assert [s["epoch"] for s in flight["snapshots"]] == [0, 1]

    def test_health_records_attach_to_their_snapshot(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl", self.META)
        recorder.flush(
            {"epoch": 0},
            [HealthStatus("queue_saturation", "warn", (("refused", 9),))],
        )
        flight = read_flight(tmp_path / "f.jsonl")
        (record,) = flight["health"][0]
        assert record["rule"] == "queue_saturation"
        assert record["status"] == "warn"
        assert record["detail"] == {"refused": 9}

    def test_ring_is_bounded_and_rides_in_snapshots(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl", self.META,
                                  ring_capacity=3)
        for i in range(5):
            recorder.note(i, "detection", sites=1)
        recorder.flush({"epoch": 0})
        (snapshot,) = read_flight(tmp_path / "f.jsonl")["snapshots"]
        assert [event["sim_time"] for event in snapshot["notable"]] == [2, 3, 4]
        assert DEFAULT_RING_CAPACITY == 64

    def test_flush_replaces_atomically_leaving_no_temp(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl", self.META)
        recorder.flush({"epoch": 0})
        before = (tmp_path / "f.jsonl").read_bytes()
        recorder.flush({"epoch": 1})
        after = (tmp_path / "f.jsonl").read_bytes()
        # Each flush rewrites the whole file: the earlier bytes are a
        # strict prefix and no .tmp residue survives.
        assert after.startswith(before)
        assert not (tmp_path / "f.jsonl.tmp").exists()

    def test_profile_appends_to_the_side_channel_only(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.jsonl", self.META)
        recorder.flush({"epoch": 0})
        recorder.profile({"epoch": 0, "dispatch_seconds": 1.25})
        recorder.profile({"epoch": 1, "dispatch_seconds": 0.5})
        lines = (tmp_path / "f.jsonl.wall").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0, 1]
        # Nothing wall-clock leaks into the deterministic file.
        assert "dispatch_seconds" not in (tmp_path / "f.jsonl").read_text()


class TestParseFlight:
    def test_missing_header_raises(self):
        with pytest.raises(ValueError, match="no header"):
            parse_flight('{"record":"snapshot","seq":0}\n')

    def test_unsupported_schema_raises(self):
        bad = json.dumps({"record": "flight_header", "schema_version": 99})
        with pytest.raises(ValueError, match="unsupported flight schema"):
            parse_flight(bad + "\n")

    def test_tolerates_a_torn_tail_line(self):
        header = json.dumps(
            {"record": "flight_header",
             "schema_version": FLIGHT_SCHEMA_VERSION, "meta": {}}
        )
        snapshot = json.dumps({"record": "snapshot", "seq": 0})
        flight = parse_flight(header + "\n" + snapshot + '\n{"record":"snap')
        assert len(flight["snapshots"]) == 1


class TestFlightByteIdentity:
    """Snapshot bytes are invariant to every execution-shaping knob."""

    def test_workers_and_executors_fast(self, tmp_path):
        serial = run_with_flight(tmp_path, "serial")
        pooled = run_with_flight(
            tmp_path, "pooled", workers=2, executor="process"
        )
        assert serial.read_bytes() == pooled.read_bytes()

    def test_mild_faults_fast(self, tmp_path):
        serial = run_with_flight(tmp_path, "serial", fault_profile="mild")
        pooled = run_with_flight(
            tmp_path, "pooled", fault_profile="mild",
            workers=2, executor="process",
        )
        assert serial.read_bytes() == pooled.read_bytes()

    def test_login_engine_choice_moves_no_snapshot_decision_bytes(
        self, tmp_path, scalar_oracle
    ):
        """Vectorized vs scalar-oracle flights agree on everything
        except the engine's own path-mix section (which reports exactly
        that choice).  Enough traffic that windows vectorize."""
        traffic = dict(traffic_users=400, traffic_logins_per_day=3.0)
        batched = run_with_flight(tmp_path, "batched", **traffic)
        with scalar_oracle():
            scalar = run_with_flight(tmp_path, "scalar", **traffic)
        a = read_flight(batched)
        b = read_flight(scalar)
        engines_a, engines_b = [], []
        for snap_a, snap_b in zip(a["snapshots"], b["snapshots"]):
            engines_a.append(snap_a.pop("engine"))
            engines_b.append(snap_b.pop("engine"))
            assert snap_a == snap_b
        assert engines_a != engines_b  # the mix itself does differ
        assert a["health"] == b["health"]

    @pytest.mark.slow
    @pytest.mark.parametrize("fault_profile", [None, "mild"])
    @pytest.mark.parametrize("workers,executor", [(2, "process"), (4, "process")])
    def test_matrix(self, tmp_path, fault_profile, workers, executor):
        reference = run_with_flight(tmp_path, "ref", fault_profile)
        other = run_with_flight(
            tmp_path, f"w{workers}-{executor}", fault_profile,
            workers=workers, executor=executor,
        )
        assert reference.read_bytes() == other.read_bytes()


class TestFlightAcrossResume:
    def run_killed_at(self, config, checkpoint_path, flight_path,
                      kill_after_epoch):
        daemon = CampaignDaemon(
            config, checkpoint_path=checkpoint_path, flight_path=flight_path
        )
        original = daemon._build_runner

        def hooked():
            runner = original()
            real_execute = runner.execute

            def execute(plans, **kwargs):
                result = real_execute(plans, **kwargs)
                if plans and plans[0].epoch >= kill_after_epoch:
                    daemon.request_stop()
                return result

            runner.execute = execute
            return runner

        daemon._build_runner = hooked
        return daemon.run()

    @pytest.mark.parametrize("kill_after_epoch", [0, 1])
    def test_resumed_flight_matches_uninterrupted(self, tmp_path,
                                                  kill_after_epoch):
        """The satellite-6 fix: checkpoint age is computed from epoch
        coverage, not from local progress, so a resumed daemon's
        snapshots — staleness rule included — byte-match the
        uninterrupted run's."""
        reference = run_with_flight(tmp_path, "reference")

        checkpoint_path = tmp_path / "svc.ckpt"
        interrupted = self.run_killed_at(
            make_config(), checkpoint_path, tmp_path / "killed.jsonl",
            kill_after_epoch,
        )
        assert interrupted.interrupted
        killed_flight = read_flight(tmp_path / "killed.jsonl")
        assert len(killed_flight["snapshots"]) == kill_after_epoch + 1

        resume_config = make_config()
        checkpoint = load_checkpoint(checkpoint_path, resume_config)
        resumed = CampaignDaemon(
            resume_config,
            checkpoint_path=checkpoint_path,
            flight_path=tmp_path / "resumed.jsonl",
        ).run(resume=checkpoint)
        assert not resumed.interrupted
        assert (tmp_path / "resumed.jsonl").read_bytes() == (
            reference.read_bytes()
        )
        # The interrupted run's file is a strict prefix of the full one.
        assert reference.read_bytes().startswith(
            (tmp_path / "killed.jsonl").read_bytes()
        )

    def test_journal_bytes_hold_with_recorder_on(self, tmp_path):
        """Health events are journaled, so the resume byte-identity
        contract must hold for the journal too when --flight is on."""
        reference = CampaignDaemon(
            make_config(), flight_path=tmp_path / "ref-flight.jsonl"
        ).run()

        checkpoint_path = tmp_path / "svc.ckpt"
        self.run_killed_at(
            make_config(), checkpoint_path, tmp_path / "killed.jsonl", 0
        )
        resume_config = make_config()
        resumed = CampaignDaemon(
            resume_config,
            checkpoint_path=checkpoint_path,
            flight_path=tmp_path / "resumed-flight.jsonl",
        ).run(resume=load_checkpoint(checkpoint_path, resume_config))
        assert resumed.journal.to_jsonl() == reference.journal.to_jsonl()


class TestSnapshotContents:
    def test_snapshot_sections_present_and_sane(self, tmp_path):
        flight = read_flight(run_with_flight(tmp_path, "run"))
        last = flight["snapshots"][-1]
        assert last["epoch"] == 2
        assert last["checkpoint"]["covered_epochs"] == 3
        assert last["checkpoint"]["age"] == 0
        streams = last["streams"]
        assert set(streams) >= {
            "service.probe", "service.ingest", "service.bind",
            "service.traffic",
        }
        assert streams["service.traffic"]["count"] > 0
        assert streams["service.traffic"]["last_fired"] is not None
        assert last["queue"]["offered"] > 0
        assert last["queue"]["taken"] == last["queue"]["offered"]
        assert last["provider"]["accounts"] > 0
        assert last["engine"]["windows"] > 0
        # The per-stream gap histograms land via the obs registry.
        assert any(name.startswith("stream.service.")
                   for name in last["histograms"])

    def test_queue_section_none_without_traffic(self, tmp_path):
        flight = read_flight(
            run_with_flight(tmp_path, "no-traffic", traffic_users=0)
        )
        assert flight["snapshots"][-1]["queue"] is None
