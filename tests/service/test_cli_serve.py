"""The `repro serve` CLI surface: epochs, checkpoints, resume, exit codes.

Bad execution settings are checked the same way for `repro campaign`.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.obs.journal import read_journal
from repro.service.lifecycle import LifecycleStats

SERVE_ARGS = [
    "serve", "--top", "12", "--population", "300", "--shards", "2",
    "--workers", "1", "--seed", "7", "--epochs", "3", "--epoch-days", "10",
]


class TestServe:
    def test_full_run_exits_zero_and_prints_epoch_table(self, capsys):
        assert main(SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "Epoch" in out
        assert "crawled" in out
        assert "Service totals" in out

    def test_obs_out_journal_matches_rerun(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(SERVE_ARGS + ["--obs-out", str(first)]) == 0
        assert main(SERVE_ARGS + ["--obs-out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = read_journal(first)
        assert payload["meta"]["command"] == "serve"
        # 3 epochs x 2 shards of crawling, plus the service world.
        assert payload["shard_count"] == 7

    def test_json_summary(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        assert main(SERVE_ARGS + ["--json", str(summary_path)]) == 0
        payload = json.loads(summary_path.read_text(encoding="utf-8"))
        assert payload["epochs_completed"] == 3
        assert payload["interrupted"] is False
        assert payload["lifecycle"]["probes"] > 0
        assert payload["stats"]["attempts"] > 0

    def test_json_lifecycle_lists_every_counter(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        assert main(SERVE_ARGS + ["--json", str(summary_path)]) == 0
        lifecycle = json.loads(summary_path.read_text())["lifecycle"]
        counters = {f.name for f in dataclasses.fields(LifecycleStats)
                    if f.type == "int"}
        assert set(lifecycle) == counters
        assert "bind_exhausted" in lifecycle

    def test_totals_rows_keep_their_labels(self, capsys):
        assert main(SERVE_ARGS + ["--traffic-users", "40",
                                  "--stuffing-interval-days", "4"]) == 0
        out = capsys.readouterr().out
        totals = out[out.index("Service totals"):]
        for label in (
            "Control-account probes", "Telemetry dumps ingested",
            "Accounts bound (service)", "Provider freezes / recoveries",
            "Password rotations", "Attacker accesses (successful)",
            "Benign logins (successful)", "Benign mails delivered",
            "Stuffing waves (candidates)", "Stuffed logins (successful)",
            "Cross-site hits", "Sites detected", "Detection digest",
        ):
            assert label in totals, label

    def test_every_queue_reaches_the_dashboard_and_the_report(
        self, tmp_path, capsys
    ):
        flight = tmp_path / "flight.jsonl"
        assert main(SERVE_ARGS + [
            "--traffic-users", "40", "--stuffing-interval-days", "4",
            "--flight", str(flight), "--obs-out", str(tmp_path / "j.jsonl"),
        ]) == 0
        report = capsys.readouterr().out
        assert main(["obs", "top", str(flight), "--once"]) == 0
        top = capsys.readouterr().out
        for name in ("queue", "stuffing queue"):
            assert f"{name} depth/peak" in top, name
            assert f"{name} refused" in top, name
        queue_sections = [
            section for section in report.split("\n\n")
            if "Backpressure queue (live process, not journaled)" in section
        ]
        assert len(queue_sections) == 2
        assert "stuffing queue" in queue_sections[1]

    def test_json_summary_reports_per_stream_tallies(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        assert main(SERVE_ARGS + ["--json", str(summary_path)]) == 0
        streams = json.loads(summary_path.read_text())["streams"]
        # Every installed stream appears, fired or not, with its
        # cumulative count and last-fired sim instant.
        assert set(streams) == {
            "service.probe", "service.ingest", "service.bind",
            "service.freeze", "service.reset", "service.attack",
        }
        assert streams["service.probe"]["count"] > 0
        assert streams["service.probe"]["last_fired"] is not None

    def test_flight_writes_dashboard_readable_file(self, tmp_path, capsys):
        flight = tmp_path / "flight.jsonl"
        assert main(SERVE_ARGS + ["--flight", str(flight)]) == 0
        assert flight.is_file()
        assert (tmp_path / "flight.jsonl.wall").is_file()
        assert "wrote flight file" in capsys.readouterr().err
        assert main(["obs", "top", str(flight), "--once"]) == 0
        assert "Lifecycle streams" in capsys.readouterr().out

    def test_flight_bytes_reproduce_across_runs(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(SERVE_ARGS + ["--flight", str(first)]) == 0
        assert main(SERVE_ARGS + ["--flight", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_serve_report_includes_live_login_sections(self, tmp_path,
                                                       capsys):
        assert main(SERVE_ARGS + [
            "--traffic-users", "40",
            "--obs-out", str(tmp_path / "journal.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Service streams" in out
        assert "Batch login engine (live process, not journaled)" in out
        assert "Backpressure queue (live process, not journaled)" in out
        assert "Provider login state (live process, not journaled)" in out

    def test_serve_report_shows_login_state_bytes(self, tmp_path, capsys):
        """The login-state section gives the columns' bytes beside their
        sizes: 16 an evidence-log entry, 13 a telemetry event, 25 a row."""
        assert main(SERVE_ARGS + [
            "--traffic-users", "40",
            "--obs-out", str(tmp_path / "journal.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        section = out.split("Provider login state (live process, not journaled)\n")[1]
        lines = section.split("\n\n")[0].splitlines()[2:]  # past header and rule
        rows = {label: int(value)
                for label, value in (line.rsplit(None, 1) for line in lines)}
        assert rows["evidence log bytes"] == 16 * rows["evidence log"] > 0
        assert rows["telemetry bytes"] > 0
        assert rows["telemetry bytes"] % 13 == 0
        assert rows["row state bytes"] == 25 * rows["accounts"]

    def test_checkpoint_then_resume_reproduces_the_journal(self, tmp_path):
        reference = tmp_path / "reference.jsonl"
        assert main(SERVE_ARGS + ["--obs-out", str(reference)]) == 0

        ckpt = tmp_path / "svc.ckpt"
        assert main(SERVE_ARGS + ["--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()

        resumed = tmp_path / "resumed.jsonl"
        assert main(
            SERVE_ARGS + ["--resume", str(ckpt), "--obs-out", str(resumed)]
        ) == 0
        assert resumed.read_bytes() == reference.read_bytes()

    def test_resume_prints_replayed_epochs(self, tmp_path, capsys):
        ckpt = tmp_path / "svc.ckpt"
        assert main(SERVE_ARGS + ["--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(SERVE_ARGS + ["--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        assert "replayed" in captured.out

    def test_missing_resume_checkpoint_exits_one(self, tmp_path, capsys):
        assert main(
            SERVE_ARGS + ["--resume", str(tmp_path / "missing.ckpt")]
        ) == 1
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_corrupt_resume_checkpoint_exits_one(self, tmp_path, capsys):
        ckpt = tmp_path / "svc.ckpt"
        ckpt.write_text("not a checkpoint\n", encoding="ascii")
        assert main(SERVE_ARGS + ["--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err

    def test_rejects_bad_epoch_count(self):
        with pytest.raises(ValueError, match="epochs"):
            main(["serve", "--epochs", "0"])

    @pytest.mark.parametrize("args,match", [
        (["--traffic-users", "-5"], "traffic_users"),
        (["--traffic-users", "50", "--stuffing-site-density", "1.5"],
         "site_density"),
        (["--traffic-users", "50", "--stuffing-crack-rate", "7"], "crack_rate"),
        (["--stuffing-interval-days", "2"], "traffic_users"),
        (["--workers", "0"], "workers"),
        (["--shards", "0"], "shards"),
    ])
    def test_rejects_bad_traffic_and_stuffing_settings(self, tmp_path, args, match):
        store = tmp_path / "store"
        with pytest.raises(ValueError, match=match):
            main(SERVE_ARGS + ["--world-store", str(store)] + args)
        # The config is checked before the world store is built.
        assert not store.exists()


@pytest.mark.parametrize("args,match", [
    (["--workers", "0"], "workers"),
    (["--shards", "0"], "shards"),
])
def test_campaign_rejects_bad_execution_settings(tmp_path, args, match):
    """The campaign twin: its runner is built before the world store."""
    store = tmp_path / "store"
    with pytest.raises(ValueError, match=match):
        main(["campaign", "--top", "12", "--population", "300",
              "--world-store", str(store)] + args)
    assert not store.exists()
