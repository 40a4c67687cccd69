"""Checkpoint/resume determinism: the kill-at-epoch-k matrix.

The service-mode contract under test: a daemon killed after epoch *k*
and restarted from its checkpoint must replay to a journal
**byte-identical** to an uninterrupted run's — and to identical
analysis state (the monitor's detection digest) — for any worker
count on either side of the kill and under fault injection.

The fast tier covers the serial kill points and a mild fault profile;
the heavier worker-count × fault combinations ride in ``-m slow``.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.service.checkpoint import load_checkpoint
from repro.service.daemon import CampaignDaemon
from repro.service.lifecycle import AccountLifecycle
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY


def make_config(fault_profile=None, **kwargs):
    defaults = dict(
        population_size=300, top=16, shards=2, epochs=3, epoch_length=10 * DAY,
        probe_interval=3 * DAY, dump_interval=7 * DAY, bind_interval=2 * DAY,
        freeze_interval=9 * DAY, reset_interval=13 * DAY,
        attack_interval=4 * DAY, recover_delay=2 * DAY,
        hard_accounts=8, easy_accounts=8, unused_accounts=4, control_accounts=2,
    )
    if fault_profile is not None:
        defaults["fault_plan"] = FaultPlan.from_profile(fault_profile, seed=3)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


def run_killed_at(config, checkpoint_path, kill_after_epoch):
    """Run a daemon that requests a stop once epoch k has dispatched.

    The deterministic stand-in for SIGTERM mid-run: the in-flight
    epoch finishes, gets checkpointed, and the loop exits — exactly
    the graceful-stop path the CLI signal handler takes.
    """
    daemon = CampaignDaemon(config, checkpoint_path=checkpoint_path)
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


def assert_resume_matches(tmp_path, kill_after_epoch, *,
                          fault_profile=None, resume_workers=1,
                          resume_executor="serial", **config_kwargs):
    reference = CampaignDaemon(make_config(fault_profile, **config_kwargs)).run()
    assert not reference.interrupted

    checkpoint_path = tmp_path / "svc.ckpt"
    interrupted = run_killed_at(
        make_config(fault_profile, **config_kwargs), checkpoint_path,
        kill_after_epoch,
    )
    assert interrupted.interrupted
    assert interrupted.epochs_completed == kill_after_epoch + 1
    assert checkpoint_path.exists()

    resume_config = make_config(
        fault_profile, workers=resume_workers, executor=resume_executor,
        **config_kwargs,
    )
    checkpoint = load_checkpoint(checkpoint_path, resume_config)
    assert checkpoint.epochs_completed == kill_after_epoch + 1

    resumed = CampaignDaemon(
        resume_config, checkpoint_path=checkpoint_path
    ).run(resume=checkpoint)
    assert not resumed.interrupted
    assert [r.replayed for r in resumed.reports[: kill_after_epoch + 1]] == (
        [True] * (kill_after_epoch + 1)
    )
    assert resumed.journal.to_jsonl() == reference.journal.to_jsonl()
    assert resumed.detection_digest == reference.detection_digest
    assert len(resumed.attempts) == len(reference.attempts)
    return reference


class TestKillMatrixFast:
    @pytest.mark.parametrize("kill_after_epoch", [0, 1])
    def test_serial_no_faults(self, tmp_path, kill_after_epoch):
        assert_resume_matches(tmp_path, kill_after_epoch)

    @pytest.mark.parametrize("kill_after_epoch", [0, 1])
    def test_population_and_stuffing(self, tmp_path, kill_after_epoch):
        """The resumed daemon rebuilds the benign row block and replays
        traffic and stuffing to the uninterrupted run's bytes."""
        reference = assert_resume_matches(
            tmp_path, kill_after_epoch, traffic_users=2000,
            traffic_logins_per_day=3.0, stuffing_interval=4 * DAY,
            stuffing_site_density=0.1,
        )
        lifecycle = reference.lifecycle
        assert lifecycle.traffic_logins > 0
        assert lifecycle.stuffing_waves > 0
        assert lifecycle.stuffing_successes > 0

    def test_serial_mild_faults(self, tmp_path):
        assert_resume_matches(tmp_path, 0, fault_profile="mild")

    def test_resume_under_different_worker_count(self, tmp_path):
        assert_resume_matches(tmp_path, 0, resume_workers=2,
                              resume_executor="process")

    def test_kill_resume_with_world_store(self, tmp_path):
        """Killed and resumed with ``--world-store``: the daemon reopens
        the store on both sides and still byte-matches a no-store,
        uninterrupted reference run (store and resume are each
        execution-shaped; together they must still move nothing)."""
        from repro.store import build_world_store
        from repro.store.world import close_open_stores

        reference = CampaignDaemon(make_config()).run()
        assert not reference.interrupted

        store_path = tmp_path / "world"
        build_world_store(store_path, seed=7, population=300).close()
        checkpoint_path = tmp_path / "svc.ckpt"
        try:
            interrupted = run_killed_at(
                make_config(world_store=str(store_path)), checkpoint_path, 0
            )
            assert interrupted.interrupted

            resume_config = make_config(world_store=str(store_path))
            checkpoint = load_checkpoint(checkpoint_path, resume_config)
            resumed = CampaignDaemon(
                resume_config, checkpoint_path=checkpoint_path
            ).run(resume=checkpoint)
            assert not resumed.interrupted
            assert resumed.journal.to_jsonl() == reference.journal.to_jsonl()
            assert resumed.detection_digest == reference.detection_digest
        finally:
            close_open_stores()

    def test_checkpoint_cadence_skips_epochs(self, tmp_path):
        config = make_config(checkpoint_every=2)
        path = tmp_path / "svc.ckpt"
        result = CampaignDaemon(config, checkpoint_path=path).run()
        assert not result.interrupted
        # Cadence 2 over 3 epochs: checkpoint after epoch 1 (2 done)
        # and after the final epoch.
        assert [r.checkpointed for r in result.reports] == [False, True, True]
        assert load_checkpoint(path, config).epochs_completed == 3


class TestStopInsideTheServiceWindow:
    """SIGTERM lands while an epoch's service window runs beside its crawl."""

    @pytest.mark.parametrize("stop_epoch", [0, 1])
    @pytest.mark.parametrize("workers,executor", [(1, "serial"), (2, "process")])
    def test_checkpoints_the_epoch_and_resumes_to_the_same_bytes(
        self, tmp_path, monkeypatch, stop_epoch, workers, executor
    ):
        config = make_config(workers=workers, executor=executor)
        reference = CampaignDaemon(config, flight_path=tmp_path / "ref.jsonl").run()

        checkpoint_path = tmp_path / "svc.ckpt"
        flight_path = tmp_path / "flight.jsonl"
        daemon = CampaignDaemon(
            config, checkpoint_path=checkpoint_path, flight_path=flight_path
        )
        start, end = daemon.scheduler.window(stop_epoch)
        probe = AccountLifecycle._probe

        def probe_then_stop(lifecycle):
            # Mid-window, where a SIGTERM handler would most often run.
            probe(lifecycle)
            if start < lifecycle.system.clock.now() <= end:
                daemon.request_stop()

        with monkeypatch.context() as patched:
            patched.setattr(AccountLifecycle, "_probe", probe_then_stop)
            interrupted = daemon.run()
        assert interrupted.interrupted
        assert interrupted.journal is None
        assert interrupted.epochs_completed == stop_epoch + 1
        assert interrupted.reports[-1].checkpointed
        # The stopped epoch's window ran to its end.
        assert interrupted.lifecycle.probes == (end - config.start) // config.probe_interval

        checkpoint = load_checkpoint(checkpoint_path, config)
        assert checkpoint.epochs_completed == stop_epoch + 1
        resumed = CampaignDaemon(
            config, checkpoint_path=checkpoint_path, flight_path=flight_path
        ).run(resume=checkpoint)
        assert not resumed.interrupted
        assert resumed.journal.to_jsonl() == reference.journal.to_jsonl()
        assert resumed.detection_digest == reference.detection_digest
        assert flight_path.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


@pytest.mark.slow
class TestKillMatrixSlow:
    @pytest.mark.parametrize("kill_after_epoch", [0, 1])
    @pytest.mark.parametrize("fault_profile", ["mild", "moderate"])
    @pytest.mark.parametrize("resume_workers,resume_executor",
                             [(2, "process"), (4, "process")])
    def test_kill_matrix(self, tmp_path, kill_after_epoch, fault_profile,
                         resume_workers, resume_executor):
        assert_resume_matches(
            tmp_path, kill_after_epoch, fault_profile=fault_profile,
            resume_workers=resume_workers, resume_executor=resume_executor,
        )
