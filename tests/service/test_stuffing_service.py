"""The stuffing stream in serve mode: determinism across the batch
engine's vectorized path and its scalar oracle, worker counts and
executors, plus the lifecycle bookkeeping."""

import pytest

from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY

SEED = 37


def make_config(**overrides) -> ServiceConfig:
    base = dict(
        seed=SEED,
        population_size=150,
        top=6,
        shards=2,
        epochs=1,
        epoch_length=10 * DAY,
        traffic_users=250,
        traffic_window=2 * DAY,
        stuffing_interval=3 * DAY,
        stuffing_site_density=0.2,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def run(**overrides):
    return CampaignDaemon(make_config(**overrides)).run()


@pytest.fixture(scope="module")
def baseline():
    return run()


class TestStreamBookkeeping:
    def test_waves_fire_on_the_configured_cadence(self, baseline):
        lifecycle = baseline.lifecycle
        # 10-day epoch, 3-day cadence -> fires at days 3, 6, 9.
        assert lifecycle.stuffing_waves == 3
        assert lifecycle.stream_counts["service.stuffing"] == 3
        assert len(baseline.stuffing_waves) == 3
        assert lifecycle.stuffing_logins == sum(
            w.attempts for w in baseline.stuffing_waves
        )
        assert lifecycle.stuffing_successes == sum(
            w.successes for w in baseline.stuffing_waves
        )
        assert baseline.stuffing_model is not None
        assert baseline.live_stats["stuffing_queue"] is not None

    def test_stuffing_off_leaves_no_trace(self):
        result = run(stuffing_interval=0)
        assert result.lifecycle.stuffing_waves == 0
        assert result.stuffing_waves == []
        assert result.stuffing_model is None
        assert result.live_stats["stuffing_queue"] is None
        assert "service.stuffing" not in result.lifecycle.stream_counts

    def test_waves_record_both_acquisition_channels_over_time(self):
        result = run(epoch_length=30 * DAY)
        channels = {w.acquisition for w in result.stuffing_waves}
        assert channels == {"online_capture", "offline_crack"}

    def test_correlation_attributes_the_campaign(self, baseline):
        from repro.analysis.stuffing import build_stuffing_correlation

        waves = [w for w in baseline.stuffing_waves if len(w.hit_users)]
        assert waves, "campaign produced no attributable waves"
        report = build_stuffing_correlation(
            waves, baseline.stuffing_model, 250
        )
        assert report.accuracy == 1.0


class TestEngineEquivalence:
    def test_per_event_engine_matches_batched_byte_for_byte(
        self, baseline, scalar_oracle
    ):
        with scalar_oracle():
            scalar = run()
        assert baseline.live_stats["engine"]["vector_failed"] > 0
        assert scalar.live_stats["engine"]["vector_committed"] == 0
        assert scalar.journal.to_jsonl() == baseline.journal.to_jsonl()
        assert scalar.detection_digest == baseline.detection_digest
        assert scalar.stuffing_waves == baseline.stuffing_waves

    def test_batch_size_never_moves_journal_bytes(self, baseline):
        tiny = run(stuffing_batch_events=7, traffic_batch_events=33)
        assert tiny.journal.to_jsonl() == baseline.journal.to_jsonl()
        assert tiny.stuffing_waves == baseline.stuffing_waves


class TestExecutorInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_pools_match_serial(self, baseline, workers):
        pooled = run(workers=workers, executor="process")
        assert pooled.journal.to_jsonl() == baseline.journal.to_jsonl()
        assert pooled.stuffing_waves == baseline.stuffing_waves

    def test_process_pool_per_event_matches_serial_batched(
        self, baseline, scalar_oracle
    ):
        with scalar_oracle():
            pooled = run(workers=2, executor="process")
        assert pooled.journal.to_jsonl() == baseline.journal.to_jsonl()
        assert pooled.stuffing_waves == baseline.stuffing_waves
