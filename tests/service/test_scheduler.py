"""Tests for service-mode config and the epoch scheduler."""

import pytest

from repro.service.checkpoint import config_digest
from repro.service.scheduler import EpochScheduler, ServiceConfig
from repro.util.timeutil import DAY, STUDY_START


def make_config(**kwargs):
    defaults = dict(population_size=300, top=20, shards=2, epochs=4,
                    epoch_length=10 * DAY)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestServiceConfig:
    def test_rejects_nonpositive_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            make_config(epochs=0)

    def test_rejects_nonpositive_epoch_length(self):
        with pytest.raises(ValueError, match="epoch_length"):
            make_config(epoch_length=0)

    def test_rejects_nonpositive_checkpoint_cadence(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_config(checkpoint_every=0)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(shards=0), "shards"),
        (dict(workers=0), "workers"),
        (dict(workers=2, executor="thread"), "executor"),
    ])
    def test_rejects_bad_execution_settings(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            make_config(**kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(traffic_users=-5), "traffic_users"),
        (dict(traffic_logins_per_day=-1.0), "traffic_logins_per_day"),
        (dict(traffic_mails_per_day=-0.5), "traffic_mails_per_day"),
        (dict(traffic_users=10, stuffing_targets=-1), "stuffing_targets"),
        (dict(traffic_users=10, stuffing_site_density=1.5), "site_density"),
        (dict(traffic_users=10, stuffing_crack_rate=7.0), "crack_rate"),
        (dict(traffic_users=10, stuffing_exact_rate=-0.1), "exact_rate"),
        (dict(traffic_users=10, stuffing_exact_rate=0.6,
              stuffing_derive_rate=0.5), "sub-distribution"),
        (dict(stuffing_interval=4 * DAY), "traffic_users"),
    ])
    def test_rejects_bad_traffic_and_stuffing_settings(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            make_config(**kwargs)

    def test_accepts_the_edges_of_every_range(self):
        make_config(traffic_users=0, traffic_logins_per_day=0.0,
                    traffic_mails_per_day=0.0, stuffing_targets=0)
        make_config(traffic_users=10, stuffing_interval=DAY,
                    stuffing_exact_rate=1.0, stuffing_derive_rate=0.0,
                    stuffing_site_density=1.0, stuffing_crack_rate=0.0)

    def test_sim_meta_excludes_execution_shaping(self):
        meta = make_config(workers=4, executor="process",
                           checkpoint_every=2).sim_meta()
        for forbidden in ("workers", "executor", "warm", "checkpoint",
                          "wire", "wall"):
            assert not any(forbidden in key for key in meta), meta.keys()

    def test_sim_meta_invariant_to_execution_knobs(self):
        serial = make_config(workers=1, executor="serial")
        pooled = make_config(workers=4, executor="process",
                             checkpoint_every=3)
        assert serial.sim_meta() == pooled.sim_meta()
        assert config_digest(serial) == config_digest(pooled)

    def test_digest_moves_with_sim_shaping(self):
        assert config_digest(make_config()) != config_digest(make_config(seed=8))
        assert config_digest(make_config()) != config_digest(make_config(epochs=5))


class TestEpochScheduler:
    def test_windows_tile_the_run(self):
        scheduler = EpochScheduler(make_config())
        windows = [scheduler.window(e) for e in range(4)]
        assert windows[0][0] == STUDY_START
        for (start, end), (next_start, _next_end) in zip(windows, windows[1:]):
            assert end == next_start
            assert end - start == 10 * DAY
        assert windows[-1][1] == scheduler.horizon

    def test_window_range_checked(self):
        scheduler = EpochScheduler(make_config())
        with pytest.raises(ValueError):
            scheduler.window(4)
        with pytest.raises(ValueError):
            scheduler.window(-1)

    def test_waves_partition_the_site_list(self):
        config = make_config()
        scheduler = EpochScheduler(config)
        sites = list(range(17))  # any sequence works; slicing is generic
        waves = [scheduler.wave_sites(sites, e) for e in range(config.epochs)]
        assert [len(w) for w in waves] == [5, 5, 5, 2]
        assert [item for wave in waves for item in wave] == sites

    def test_wave_positions_are_global_offsets(self):
        config = make_config()
        scheduler = EpochScheduler(config)
        sites = list(range(17))
        assert [scheduler.wave_positions(sites, e) for e in range(4)] == [0, 5, 10, 15]
