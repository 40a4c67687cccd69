"""Tests for checkpoint save/load: atomicity, validation, fidelity."""

import base64
import json
import os
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.runner import CampaignRunner
from repro.perf.wire import encode_shard_bytes, encode_shard_result
from repro.service.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint_table,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.scheduler import ServiceConfig
from repro.store.packing import pack
from repro.store.rows import table_codec
from repro.store.segment import END_MAGIC, MAGIC, SegmentWriter
from repro.util.timeutil import DAY
from tests.store.test_segment_format import (
    golden_checkpoint,
    golden_shard_result,
    golden_specs,
)

#: The serve command whose ServiceConfig equals make_config().
SERVE_ARGS = [
    "serve", "--top", "8", "--population", "300", "--shards", "2",
    "--epochs", "2", "--epoch-days", "10", "--workers", "1", "--seed", "7",
]


def make_config(**kwargs):
    defaults = dict(population_size=300, top=8, shards=2, epochs=2,
                    epoch_length=10 * DAY)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


def shard_results_for(config, epoch=0):
    runner = CampaignRunner(
        seed=config.seed, population_size=config.population_size,
        shards=config.shards, obs_enabled=True,
    )
    from repro.core.substrate import WorldShard
    from repro.util.rngtree import RngTree

    sites = WorldShard(RngTree(config.seed)).build_population(
        config.population_size
    ).alexa_top(config.top)
    plans = runner.plan(sites, epoch=epoch,
                        start=config.start + epoch * config.epoch_length)
    return runner.execute(plans, build_journal=False).shard_results


class TestRoundTrip:
    def test_save_load_preserves_shard_results_bitwise(self, tmp_path):
        config = make_config()
        results = shard_results_for(config)
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(results)
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)

        loaded = load_checkpoint(path, config)
        assert loaded.epochs_completed == 1
        restored = loaded.epoch_results[0]
        # Values, and their deterministic packed bytes.  Pickle bytes
        # would not do: pickle memoizes shared objects, so equal
        # results can pickle differently.
        assert restored == results
        for original, round_tripped in zip(results, restored):
            assert pack(encode_shard_result(round_tripped)) == pack(
                encode_shard_result(original)
            )

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        checkpoint.record_epoch(shard_results_for(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        assert path.exists()
        assert not (tmp_path / "svc.ckpt.tmp").exists()

    def test_empty_checkpoint_round_trips(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        save_checkpoint(Checkpoint(config_digest(config)), path)
        assert load_checkpoint(path, config).epochs_completed == 0


class TestValidation:
    def test_rejects_mismatched_config(self, tmp_path):
        config = make_config()
        checkpoint = Checkpoint(config_digest(config))
        path = tmp_path / "svc.ckpt"
        save_checkpoint(checkpoint, path)
        with pytest.raises(CheckpointError, match="different sim config"):
            load_checkpoint(path, make_config(seed=99))

    def test_accepts_different_execution_knobs(self, tmp_path):
        config = make_config(workers=1, executor="serial")
        path = tmp_path / "svc.ckpt"
        save_checkpoint(Checkpoint(config_digest(config)), path)
        resumer = make_config(workers=4, executor="process", checkpoint_every=2)
        assert load_checkpoint(path, resumer).epochs_completed == 0

    def test_rejects_empty_file(self, tmp_path):
        config = make_config()
        path = tmp_path / "svc.ckpt"
        path.write_text("", encoding="ascii")
        with pytest.raises(CheckpointError, match="too short"):
            load_checkpoint(path, config)


# -- the corruption matrix ----------------------------------------------------


class _MakeDir:
    """Unpickles by calling ``os.mkdir``: an observable side effect."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def v1_checkpoint(digest, blob):
    """The retired schema-1 layout: JSONL around base64 pickle blobs."""
    records = [
        {"record": "header", "schema": 1, "config_digest": digest,
         "epochs_completed": 1},
        {"record": "shard_blob", "epoch": 0, "shard": 0,
         "wire": base64.b64encode(blob).decode("ascii")},
        {"record": "end", "blobs": 1},
    ]
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def write_rows(path, digest, rows):
    """A checkpoint segment holding exactly ``rows``, one per page."""
    with SegmentWriter(path, checkpoint_table(digest), lambda row, _strings: row,
                       rows_per_page=1) as writer:
        writer.extend(rows)


def shard_row(epoch, position):
    return (epoch, position, encode_shard_result(golden_shard_result(position)))


def flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def build_damaged(case, path):
    """Write the damaged checkpoint ``case`` names to ``path``."""
    digest = config_digest(make_config())
    if case == "empty-file":
        path.write_bytes(b"")
    elif case == "v1-jsonl":
        path.write_bytes(v1_checkpoint(
            digest, encode_shard_bytes(golden_shard_result())
        ))
    elif case == "v1-pickled-reduce":
        marker = path.with_name("unpickled")
        path.write_bytes(v1_checkpoint(digest, pickle.dumps(_MakeDir(str(marker)))))
    elif case == "world-store-specs":
        encode, _ = table_codec("specs")
        with SegmentWriter(path, "specs", encode) as writer:
            writer.extend(golden_specs())
    elif case == "other-sim-config":
        save_checkpoint(golden_checkpoint(config_digest(make_config(seed=99))), path)
    elif case == "not-a-shard-row":
        write_rows(path, digest, [(0, 0, ("not", "a", "shard", "row"))])
    elif case == "epoch-gap":
        write_rows(path, digest, [shard_row(0, 0), shard_row(2, 0)])
    elif case == "repeated-position":
        write_rows(path, digest, [shard_row(0, 0), shard_row(0, 0)])
    else:
        save_checkpoint(golden_checkpoint(digest), path)
        size = path.stat().st_size
        if case == "torn-tail":
            path.write_bytes(path.read_bytes()[:-5])
        elif case == "page-byte":
            flip(path, len(MAGIC) + 20)
        elif case == "footer-byte":
            flip(path, size - len(END_MAGIC) - 12)
        else:
            raise AssertionError(case)


#: Each damaged file and the reason its rejection must name.
DAMAGE = {
    "empty-file": "too short",
    "v1-jsonl": "bad magic",
    "v1-pickled-reduce": "bad magic",
    "torn-tail": "no end marker",
    "page-byte": "page checksum mismatch",
    "footer-byte": "footer checksum mismatch",
    "world-store-specs": "segment table 'specs'",
    "other-sim-config": "different sim config",
    "not-a-shard-row": "undecodable page",
    "epoch-gap": r"\(epoch 2, position 0\) out of order",
    "repeated-position": r"\(epoch 0, position 0\) out of order",
}


class TestCorruptionMatrix:
    @pytest.mark.parametrize("case", list(DAMAGE))
    def test_load_rejects(self, tmp_path, case):
        path = tmp_path / "svc.ckpt"
        build_damaged(case, path)
        with pytest.raises(CheckpointError, match=DAMAGE[case]):
            load_checkpoint(path, make_config())
        assert not (tmp_path / "unpickled").exists()

    @pytest.mark.parametrize("case", list(DAMAGE))
    def test_serve_refuses_to_resume(self, tmp_path, capsys, case):
        path = tmp_path / "svc.ckpt"
        build_damaged(case, path)
        assert main(SERVE_ARGS + ["--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err
        # The same reason as load_checkpoint's: the serve config's
        # digest matched, so only the damage was rejected.
        assert re.search(DAMAGE[case], err)
        assert not (tmp_path / "unpickled").exists()


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(golden_checkpoint(config_digest(make_config())), path)
    return path


class TestBitFlips:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_is_rejected(self, small_checkpoint, data):
        clean = small_checkpoint.read_bytes()
        bit = data.draw(st.integers(0, 8 * len(clean) - 1), label="bit")
        damaged = bytearray(clean)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path = small_checkpoint.with_name("flipped.ckpt")
        path.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, make_config())
