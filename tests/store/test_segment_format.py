"""Golden-bytes pin of the on-disk segment format, and corruption tests.

The segment layout (magic, page framing, per-page intern tables, the
packed footer, CRCs, end marker) is a persistence contract: a store
built today must open under every future reader of
``SEGMENT_SCHEMA == 1``.  The golden fixture here is built from
hand-written literal specs — not the generator — so the pinned digest
only moves when the *format* moves, which must come with a schema
bump, not a silent rewrite.

The corruption half pins the failure mode: any flipped byte or torn
tail is a clean :class:`~repro.store.segment.StoreError` naming the
file, never garbage rows or an unhandled struct/unpack error.

Service checkpoints are the format's second user: one shard-result
row per page.  Their golden pin is built from a hand-written
:class:`~repro.core.runner.ShardResult` (no crawl), so it moves only
when the checkpoint layout or the shard wire tuple moves, which must
come with a ``CHECKPOINT_SCHEMA`` bump.
"""

import hashlib
import zlib

import pytest

from repro.core.campaign import AttemptRecord, CampaignStats
from repro.core.runner import ShardResult, ShardTelemetry
from repro.crawler.outcomes import CrawlOutcome, TerminationCode
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity, PostalAddress
from repro.obs import EventRecord
from repro.obs.journal import ShardObservation
from repro.obs.tracing import SpanRecord
from repro.service.checkpoint import CHECKPOINT_SCHEMA, Checkpoint, save_checkpoint
from repro.store.packing import pack
from repro.store.rows import table_codec
from repro.store.segment import (
    END_MAGIC,
    MAGIC,
    SEGMENT_SCHEMA,
    SegmentReader,
    SegmentWriter,
    StoreError,
)
from repro.web.spec import BotCheck, RegistrationStyle, SiteSpec

#: sha256 of the golden segment file.  If a deliberate format change
#: moves this, bump SEGMENT_SCHEMA and re-pin.
GOLDEN_SHA256 = "f70e95e02659053d64aed49a66d2c37596e1c6b3a5751c7f6dc80ce6d725e00f"

#: sha256 of the golden checkpoint (two epochs of golden_shard_result
#: rows).  If a deliberate change of the checkpoint layout or of the
#: shard wire tuple moves this, bump CHECKPOINT_SCHEMA and re-pin.
GOLDEN_CHECKPOINT_SHA256 = "ab634a1297ec606ab15e4a16fad6885890abc4582c13f9a98d37a002b5aa0f7b"

#: Golden bytes of the value codec for one nested tuple.
GOLDEN_PACK = "0705030205026162000702020305080105016b043fe0000000000000"


def golden_specs():
    """Literal fixture rows: duplicates, empties, optionals, enums."""
    return [
        SiteSpec(host="alpha.example", rank=1, category="news", language="en",
                 notes={"k": "v"}),
        SiteSpec(host="beta.example", rank=2, category="forum", language="de",
                 registration_style=RegistrationStyle.MULTISTAGE,
                 shared_backend="netsuite", shadow_ban_rate=0.25),
        SiteSpec(host="gamma.example", rank=3, category="shop", language="en",
                 bot_check=BotCheck.CAPTCHA_IMAGE, max_email_length=18),
        SiteSpec(host="alpha.example", rank=4, category="news", language="en"),
        SiteSpec(host="", rank=5, category="", language="en"),
    ]


def golden_shard_result(shard_index: int = 0) -> ShardResult:
    """A literal shard result: a shared identity, every observation kind."""
    identity = Identity(
        identity_id=7, first_name="Ada", last_name="Byron", gender="female",
        date_of_birth=-4_000_000,
        address=PostalAddress(street="1 Main St", city="Springfield",
                              state="IL", zip_code="62701"),
        phone="555-0100", employer="", email_local="ada.byron",
        email_domain="mail.example", password="Zq8Lw3Rt0p",
        password_class=PasswordClass.HARD,
    )
    joined = CrawlOutcome(
        site_host="alpha.example", url="https://alpha.example/join",
        code=TerminationCode.OK_SUBMISSION, exposed_email=True,
        exposed_password=True, pages_loaded=3, started_at=100,
        finished_at=160, filled_fields=("email", "password"),
    )
    missed = CrawlOutcome(
        site_host="beta.example", url="https://beta.example/",
        code=TerminationCode.NO_REGISTRATION_FOUND, detail="no form",
        pages_loaded=1, started_at=200, finished_at=205,
    )
    return ShardResult(
        shard_index=shard_index,
        site_attempts=[
            (shard_index, [AttemptRecord("alpha.example", 1, joined.url, identity,
                                         PasswordClass.HARD, joined,
                                         registered_at=160)]),
            (shard_index + 2, [AttemptRecord("beta.example", 2, missed.url,
                                             identity, PasswordClass.HARD,
                                             missed, manual=True)]),
        ],
        stats=CampaignStats(2, 0, 2, 1, 1, 0),
        telemetry=ShardTelemetry(9, 1, 1, 1, 1, 4, 105),
        fault_report=FaultReport(transport_unreachable=1),
        observation=ShardObservation(
            shard_index=shard_index,
            counters={"crawler.attempts": 2},
            gauges={"pages": 4, "ratio": 0.5},
            histograms={"crawler.seconds": {
                "bounds": [10, 60.5], "buckets": [1, 0], "overflow": 1,
                "count": 2, "sum": 65,
            }},
            spans=[SpanRecord(0, -1, "crawl", 100, 160,
                              (("host", "alpha.example"), ("pages", 3)))],
            events=[EventRecord(160, "crawler", "registered", (("rank", 1),))],
        ),
    )


def golden_checkpoint(digest: str = "d" * 64) -> Checkpoint:
    """Two epochs of two literal shard results each."""
    checkpoint = Checkpoint(digest)
    for _ in range(2):
        checkpoint.record_epoch([golden_shard_result(0), golden_shard_result(1)])
    return checkpoint


@pytest.fixture
def golden_segment(tmp_path):
    path = tmp_path / "golden.seg"
    encode, _ = table_codec("specs")
    with SegmentWriter(path, "specs", encode, rows_per_page=2) as writer:
        writer.extend(golden_specs())
    return path


def open_specs(path):
    _, decode = table_codec("specs")
    return SegmentReader(path, decode, expect_table="specs")


class TestGoldenBytes:
    def test_value_codec_bytes_pinned(self):
        value = (1, "ab", None, (True, -3), {"k": 0.5})
        assert pack(value).hex() == GOLDEN_PACK

    def test_segment_bytes_pinned(self, golden_segment):
        data = golden_segment.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256

    def test_framing(self, golden_segment):
        data = golden_segment.read_bytes()
        assert data.startswith(MAGIC)
        assert data.endswith(END_MAGIC)

    def test_footer_index(self, golden_segment):
        with open_specs(golden_segment) as reader:
            assert reader.row_count == 5
            assert reader.rows_per_page == 2
            entries = reader.page_entries()
            # 5 rows at 2/page: pages of 2, 2, 1.
            assert [e.n_rows for e in entries] == [2, 2, 1]
            assert [e.first_row for e in entries] == [0, 2, 4]
            assert entries[0].offset == len(MAGIC)
            for prev, cur in zip(entries, entries[1:]):
                assert cur.offset == prev.offset + prev.length

    def test_rows_decode(self, golden_segment):
        with open_specs(golden_segment) as reader:
            assert list(reader.iter_rows()) == golden_specs()

    def test_schema_constant(self):
        assert SEGMENT_SCHEMA == 1

    def test_checkpoint_bytes_pinned(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        written = save_checkpoint(golden_checkpoint(), path)
        data = path.read_bytes()
        assert written == len(data)
        assert CHECKPOINT_SCHEMA == 2
        assert hashlib.sha256(data).hexdigest() == GOLDEN_CHECKPOINT_SHA256


class TestCorruption:
    def _corrupt(self, path, offset):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_flipped_page_byte_is_clean_error(self, golden_segment):
        # Inside the first page's payload (past magic + page header).
        self._corrupt(golden_segment, len(MAGIC) + 12)
        with open_specs(golden_segment) as reader:
            with pytest.raises(StoreError, match="checksum mismatch"):
                reader.get(0)

    def test_flipped_footer_byte_is_clean_error(self, golden_segment):
        size = golden_segment.stat().st_size
        self._corrupt(golden_segment, size - len(END_MAGIC) - 10)
        with pytest.raises(StoreError, match="footer checksum"):
            open_specs(golden_segment)

    def test_truncated_tail_is_clean_error(self, golden_segment):
        data = golden_segment.read_bytes()
        golden_segment.write_bytes(data[:-4])
        with pytest.raises(StoreError, match="truncated or torn"):
            open_specs(golden_segment)

    def test_truncated_to_header_is_clean_error(self, golden_segment):
        golden_segment.write_bytes(golden_segment.read_bytes()[:10])
        with pytest.raises(StoreError, match="too short"):
            open_specs(golden_segment)

    def test_wrong_magic_is_clean_error(self, golden_segment):
        data = bytearray(golden_segment.read_bytes())
        data[:8] = b"NOTSTORE"
        golden_segment.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="bad magic"):
            open_specs(golden_segment)

    def test_malformed_row_is_clean_error(self, tmp_path):
        # CRC-valid page, but the row is not a spec row.
        path = tmp_path / "bad.seg"
        with SegmentWriter(path, "specs", lambda row, _strings: row) as writer:
            writer.append((1, 2, 3))
        with open_specs(path) as reader:
            with pytest.raises(StoreError, match="undecodable page at offset 8"):
                reader.get(0)

    @pytest.mark.parametrize("footer", [7, (1, "specs", 1, 1, ((8, 10),))])
    def test_malformed_footer_is_clean_error(self, tmp_path, footer):
        # CRC-valid footer, but not a footer tuple / index entry.
        packed = pack(footer)
        path = tmp_path / "bad.seg"
        path.write_bytes(
            MAGIC + packed + len(packed).to_bytes(4, "big")
            + zlib.crc32(packed).to_bytes(4, "big") + END_MAGIC
        )
        with pytest.raises(StoreError, match="undecodable footer"):
            open_specs(path)

    def test_wrong_table_is_clean_error(self, golden_segment):
        _, decode = table_codec("specs")
        with pytest.raises(StoreError, match="expected 'accounts'"):
            SegmentReader(golden_segment, decode, expect_table="accounts")

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(StoreError, match="cannot open"):
            open_specs(tmp_path / "absent.seg")


class TestWriterDiscipline:
    def test_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "a.seg"
        encode, _ = table_codec("specs")
        writer = SegmentWriter(path, "specs", encode)
        writer.append(golden_specs()[0])
        writer.abort()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_crash_mid_write_leaves_no_segment(self, tmp_path):
        """An exception inside the context publishes nothing."""
        path = tmp_path / "c.seg"
        encode, _ = table_codec("specs")
        with pytest.raises(RuntimeError):
            with SegmentWriter(path, "specs", encode) as writer:
                writer.append(golden_specs()[0])
                raise RuntimeError("boom")
        assert not path.exists()

    def test_append_after_close_rejected(self, tmp_path):
        path = tmp_path / "d.seg"
        encode, _ = table_codec("specs")
        with SegmentWriter(path, "specs", encode) as writer:
            writer.append(golden_specs()[0])
        with pytest.raises(StoreError, match="already closed"):
            writer.append(golden_specs()[1])
