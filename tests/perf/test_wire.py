"""Round-trip property tests for the compact shard wire codec."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import AttemptRecord, CampaignStats
from repro.core.runner import ShardPlan, ShardResult, ShardTelemetry, run_shard
from repro.core.substrate import WorldShard
from repro.crawler.outcomes import CrawlOutcome, TerminationCode
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.identity.records import Identity, PostalAddress
from repro.obs import EventRecord
from repro.obs.journal import ShardObservation
from repro.obs.tracing import SpanRecord
from repro.perf.wire import (
    WIRE_SCHEMA,
    decode_shard_bytes,
    decode_shard_result,
    encode_shard_bytes,
    encode_shard_result,
    pickled_size,
)
from repro.store.packing import pack, unpack
from repro.util.rngtree import RngTree

# -- strategies ---------------------------------------------------------------

text = st.text(max_size=16)
instants = st.integers(min_value=0, max_value=10**9)


def counter_strategy(cls):
    """Any counter dataclass, every field an int."""
    return st.builds(
        cls, **{f.name: st.integers(0, 999) for f in dataclasses.fields(cls)}
    )


identities = st.builds(
    Identity,
    identity_id=st.integers(0, 10**6),
    first_name=text,
    last_name=text,
    gender=st.sampled_from(["female", "male"]),
    date_of_birth=instants,
    address=st.builds(PostalAddress, street=text, city=text, state=text, zip_code=text),
    phone=text,
    employer=text,
    email_local=text,
    email_domain=text,
    password=text,
    password_class=st.sampled_from(PasswordClass),
)

outcomes = st.builds(
    CrawlOutcome,
    site_host=text,
    url=text,
    code=st.sampled_from(TerminationCode),
    detail=text,
    exposed_email=st.booleans(),
    exposed_password=st.booleans(),
    pages_loaded=st.integers(0, 50),
    started_at=instants,
    finished_at=instants,
    filled_fields=st.tuples(text, text).map(tuple) | st.just(()),
)

attempts = st.builds(
    AttemptRecord,
    site_host=text,
    rank=st.integers(1, 30000),
    url=text,
    identity=identities,
    password_class=st.sampled_from(PasswordClass),
    outcome=outcomes,
    manual=st.booleans(),
    registered_at=instants,
)

attr_tuples = st.lists(
    st.tuples(text, st.one_of(text, st.integers(-100, 100))), max_size=3
).map(tuple)

spans = st.builds(
    SpanRecord,
    index=st.integers(0, 100),
    parent=st.integers(-1, 100),
    name=text,
    start=instants,
    end=instants,
    attrs=attr_tuples,
)

events = st.builds(
    EventRecord, time=instants, component=text, message=text, attrs=attr_tuples
)


@st.composite
def histogram_snapshots(draw):
    """The shape ``Histogram.as_dict`` emits: list bounds and buckets."""
    bounds = sorted(draw(st.lists(
        st.integers(0, 10**6) | st.floats(0, 1e6, allow_nan=False),
        min_size=1, max_size=4,
    )))
    buckets = draw(st.lists(st.integers(0, 99), min_size=len(bounds),
                            max_size=len(bounds)))
    overflow = draw(st.integers(0, 99))
    return {
        "bounds": bounds,
        "buckets": buckets,
        "overflow": overflow,
        "count": sum(buckets) + overflow,
        "sum": draw(st.integers(0, 10**9) | st.floats(0, 1e9, allow_nan=False)),
    }


observations = st.builds(
    ShardObservation,
    shard_index=st.integers(0, 64),
    counters=st.dictionaries(text, st.integers(0, 999), max_size=4),
    gauges=st.dictionaries(
        text, st.integers(0, 999) | st.floats(allow_nan=False), max_size=3
    ),
    histograms=st.dictionaries(text, histogram_snapshots(), max_size=2),
    spans=st.lists(spans, max_size=4),
    events=st.lists(events, max_size=4),
)

shard_results = st.builds(
    ShardResult,
    shard_index=st.integers(0, 64),
    site_attempts=st.lists(
        st.tuples(st.integers(0, 500), st.lists(attempts, max_size=3)), max_size=4
    ),
    stats=counter_strategy(CampaignStats),
    telemetry=counter_strategy(ShardTelemetry),
    fault_report=counter_strategy(FaultReport),
    observation=st.none() | observations,
)


# -- properties ---------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(result=shard_results)
    def test_decode_encode_is_identity(self, result):
        assert decode_shard_result(encode_shard_result(result)) == result

    @settings(max_examples=30, deadline=None)
    @given(result=shard_results)
    def test_bytes_round_trip(self, result):
        assert decode_shard_bytes(encode_shard_bytes(result)) == result

    @settings(max_examples=30, deadline=None)
    @given(result=shard_results)
    def test_wire_tuple_survives_pickle(self, result):
        # What actually crosses the pool: pickle of the flat structure.
        wire = pickle.loads(pickle.dumps(encode_shard_result(result)))
        assert decode_shard_result(wire) == result

    @settings(max_examples=60, deadline=None)
    @given(result=shard_results)
    def test_wire_tuple_survives_pack(self, result):
        # What a checkpoint stores: pack, which returns lists as tuples.
        wire = unpack(pack(encode_shard_result(result)))
        assert decode_shard_result(wire) == result


class TestSchema:
    def test_wrong_schema_rejected(self):
        wire = list(encode_shard_result(ShardResult(0, [], CampaignStats(), ShardTelemetry())))
        wire[0] = WIRE_SCHEMA + 1
        with pytest.raises(ValueError, match="wire schema"):
            decode_shard_result(tuple(wire))

    def test_empty_wire_rejected(self):
        with pytest.raises(ValueError, match="wire schema"):
            decode_shard_result(())


class TestRealShard:
    def test_codec_beats_pickle_on_a_real_shard(self):
        seed, population, top = 523, 260, 24
        listing = WorldShard(RngTree(seed)).build_population(population)
        sites = listing.alexa_top(top)
        plan = ShardPlan(
            shard_index=0,
            shard_count=1,
            seed=seed,
            population_size=population,
            sites=tuple(sites),
            positions=tuple(range(len(sites))),
            obs_enabled=True,
        )
        result = run_shard(plan)
        assert result.site_attempts, "shard produced no attempts"
        blob = encode_shard_bytes(result)
        assert decode_shard_bytes(blob) == result
        assert len(blob) < pickled_size(result)
