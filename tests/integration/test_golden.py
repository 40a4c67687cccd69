"""Golden pins: the reproduction's output bytes, hashed.

Two SHA-256 pins that any refactor must leave alone:

- the stdout of ``repro pilot --scale 0.02 --seed 2017`` — the rendered
  Tables 1-4, Figure 3 and the §6.4.3 IP statistics of a small pilot;
- the journal bytes plus the monitor's detection digest of one small
  ``serve`` run with benign traffic, credential stuffing and the flight
  recorder on, so the journaled ``health.*`` verdicts are part of the
  hashed bytes.

A change that moves either hash changes what the reproduction reports.
If that change is deliberate, re-pin the hash here and update
EXPERIMENTS.md in the same change, saying what moved and why.

The pilot pin runs twice: with the ``repro.perf`` caches off, and on
from empty caches.  Both must hash the same, and the caches-on run must
hit every cache the pilot uses, so a cache that stops serving fails
here without any timing ratio.
"""

import contextlib
import hashlib
import io

import pytest

from repro.cli import main
from repro.crawler.fields import _classify_cached
from repro.perf import caching as _perf
from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY

PILOT_SHA256 = "04e133241ec25ab79b441d1a9865024d6ead4474712ee9698f52ef18158ab865"
SERVE_SHA256 = "b21e7ba7b815f664e2b7e206c5f9607bc6d1688b9d6ba5ee5586b9e788dc37be"

#: The registered caches the pilot reads; with the fused classifier's
#: LRU, every cache the layer has apart from ``warm.worlds``, which
#: only sharded campaigns use (see tests/perf/test_warm.py).
PILOT_CACHES = (
    "parsed-dom",
    "render-homepage",
    "render-registration",
    "render-response",
    "cracking-guesses",
)


@pytest.fixture(params=[True, False], ids=["caches-on", "caches-off"])
def perf_layer(request):
    """The perf layer switched on or off, from empty caches; restored after."""
    was_enabled = _perf.enabled()
    _perf.set_enabled(request.param)
    _perf.clear_all_caches()
    yield request.param
    _perf.set_enabled(was_enabled)


def test_pilot_report_is_pinned(perf_layer):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["pilot", "--scale", "0.02", "--seed", "2017"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == PILOT_SHA256
    stats = _perf.cache_stats()
    hits = {name: stats[name]["hits"] for name in PILOT_CACHES}
    hits["classify"] = _classify_cached.cache_info().hits
    if perf_layer:
        assert all(hits.values()), f"a cache served no hits: {hits}"
    else:
        assert not any(hits.values()), f"a cache served hits while off: {hits}"


def test_serve_journal_and_detections_are_pinned(tmp_path):
    config = ServiceConfig(
        seed=7,
        population_size=400,
        top=40,
        shards=4,
        epochs=2,
        epoch_length=30 * DAY,
        traffic_users=2000,
        traffic_logins_per_day=3.0,
        stuffing_interval=11 * DAY,
        stuffing_site_density=0.1,
    )
    result = CampaignDaemon(config, flight_path=tmp_path / "flight.jsonl").run()
    journal = result.journal.to_jsonl()
    assert '"health.' in journal
    digest = hashlib.sha256(journal.encode("utf-8"))
    digest.update(result.detection_digest.encode("ascii"))
    assert digest.hexdigest() == SERVE_SHA256
