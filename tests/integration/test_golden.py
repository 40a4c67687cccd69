"""Golden pins: the reproduction's output bytes, hashed.

SHA-256 pins that any refactor must leave alone:

- the stdout of ``repro pilot --scale 0.02 --seed 2017`` — the rendered
  Tables 1-4, Figure 3 and the §6.4.3 IP statistics of a small pilot;
- the journal bytes plus the monitor's detection digest of one small
  ``serve`` run with benign traffic, credential stuffing and the flight
  recorder on, so the journaled ``health.*`` verdicts are part of the
  hashed bytes; the same run's flight file is pinned beside it, the
  only check on the stuffing panel's bytes;
- the stdout of ``repro pilot --scale 1.0 --seed 2017``, the full-scale
  reference run that EXPERIMENTS.md reports.  It takes about a minute,
  so it is marked ``slow``.  It also renders the measured column of
  EXPERIMENTS.md's headline table from that stdout, and the file must
  contain the rendered table verbatim.

A change that moves any hash changes what the reproduction reports.
If that change is deliberate, re-pin the hash here and update
EXPERIMENTS.md in the same change, saying what moved and why.

The small pilot pin runs twice: with the ``repro.perf`` caches off, and
on from empty caches.  Both must hash the same, and the caches-on run
must hit every cache the pilot uses, so a cache that stops serving
fails here without any timing ratio.  The full-scale pin runs with the
caches on only: with them off, the identity pool's sorted scan alone
would take minutes.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.crawler.fields import _classify_cached
from repro.perf import caching as _perf
from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY

PILOT_SHA256 = "04e133241ec25ab79b441d1a9865024d6ead4474712ee9698f52ef18158ab865"
SERVE_SHA256 = "b21e7ba7b815f664e2b7e206c5f9607bc6d1688b9d6ba5ee5586b9e788dc37be"
FLIGHT_SHA256 = "40ae387c0248bb2e9a3b5c9dae43322ab358ee728c7c725c1ae0b815c601f1e5"
FULL_SCALE_SHA256 = "52fca1bd6af9d7ce259fdda700296177ce02b3108913d88fe26e1538f325c2f6"

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

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


def pilot_report(scale):
    """The stdout of ``repro pilot --scale <scale> --seed 2017``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["pilot", "--scale", scale, "--seed", "2017"]) == 0
    return out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pilot_report_is_pinned(perf_layer):
    assert sha256(pilot_report("0.02")) == PILOT_SHA256
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
    flight = tmp_path / "flight.jsonl"
    result = CampaignDaemon(config, flight_path=flight).run()
    journal = result.journal.to_jsonl()
    assert '"health.' in journal
    digest = hashlib.sha256(journal.encode("utf-8"))
    digest.update(result.detection_digest.encode("ascii"))
    assert digest.hexdigest() == SERVE_SHA256
    assert hashlib.sha256(flight.read_bytes()).hexdigest() == FLIGHT_SHA256


# -- the full-scale pin and EXPERIMENTS.md's headline table -------------------

#: The headline table's rows: label and the paper's figure.
HEADLINE_PAPER = (
    ("registration attempts with identity used", "8,666"),
    ("estimated valid accounts / sites", "3,665 / 2,302"),
    ("compromised sites detected", "19"),
    ("sites with hard-password access", "10 of 19"),
    ("detected-site rank range", "~500 – ~22,500"),
    ("accessed accounts (Table 3 rows)", "30"),
    ("attacker logins / distinct IPs", "~1,792 / 1,316"),
    ("max uses of a single IP", "58"),
    ("integrity alarms (false positives)", "0"),
)


def report_section(report, title):
    """The lines of one report section, from its title to the next rule."""
    start = report.index(title)
    end = report.find("=" * 20, start)
    return report[start : end if end >= 0 else None].splitlines()


def table_rows(lines):
    """A rendered table's body rows, split on whitespace."""
    rule = next(i for i, line in enumerate(lines) if line.startswith("----"))
    return [line.split() for line in lines[rule + 1 :] if line.strip()]


def labelled_count(lines, label):
    """The number after ``label`` on the line that starts with it."""
    line = next(line for line in lines if line.strip().startswith(label))
    return int(line.split(label, 1)[1].split()[0])


def render_headline(report):
    """EXPERIMENTS.md's "Headline, full scale vs paper" table for a report."""
    (total,) = [
        row for row in table_rows(report_section(report, "Table 1:")) if row[0] == "Total"
    ]
    sites = table_rows(report_section(report, "Table 2:"))
    ranks = [int(row[-1]) for row in sites]
    accounts = table_rows(report_section(report, "Table 3:"))
    ips = report_section(report, "Attacker login-IP analysis")
    truth = report_section(report, "Ground truth vs detection")
    breached = labelled_count(truth, "sites breached (ground truth):")
    measured = (
        f"{int(total[3]):,}",
        f"{int(total[9]):,} / {int(total[11]):,}",
        f"{len(sites)} (of {breached} breached)",
        f"{sum(row[4] == 'Y' for row in sites)} of {len(sites)}",
        f"{min(ranks):,} – {max(ranks):,}",
        f"{len(accounts)}",
        f"{labelled_count(ips, 'logins observed:'):,} / {labelled_count(ips, 'distinct IPs:'):,}",
        f"{labelled_count(ips, 'max uses, one IP:')}",
        f"{labelled_count(truth, 'integrity alarms:')}",
    )
    rows = ["| | Paper | Measured (scale 1.0) |", "|---|---|---|"]
    rows += [
        f"| {label} | {paper} | {value} |"
        for (label, paper), value in zip(HEADLINE_PAPER, measured)
    ]
    return "\n".join(rows) + "\n"


@pytest.mark.slow
@pytest.mark.parametrize("perf_layer", [True], ids=["caches-on"], indirect=True)
def test_full_scale_pilot_report_is_pinned(perf_layer):
    report = pilot_report("1.0")
    assert sha256(report) == FULL_SCALE_SHA256
    headline = render_headline(report)
    assert headline in EXPERIMENTS_MD.read_text(encoding="utf-8"), headline
