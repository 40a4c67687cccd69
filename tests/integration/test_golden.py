"""Golden pins: the reproduction's output bytes, hashed.

SHA-256 pins that any refactor must leave alone:

- the stdout of ``repro pilot --scale 0.02 --seed 2017`` — the rendered
  Tables 1-4, Figure 3 and the §6.4.3 IP statistics of a small pilot;
- the journal bytes plus the monitor's detection digest of one small
  ``serve`` run with benign traffic, credential stuffing and the flight
  recorder on, so the journaled ``health.*`` verdicts are part of the
  hashed bytes; the same run's flight file is pinned beside it, the
  only check on the stuffing panel's bytes;
- the same two hashes for a three-epoch ``serve`` run under the
  ``moderate`` fault profile, whose flight file holds a
  ``crawl.faults`` notable for every epoch;
- the stdout of ``repro pilot --scale 1.0 --seed 2017``, the full-scale
  reference run that EXPERIMENTS.md reports.  It takes about a minute,
  so it is marked ``slow``.  It also renders six of EXPERIMENTS.md's
  tables from that stdout (the headline, Table 1, the Table 3
  statistics, Table 4, Figure 3 and §6.4.3), and the file must contain
  each rendered table verbatim.

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
import itertools
from pathlib import Path

import pytest

from repro.cli import main
from repro.crawler.fields import _classify_cached
from repro.faults.plan import FaultPlan
from repro.obs.live import read_flight
from repro.perf import caching as _perf
from repro.service.daemon import CampaignDaemon
from repro.service.scheduler import ServiceConfig
from repro.util.timeutil import DAY

PILOT_SHA256 = "04e133241ec25ab79b441d1a9865024d6ead4474712ee9698f52ef18158ab865"
SERVE_SHA256 = "b21e7ba7b815f664e2b7e206c5f9607bc6d1688b9d6ba5ee5586b9e788dc37be"
FLIGHT_SHA256 = "40ae387c0248bb2e9a3b5c9dae43322ab358ee728c7c725c1ae0b815c601f1e5"
FAULTED_SERVE_SHA256 = "2bd77aa8051d494c6d800a3425d5b261860165e2b5dc77cf1478f686bab2b00a"
FAULTED_FLIGHT_SHA256 = "7d24e8c2efad79768ce63e04e0955a2897acef60cc5d786f668c5895e4c17303"
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


def pinned_serve_run(tmp_path, **config):
    """A small serve run: its journal, pinned digest and flight file."""
    config = ServiceConfig(
        seed=7,
        population_size=400,
        top=40,
        shards=4,
        traffic_users=2000,
        traffic_logins_per_day=3.0,
        **config,
    )
    flight = tmp_path / "flight.jsonl"
    result = CampaignDaemon(config, flight_path=flight).run()
    journal = result.journal.to_jsonl()
    digest = hashlib.sha256(journal.encode("utf-8"))
    digest.update(result.detection_digest.encode("ascii"))
    return journal, digest.hexdigest(), flight


def test_serve_journal_and_detections_are_pinned(tmp_path):
    journal, digest, flight = pinned_serve_run(
        tmp_path,
        epochs=2,
        epoch_length=30 * DAY,
        stuffing_interval=11 * DAY,
        stuffing_site_density=0.1,
    )
    assert '"health.' in journal
    assert digest == SERVE_SHA256
    assert hashlib.sha256(flight.read_bytes()).hexdigest() == FLIGHT_SHA256


def test_faulted_serve_journal_and_flight_are_pinned(tmp_path):
    _journal, digest, flight = pinned_serve_run(
        tmp_path,
        epochs=3,
        epoch_length=20 * DAY,
        fault_plan=FaultPlan.from_profile("moderate", seed=3),
    )
    assert digest == FAULTED_SERVE_SHA256
    notable = read_flight(flight)["snapshots"][-1]["notable"]
    assert [n["epoch"] for n in notable if n["kind"] == "crawl.faults"] == [0, 1, 2]
    assert hashlib.sha256(flight.read_bytes()).hexdigest() == FAULTED_FLIGHT_SHA256


# -- the full-scale pin and EXPERIMENTS.md's tables -----------------------------

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

#: Table 1's categories and the paper's share of valid accounts.
TABLE1_PAPER_SHARE = (
    ("Email verified", "55%"),
    ("Email received", "4%"),
    ("OK submission", "29%"),
    ("Bad heuristics/Fields missing", "9%"),
    ("Manual", "4%"),
)

TABLE3_PAPER = (
    ("accessed accounts", "30"),
    ("login counts", "1 – 363"),
    ("days until first access", "3 – 639"),
    ("provider-frozen/closed", "8 of 30"),
    ("single-login verifier accounts", "4"),
)

#: Figure 3's stages: label, the paper's figure and the report's label.
FIG3_STAGES = (
    ("ineligible sites (panel 1)", "63.8%", "ineligible"),
    ("no registration found", "47.2%", "no registration found"),
    ("system errors", "19.1%", "system errors"),
    ("unavailable info / captcha / fields", "21.5%", "fields missing/unavailable"),
    ("system-estimated success", "12.2%", "system-estimated success"),
    ("success on eligible (panel 3)", "~18.8%", "success on eligible sites"),
)

IP_PAPER = (
    ("logins observed", "~1,792"),
    ("distinct IPs", "1,316"),
    ("IPs seen more than once", "181"),
    ("max uses of one IP", "58"),
    ("top countries", "RU, CN, US, VN"),
    ("host type", "mostly residential"),
    ("method", "typically IMAP"),
)


def report_section(report, title):
    """The lines of one report section, from its title to the next rule."""
    start = report.index(title)
    end = report.find("=" * 20, start)
    return report[start : end if end >= 0 else None].splitlines()


def table_rows(lines):
    """The body rows of the first rendered table in ``lines``, split on
    whitespace, up to the blank line that ends it."""
    rule = next(i for i, line in enumerate(lines) if line.startswith("----"))
    return [line.split() for line in itertools.takewhile(str.strip, lines[rule + 1 :])]


def labelled(lines, label):
    """The word after ``label`` on the line that starts with it."""
    line = next(line for line in lines if line.strip().startswith(label))
    return line.split(label, 1)[1].split()[0]


def labelled_count(lines, label):
    return int(labelled(lines, label))


def markdown_row(cells):
    return "|" + "".join(f" {cell} |" if cell else " |" for cell in cells)


def markdown_table(header, rows):
    """An EXPERIMENTS.md table: the header cells, their rule and the rows."""
    lines = [markdown_row(header), "|" + "---|" * len(header), *map(markdown_row, rows)]
    return "\n".join(lines) + "\n"


def paper_vs_measured(first, paper, measured):
    """A (label, paper, measured) table; ``paper`` pairs labels and figures."""
    return markdown_table(
        (first, "Paper", "Measured (scale 1.0)"),
        [(label, figure, value) for (label, figure), value in zip(paper, measured, strict=True)],
    )


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
    return paper_vs_measured("", HEADLINE_PAPER, (
        f"{int(total[3]):,}",
        f"{int(total[9]):,} / {int(total[11]):,}",
        f"{len(sites)} (of {breached} breached)",
        f"{sum(row[4] == 'Y' for row in sites)} of {len(sites)}",
        f"{min(ranks):,} – {max(ranks):,}",
        f"{len(accounts)}",
        f"{labelled_count(ips, 'logins observed:'):,} / {labelled_count(ips, 'distinct IPs:'):,}",
        f"{labelled_count(ips, 'max uses, one IP:')}",
        f"{labelled_count(truth, 'integrity alarms:')}",
    ))


def render_table1(report):
    """EXPERIMENTS.md's Table 1: success rates and shares of valid accounts."""
    # A row is the label's words, then 11 cells; Est.Total is "N (share)".
    rows = {" ".join(row[:-11]): row for row in table_rows(report_section(report, "Table 1:"))}
    return markdown_table(
        ("Category", "Paper success rate", "Measured", "Paper share of valid", "Measured"),
        [(label, rows[label][-6], rows[label][-7], share, rows[label][-2].strip("()"))
         for label, share in TABLE1_PAPER_SHARE],
    )


def render_table3(report):
    """EXPERIMENTS.md's Table 3 statistics."""
    rows = table_rows(report_section(report, "Table 3:"))
    logins = [int(row[2]) for row in rows]
    until = [int(row[3]) for row in rows]
    return paper_vs_measured("Statistic", TABLE3_PAPER, (
        f"{len(rows)}",
        f"{min(logins)} – {max(logins)}",
        f"{min(until)} – {max(until)}",
        f"{sum(row[5] == 'Y' for row in rows)} of {len(rows)}",
        f"{logins.count(1)}",
    ))


def render_table4(report):
    """EXPERIMENTS.md's Table 4: each window's five shares, paper and measured."""
    rows = table_rows(report_section(report, "Table 4:"))

    def shares(row):
        return " / ".join(cell.rstrip("%") for cell in row[-5:])

    paper = {row[1].rstrip(")"): shares(row) for row in rows if row[0] == "(paper"}
    windows = [row for row in rows if row[0].isdigit()]
    (average,) = [row for row in rows if row[0] == "Average"]
    return markdown_table(
        ("Window", "Paper (LF / non-EN / no-reg / inelig / rest)", "Measured (scale 1.0)"),
        [(f"rank {int(row[0]):,}", paper[row[0]], shares(row)) for row in windows]
        + [("average", "6.7 / 44.3 / 12.7 / 5.0 / 31.3", shares(average))],
    )


def render_fig3(report):
    """EXPERIMENTS.md's Figure 3 funnel."""
    lines = report_section(report, "Figure 3:")
    measured = [labelled(lines, label) for _stage, _paper, label in FIG3_STAGES]
    measured[3] += f" (+{labelled(lines, 'submission heuristics fail')} heuristics-fail)"
    return paper_vs_measured(
        "Stage", [(stage, paper) for stage, paper, _label in FIG3_STAGES], measured
    )


def render_ip_stats(report):
    """EXPERIMENTS.md's §6.4.3 attacker login-IP statistics."""
    lines = report_section(report, "Attacker login-IP analysis")
    logins = labelled_count(lines, "logins observed:")
    countries = table_rows(lines)
    methods = dict(table_rows(lines[lines.index("Access methods (paper: typically IMAP)") :]))
    return paper_vs_measured("Statistic", IP_PAPER, (
        f"{logins:,}",
        f"{labelled_count(lines, 'distinct IPs:'):,}",
        f"{labelled_count(lines, 'IPs seen >1 time:'):,}",
        f"{labelled_count(lines, 'max uses, one IP:')}",
        ", ".join(code for code, _count in countries[:4]),
        f"{labelled_count(lines, 'residential IPs:'):,} residential vs "
        f"{labelled_count(lines, 'datacenter IPs:'):,} datacenter",
        f"IMAP {int(methods['IMAP']) / logins:.0%}",
    ))


@pytest.mark.slow
@pytest.mark.parametrize("perf_layer", [True], ids=["caches-on"], indirect=True)
def test_full_scale_pilot_report_is_pinned(perf_layer):
    report = pilot_report("1.0")
    assert sha256(report) == FULL_SCALE_SHA256
    experiments = EXPERIMENTS_MD.read_text(encoding="utf-8")
    for render in (render_headline, render_table1, render_table3, render_table4,
                   render_fig3, render_ip_stats):
        table = render(report)
        assert table in experiments, table
