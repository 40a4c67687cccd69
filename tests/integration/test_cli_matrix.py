"""The CLI byte-identity matrix: one contract for CI and local runs.

Each config below runs through ``repro.cli.main`` once per leg.  Every
leg's journal must equal the reference leg's bytes, and flight files
must be equal across executors — ``cmp(1)`` semantics, not a fuzzy
diff.  Two legs run inside a fixture's context manager.  The
scalar-oracle leg runs the reference's arguments with the batch login
engine forced onto its scalar oracle (the ``scalar_oracle`` fixture);
its flight file differs from the others only in the engine's own
path-mix section, so only its journal is compared.  The cold leg runs
with the perf layer off (the ``perf_off`` fixture), so no cache
serves it.

After the legs, the ``obs`` verbs render the reference outputs: the ops
report over each journal, and the dashboard and tail over the flight
file, whose journal carries the deterministic ``health.*`` verdicts.

Configs:

- **campaign**: a faulted 40-site campaign.  The cold serial run is
  the reference; the process leg covers the warm spec cache and the
  wire codec; the store legs read specs off a world store that the
  first of them builds and the second reopens.
- **serve-traffic**: the daemon with 2000 benign users and the flight
  recorder on.
- **serve-stuffing**: the daemon with credential-stuffing waves, the
  failure-heavy load of the batch engine.
"""

import contextlib

import pytest

from repro.cli import main

CAMPAIGN = [
    "campaign", "--top", "40", "--population", "150", "--shards", "4",
    "--fault-profile", "moderate",
]
SERVE_TRAFFIC = [
    "serve", "--top", "60", "--population", "400", "--shards", "4",
    "--epochs", "3", "--epoch-days", "30", "--traffic-users", "2000",
    "--traffic-logins-per-day", "3",
]
SERVE_STUFFING = [
    "serve", "--top", "40", "--population", "400", "--shards", "4",
    "--epochs", "2", "--epoch-days", "30", "--traffic-users", "2000",
    "--stuffing-interval-days", "11", "--stuffing-site-density", "0.1",
]

SERIAL = ["--workers", "1"]
PROCESS_2 = ["--workers", "2"]
#: The legs that run inside a fixture's context manager.
ORACLE_LEG = "oracle-serial"
COLD_LEG = "serial-cold"
SERVE_LEGS = {
    "vectorized-serial": SERIAL,
    ORACLE_LEG: SERIAL,
    "process-2": PROCESS_2,
}

#: config -> (base arguments, {leg: extra arguments}, writes a flight file).
#: The first leg of each config is its reference; "{store}" is the
#: shared world-store path.
CONFIGS = {
    "campaign": (CAMPAIGN, {
        COLD_LEG: SERIAL,
        "process-2": PROCESS_2,
        "store-serial": SERIAL + ["--world-store", "{store}"],
        "store-process": PROCESS_2 + ["--world-store", "{store}"],
    }, False),
    "serve-traffic": (SERVE_TRAFFIC, SERVE_LEGS, True),
    "serve-stuffing": (SERVE_STUFFING, SERVE_LEGS, False),
}


def reference_leg(config: str) -> str:
    return next(iter(CONFIGS[config][1]))


class Matrix:
    """Runs each (config, leg) once and keeps its output directory."""

    def __init__(self, root):
        self.root = root
        self.store = root / "world-store"
        self._outputs = {}

    def run(self, config: str, leg: str):
        key = (config, leg)
        if key not in self._outputs:
            base, legs, flight = CONFIGS[config]
            out = self.root / f"{config}-{leg}"
            out.mkdir()
            argv = base + [
                arg.replace("{store}", str(self.store)) for arg in legs[leg]
            ]
            argv += ["--obs-out", str(out / "journal.jsonl")]
            if flight:
                argv += ["--flight", str(out / "flight.jsonl")]
            assert main(argv) == 0, f"{config}/{leg} exited nonzero"
            self._outputs[key] = out
        return self._outputs[key]


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    return Matrix(tmp_path_factory.mktemp("cli-matrix"))


@pytest.fixture
def run_leg(matrix, scalar_oracle, perf_off):
    """``matrix.run`` inside the leg's context manager, if it has one."""
    contexts = {ORACLE_LEG: scalar_oracle, COLD_LEG: perf_off}

    def run(config: str, leg: str):
        with contexts.get(leg, contextlib.nullcontext)():
            return matrix.run(config, leg)

    return run


LEG_CASES = [
    pytest.param(config, leg, id=f"{config}-{leg}")
    for config, (_base, legs, _flight) in CONFIGS.items()
    for leg in list(legs)[1:]
]


@pytest.mark.slow
@pytest.mark.parametrize("config,leg", LEG_CASES)
def test_leg_matches_reference_bytes(run_leg, config, leg):
    reference = run_leg(config, reference_leg(config))
    out = run_leg(config, leg)
    assert (out / "journal.jsonl").read_bytes() == (
        reference / "journal.jsonl"
    ).read_bytes()
    if CONFIGS[config][2] and leg != ORACLE_LEG:
        assert (out / "flight.jsonl").read_bytes() == (
            reference / "flight.jsonl"
        ).read_bytes()


@pytest.mark.slow
@pytest.mark.parametrize("config", list(CONFIGS))
def test_ops_report_renders_the_reference_journal(run_leg, capsys, config):
    journal = run_leg(config, reference_leg(config)) / "journal.jsonl"
    capsys.readouterr()
    assert main(["obs", "report", str(journal)]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.slow
def test_dashboard_tail_and_health_over_the_flight_file(run_leg, capsys):
    out = run_leg("serve-traffic", reference_leg("serve-traffic"))
    flight = str(out / "flight.jsonl")
    capsys.readouterr()
    assert main(["obs", "top", flight, "--once"]) == 0
    assert "Lifecycle streams" in capsys.readouterr().out
    assert main(["obs", "tail", flight]) == 0
    assert '"record":"snapshot"' in capsys.readouterr().out
    journal = (out / "journal.jsonl").read_text(encoding="utf-8")
    for rule in ("queue_saturation", "stuffing_queue_saturation",
                 "throttle_growth", "checkpoint_staleness", "stream_starvation"):
        assert f'"health.{rule}"' in journal
