"""The two overhead budgets: observation and the flight recorder.

Each leg runs one workload with a feature off and then on.  Both runs
must give the same results, and the feature may cost at most its budget
in wall time:

- ``obs``: a small pilot (seed 31, population 150) with the
  observability layer off, then on.  The crawl attempts and detections
  must be identical, and the overhead must stay below 5%.
- ``flight``: a serial serve daemon (top 400, population 1500, four
  30-day epochs over four shards, 500 benign users at two logins a day)
  with the flight recorder off, then on.  The recorder may add only
  ``health.*`` lines and the shard/counter tallies to the journal, and
  must flush one snapshot per epoch; the overhead must be at most 1%.

Run from the repo root::

    PYTHONPATH=src python -m repro.perf.suite

It takes no options and writes no file.  It prints one line per leg
and exits 1 when a leg's results differ or its overhead is over budget.
Throughput is measured by the repository benchmark, ``perfbench/run.py``.

CI gates only the obs leg, by calling ``obs_leg()``.  The recorder costs
about 0.6% of the flight leg's daemon, while host noise moves one run's
estimate by a few percent, so the flight budget is checked only here.

This module stays in the runtime package only because
``perfbench/workloads.py`` imports it, and the benchmark's files do not
change outside a benchmark change; it leaves ``src/`` with the
benchmark change that drops that import.  Until then its module-level
imports are the standard library only, so the import costs the
benchmark nothing.
"""

from __future__ import annotations

import concurrent.futures
import gc
import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: The observed pilot must cost less than this fraction extra.
OBS_BUDGET = 0.05
#: The flight-recorded daemon may cost at most this fraction extra.
FLIGHT_BUDGET = 0.01
#: Each leg times this many off/on pairs of legs, each leg running its
#: arm ``BATCH`` times.
PAIRS = 7
BATCH = 2


# -- the obs leg: a pilot with observation off, then on ----------------------


def pilot_config():
    """The obs leg's pilot: seed 31, 150 sites."""
    from repro.core.scenario import ScenarioConfig

    return ScenarioConfig(
        seed=31,
        population_size=150,
        seed_list_size=30,
        main_crawl_top=120,
        second_crawl_top=150,
        manual_top=10,
        breach_count=5,
        breach_hard_exposing=3,
        unused_account_count=40,
        control_account_count=3,
    )


def run_pilot(config, observed: bool):
    """One pilot run, with the observability layer off or on."""
    import dataclasses

    from repro.core.scenario import PilotScenario

    return PilotScenario(dataclasses.replace(config, obs_enabled=observed)).run()


def _pilot_fingerprint(result) -> list[tuple]:
    return [
        (a.site_host, a.identity.email_local, a.password_class.value,
         a.outcome.code.value, a.outcome.started_at, a.outcome.finished_at)
        for a in result.campaign.attempts
    ]


def pilot_problems(off, on) -> list[str]:
    """How the observed pilot differs from the plain one (empty: identical)."""
    problems = []
    if _pilot_fingerprint(off) != _pilot_fingerprint(on):
        problems.append("crawl attempts differ")
    if off.detected_hosts != on.detected_hosts:
        problems.append("detected sites differ")
    return problems


# -- the flight leg: a daemon with the recorder off, then on -----------------


def daemon_config():
    """The flight leg's daemon: serial, 400 of 1500 sites, 500 users."""
    from repro.service.scheduler import ServiceConfig
    from repro.util.timeutil import DAY

    return ServiceConfig(
        top=400,
        population_size=1500,
        epochs=4,
        epoch_length=30 * DAY,
        shards=4,
        workers=1,
        executor="serial",
        traffic_users=500,
        traffic_logins_per_day=2.0,
    )


def run_daemon(config, flight_path: Path | None):
    """One daemon run; a ``flight_path`` turns the flight recorder on."""
    from repro.service.daemon import CampaignDaemon

    return CampaignDaemon(config, flight_path=flight_path).run()


def flight_problems(config, off, on, flight_path: Path) -> list[str]:
    """How the recorded run strays from the plain one (empty: it does not)."""
    from repro.obs.live import read_flight

    def tally(line: str) -> bool:
        return '"record":"shard"' in line or '"counters"' in line

    off_lines = set(off.journal.to_jsonl().splitlines())
    on_lines = set(on.journal.to_jsonl().splitlines())
    problems = []
    if not all("health." in line or tally(line) for line in on_lines - off_lines):
        problems.append("the recorder added journal lines beyond health.* and tallies")
    if not all(tally(line) for line in off_lines - on_lines):
        problems.append("the recorder dropped journal lines beyond the tallies")
    snapshots = len(read_flight(flight_path)["snapshots"])
    if snapshots != config.epochs:
        problems.append(f"{snapshots} flight snapshots for {config.epochs} epochs")
    return problems


# -- timing ------------------------------------------------------------------


@dataclass
class Timing:
    """Interleaved off/on timings of one leg, and each arm's last result."""

    off: object
    on: object
    #: Fastest leg of each arm, in seconds per run.
    off_s: float
    on_s: float
    #: Median over the pairs of on-leg / off-leg time.
    median_ratio: float

    @property
    def overhead(self) -> float:
        """The smaller of the median pair ratio and the best-leg ratio, less one.

        The budgets are a few percent, well inside one load spike, so no
        single wall-clock estimator can gate them.  Machine noise rarely
        inflates both estimators at once; a real regression inflates
        both.
        """
        return min(self.median_ratio, self.on_s / self.off_s) - 1.0


def measure(off, on) -> Timing:
    """Time ``off()`` against ``on()`` in interleaved pairs of legs.

    Each leg runs its arm ``BATCH`` times with automatic GC off: the
    on arm allocates more, so the cyclic collections it would trigger
    would scan whatever heap earlier work left behind and bill it to
    the feature.  Collection runs between legs instead.
    """
    results = {"off": off(), "on": on()}  # warm imports and caches for both arms

    def timed_leg(key, arm) -> float:
        gc.collect()
        gc.disable()
        try:
            began = time.perf_counter()
            for _ in range(BATCH):
                results[key] = arm()
            return (time.perf_counter() - began) / BATCH
        finally:
            gc.enable()

    off_times, on_times = [], []
    for _ in range(PAIRS):
        off_times.append(timed_leg("off", off))
        on_times.append(timed_leg("on", on))
    ratios = sorted(b / a for a, b in zip(off_times, on_times))
    return Timing(results["off"], results["on"], min(off_times), min(on_times),
                  ratios[len(ratios) // 2])


# -- the legs ----------------------------------------------------------------


def _verdict(name: str, timing: Timing, budget: str, within_budget: bool,
             problems: list[str]) -> tuple[str, bool]:
    """A leg's one printed line, and whether it passed."""
    passed = within_budget and not problems
    line = (
        f"{name:<6} {'ok' if passed else 'FAIL':<4} overhead {timing.overhead:+.2%} "
        f"(budget {budget}): median pair {timing.median_ratio - 1:+.2%}, "
        f"best legs {timing.on_s / timing.off_s - 1:+.2%} "
        f"({timing.off_s:.3f} s -> {timing.on_s:.3f} s); "
        f"{'; '.join(problems) or 'results identical'}"
    )
    return line, passed


def obs_leg() -> tuple[str, bool]:
    """Time and check the obs leg: its printed line, and whether it passed."""
    config = pilot_config()
    timing = measure(lambda: run_pilot(config, False), lambda: run_pilot(config, True))
    return _verdict("obs", timing, f"< {OBS_BUDGET:.0%}", timing.overhead < OBS_BUDGET,
                    pilot_problems(timing.off, timing.on))


def flight_leg() -> tuple[str, bool]:
    """Time and check the flight leg: its printed line, and whether it passed."""
    config = daemon_config()
    with tempfile.TemporaryDirectory() as scratch:
        flight_path = Path(scratch) / "flight.jsonl"
        timing = measure(lambda: run_daemon(config, None),
                         lambda: run_daemon(config, flight_path))
        problems = flight_problems(config, timing.off, timing.on, flight_path)
    return _verdict("flight", timing, f"<= {FLIGHT_BUDGET:.0%}",
                    timing.overhead <= FLIGHT_BUDGET, problems)


def main() -> int:
    spawn = multiprocessing.get_context("spawn")
    passed = True
    for leg in (obs_leg, flight_leg):
        # Each leg runs in a fresh interpreter, so neither is timed over
        # the heap, caches and allocator state the other left behind.
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
            line, leg_passed = pool.submit(leg).result()
        print(line, flush=True)
        passed = passed and leg_passed
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
