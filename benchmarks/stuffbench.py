"""Credential-stuffing throughput bench — writes ``BENCH_10.json``.

Registers benign populations at the 10^4/10^5/10^6 strata (10^6 rides
behind ``--slow``; ``--quick`` keeps only 10^4), breaches a sequence
of sites against the cross-site reuse model, plans the waves with the
:class:`~repro.attacker.stuffing.StuffingEngine`, and replays the same
planned waves two ways:

- **per-event**: ``EmailProvider.attempt_login`` once per stuffed
  credential, looped here — the per-event reference;
- **batched**: the same wave columns through
  ``StuffingEngine.dispatch_batch`` (``EmailProvider.attempt_logins``).

Stuffing traffic is the batch engine's worst historical case — it is
failure-heavy (every non-reuser is a BAD_PASSWORD), which the clean-
failure vectorized commit now absorbs instead of replaying row by row.

Throughput is **recorded, never gated** — logins/sec is a property of
the machine (recorded as ``cpu_count``).  The hard assertions are
correctness: identical per-event result codes, identical provider
worlds (telemetry, states, throttle, windows, first IPs) and identical
dispatch-independent wave records between the two engines.

Run from the repo root::

    PYTHONPATH=src python benchmarks/stuffbench.py          # 10^4 + 10^5
    PYTHONPATH=src python benchmarks/stuffbench.py --slow   # adds 10^6
    PYTHONPATH=src python benchmarks/stuffbench.py --quick  # 10^4 only
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import sys
import time

from repro.attacker.breach import BreachMethod
from repro.attacker.stuffing import StuffingEngine, build_benign_corpus
from repro.email_provider.provider import RESULT_CODES, EmailProvider
from repro.email_provider.telemetry import METHOD_ORDER
from repro.identity.reuse import CrossSiteReuseModel
from repro.net.ipaddr import IPv4Address
from repro.sim.clock import SimClock
from repro.traffic import BenignPopulation
from repro.util.rngtree import RngTree
from repro.util.tables import render_table
from repro.util.timeutil import DAY

from _output import write_json, write_text

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_INDEX = 10
TRAJECTORY_PATH = REPO_ROOT / f"BENCH_{BENCH_INDEX}.json"

SEED = 3023
START = 1_400_000_000
STRATA = (10_000, 100_000)
QUICK_STRATA = (10_000,)
SLOW_STRATA = (1_000_000,)
#: Stuffed login events targeted per stratum (across all waves).
TARGET_EVENTS = 240_000
QUICK_EVENTS = 48_000
#: Breach waves per campaign; spaced a sim-day apart so each wave's
#: throttle state is evictable (past window + lockout) before the next.
WAVES = 4
WAVE_SPACING = DAY
#: Password-reuse behavior of the population under attack.
EXACT_RATE = 0.3
DERIVE_RATE = 0.3
CRACK_RATE = 0.6


def site_density(users: int, events: int) -> float:
    """Membership density sized so the campaign hits ~``events``."""
    return min(0.9, max(0.01, events / (WAVES * users)))


def build_model(users: int, events: int) -> CrossSiteReuseModel:
    return CrossSiteReuseModel.from_tree(
        RngTree(SEED),
        exact_rate=EXACT_RATE,
        derive_rate=DERIVE_RATE,
        site_density=site_density(users, events),
    )


def build_world(users: int, population: BenignPopulation):
    """One provider with the benign haystack registered."""
    provider = EmailProvider(
        "bench.example", SimClock(START), RngTree(SEED), retention_days=60
    )
    population.register_with(provider)
    assert provider.total_account_count() == users
    return provider


def plan_campaign(engine: StuffingEngine, model, users: int):
    """The full campaign, planned before any dispatch: one corpus and
    one wave of dispatch-ready columns per breached site.

    Planning is dispatch-independent (and cheap next to authentication),
    so both engines replay byte-for-byte the same columns.
    """
    waves = []
    for k in range(WAVES):
        method = (
            BreachMethod.ONLINE_CAPTURE if k % 2 == 0 else BreachMethod.DB_DUMP
        )
        corpus = build_benign_corpus(
            model,
            users,
            site_rank=3 + 7 * k,
            site_host=f"breached{k}.example",
            method=method,
            wave=k,
            crack_rate=CRACK_RATE,
        )
        waves.append(engine.plan_wave(corpus))
    return waves


def dispatch_per_event(provider: EmailProvider, batch) -> bytearray:
    """Scalar reference: one attempt_login call per stuffed credential."""
    attempt_login = provider.attempt_login
    keys, passwords = batch.keys, batch.passwords
    ips, methods = batch.ips, batch.methods
    results = bytearray()
    for i in range(len(keys)):
        result = attempt_login(
            keys[i], passwords[i], IPv4Address(ips[i]), METHOD_ORDER[methods[i]]
        )
        results.append(RESULT_CODES[result])
    return results


def run_campaign(provider, engine, waves, batched: bool):
    """Dispatch every wave; returns (seconds, results, wave records).

    The timed region is what a serve campaign pays per wave: the
    pre-wave housekeeping eviction plus authentication of every
    candidate column.  Identical clock/eviction schedule either way.
    """
    clock = provider._clock
    records = []
    all_results = bytearray()
    started = time.perf_counter()
    for wave in waves:
        clock.advance_to(START + (wave.wave + 1) * WAVE_SPACING)
        provider.evict_expired()
        results = bytearray()
        for batch in wave.batches:
            if batched:
                results.extend(engine.dispatch_batch(batch))
            else:
                results.extend(dispatch_per_event(provider, batch))
        records.append(engine.collect(wave, results))
        all_results.extend(results)
    return time.perf_counter() - started, all_results, records


def world_fingerprint(provider: EmailProvider) -> dict:
    """Everything the equivalence contract compares, detached from the
    provider so the account table can be freed between engine runs."""
    return {
        "telemetry": provider.telemetry.columns(),
        "states": bytes(provider._table.states),
        "throttle": dict(provider._throttle),
        "windows": provider.login_window_snapshot(),
        "first_ips": bytes(provider._ip_first),
    }


def run_engine(users, population, model, batched: bool):
    provider = build_world(users, population)
    engine = StuffingEngine(provider, population, model, RngTree(SEED + 1))
    waves = plan_campaign(engine, model, users)

    # Freeze the built world out of the cyclic collector for the timed
    # run (same rationale and policy as loginbench: a full collection
    # scanning 10^6 static account rows measures the collector, not
    # the engines; both dispatch paths get the identical treatment).
    gc.collect()
    gc.freeze()
    seconds, results, records = run_campaign(provider, engine, waves, batched)
    fingerprint = world_fingerprint(provider)
    gc.unfreeze()
    del provider, engine, waves
    gc.collect()
    return seconds, results, records, fingerprint


def warm_engines() -> None:
    """One throwaway campaign through both paths before any timing
    (numpy's lazy imports and first-call specialization)."""
    users = 1_000
    population = BenignPopulation(users)
    model = build_model(users, 2_000)
    for batched in (False, True):
        run_engine(users, population, model, batched)


def run_stratum(users: int, events: int) -> dict:
    population = BenignPopulation(users)
    model = build_model(users, events)

    # One provider alive at a time (run_engine frees each world before
    # the next): at the 10^6 stratum a second live account table would
    # inflate cache pressure for whichever engine runs second.
    scalar_seconds, scalar_results, scalar_records, scalar_world = run_engine(
        users, population, model, batched=False
    )
    batched_seconds, batched_results, batched_records, batched_world = (
        run_engine(users, population, model, batched=True)
    )

    assert scalar_results == batched_results, "per-event results diverged"
    assert scalar_records == batched_records, "wave records diverged"
    for key in scalar_world:
        assert scalar_world[key] == batched_world[key], (
            f"{key} diverged between engines"
        )

    total_events = len(scalar_results)
    per_event_rate = total_events / scalar_seconds
    batched_rate = total_events / batched_seconds
    return {
        "accounts": users,
        "waves": WAVES,
        "site_density": round(site_density(users, events), 4),
        "events": total_events,
        "successes": scalar_results.count(0),
        "per_event_seconds": round(scalar_seconds, 4),
        "per_event_logins_per_second": round(per_event_rate, 1),
        "batched_seconds": round(batched_seconds, 4),
        "batched_logins_per_second": round(batched_rate, 1),
        "speedup": round(batched_rate / per_event_rate, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="10^4 stratum only (the CI smoke)")
    parser.add_argument("--slow", action="store_true",
                        help="include the 10^6-account stratum")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_10.json")
    args = parser.parse_args(argv)

    if args.quick:
        strata, events = QUICK_STRATA, QUICK_EVENTS
    else:
        strata = STRATA + (SLOW_STRATA if args.slow else ())
        events = TARGET_EVENTS

    warm_engines()
    runs: dict[str, dict] = {}
    for users in strata:
        runs[str(users)] = run = run_stratum(users, events)
        print(
            f"accounts={users}: per-event "
            f"{run['per_event_logins_per_second']:,.0f} logins/s, batched "
            f"{run['batched_logins_per_second']:,.0f} logins/s "
            f"({run['speedup']}x)",
            file=sys.stderr,
        )

    rows = [
        [
            f"{run['accounts']:,}",
            f"{run['events']:,}",
            f"{run['per_event_logins_per_second']:,.0f}",
            f"{run['batched_logins_per_second']:,.0f}",
            f"{run['speedup']:.2f}x",
        ]
        for run in runs.values()
    ]
    table = render_table(
        ["Accounts", "Stuffed events", "Per-event logins/s",
         "Batched logins/s", "Speedup"],
        rows,
        title="Credential-stuffing throughput (recorded, never gated)",
    )
    print(table)

    payload = {
        "bench_index": BENCH_INDEX,
        "schema_version": 1,
        "quick": args.quick,
        "slow": args.slow,
        "cpu_count": os.cpu_count() or 1,
        "waves": WAVES,
        "exact_rate": EXACT_RATE,
        "derive_rate": DERIVE_RATE,
        "crack_rate": CRACK_RATE,
        "engines_equivalent": True,
        "runs": runs,
    }
    write_text("stuffbench", table)
    write_json("stuffbench", payload)
    if not args.no_write:
        TRAJECTORY_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {TRAJECTORY_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
