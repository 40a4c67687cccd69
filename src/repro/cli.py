"""Command-line interface.

    python -m repro pilot --scale 0.1 --seed 2017
    python -m repro survey --population 1500
    python -m repro demo
    python -m repro evasion
    python -m repro campaign --obs-out journal.jsonl
    python -m repro serve --epochs 4 --checkpoint state.ckpt
    python -m repro serve --resume state.ckpt --obs-out journal.jsonl
    python -m repro serve --flight flight.jsonl --traffic-users 2000
    python -m repro obs report journal.jsonl
    python -m repro obs top flight.jsonl --once
    python -m repro obs tail flight.jsonl --follow

``pilot`` runs the full study and prints every table and figure;
``survey`` runs the Table 4 eligibility measurement; ``demo`` is the
quickstart detection walk-through; ``evasion`` sweeps the §7.3
attacker-sampling strategies.

``serve`` runs the campaign as a long-lived daemon on the sim clock:
registration waves staggered across epochs, recurring re-login probes,
incremental telemetry ingestion and account-lifecycle churn, with an
epoch checkpoint written to ``--checkpoint``.  SIGTERM/SIGINT stop it
gracefully after the in-flight epoch (exit code 3); ``--resume PATH``
replays the checkpointed epochs and finishes the run with output
byte-identical to an uninterrupted one.

``--obs-out PATH`` on ``pilot``/``campaign`` turns the observability
layer on for the run, writes the deterministic JSONL journal to PATH
and prints the ops report (with live cache stats); ``obs report``
re-renders the report later from a journal file alone.

``serve --flight PATH`` turns on the flight recorder: an epoch-cadence
JSONL snapshot file (atomically replaced each flush, deterministic
bytes) plus a ``PATH.wall`` wall-clock side channel.  ``obs top``
renders the latest snapshot as a dashboard (``--once`` or follow);
``obs tail`` prints flight records as they land.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tripwire (IMC 2017) reproduction: infer internet site "
                    "compromise from password-reuse attacks on honey accounts.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    pilot = commands.add_parser("pilot", help="run the year-long pilot study")
    pilot.add_argument("--scale", type=float, default=0.1,
                       help="fraction of the paper's sizes (default 0.1)")
    pilot.add_argument("--seed", type=int, default=2017)
    pilot.add_argument("--breaches", type=int, default=21,
                       help="breaches to schedule (paper detected 19)")
    _add_fault_arguments(pilot)
    _add_obs_arguments(pilot)

    survey = commands.add_parser("survey", help="eligibility survey (Table 4)")
    survey.add_argument("--population", type=int, default=1500)
    survey.add_argument("--seed", type=int, default=41)

    campaign = commands.add_parser(
        "campaign",
        help="sharded registration campaign over the ranked top list",
    )
    campaign.add_argument("--top", type=int, default=500,
                          help="ranked sites to crawl (default 500)")
    campaign.add_argument("--population", type=int, default=3000)
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--shards", type=int, default=8,
                          help="independent world shards (default 8)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="shard worker processes; more than 1 runs the "
                               "shards on a process pool (default 1: serial)")
    campaign.add_argument("--json", type=pathlib.Path, default=None,
                          help="write a machine-readable summary here")
    _add_store_arguments(campaign)
    _add_fault_arguments(campaign)
    _add_obs_arguments(campaign)

    serve = commands.add_parser(
        "serve",
        help="continuous-operation daemon: staggered waves, recurring "
             "probes, checkpoint/resume",
    )
    serve.add_argument("--epochs", type=int, default=4,
                       help="scheduler epochs to run (default 4)")
    serve.add_argument("--epoch-days", type=int, default=30,
                       help="sim days per epoch (default 30)")
    serve.add_argument("--top", type=int, default=200,
                       help="ranked sites staggered across all epochs "
                            "(default 200)")
    serve.add_argument("--population", type=int, default=3000)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--shards", type=int, default=4,
                       help="crawl shards per epoch (default 4)")
    serve.add_argument("--workers", type=int, default=1,
                       help="shard worker processes; more than 1 runs the "
                            "shards on one process pool that persists across "
                            "epochs (default 1: serial)")
    serve.add_argument("--checkpoint", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="write the epoch checkpoint here (atomic)")
    serve.add_argument("--checkpoint-every", type=int, default=1, metavar="K",
                       help="checkpoint every K completed epochs (default 1)")
    serve.add_argument("--resume", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="resume from a checkpoint written by --checkpoint; "
                            "implies checkpointing back to the same path")
    serve.add_argument("--traffic-users", type=int, default=0,
                       metavar="N",
                       help="benign-population size; enables the traffic "
                            "stream (default 0 = off)")
    serve.add_argument("--traffic-logins-per-day", type=float, default=2.0,
                       metavar="R",
                       help="benign logins per user per sim-day (default 2)")
    serve.add_argument("--stuffing-interval-days", type=int, default=0,
                       metavar="D",
                       help="credential-stuffing wave cadence in sim days "
                            "(default 0 = off; requires --traffic-users)")
    serve.add_argument("--stuffing-exact-rate", type=float, default=0.3,
                       metavar="R",
                       help="share of users reusing their mailbox password "
                            "verbatim at other sites (default 0.3)")
    serve.add_argument("--stuffing-derive-rate", type=float, default=0.3,
                       metavar="R",
                       help="share of users deriving per-site variants of "
                            "their mailbox password (default 0.3)")
    serve.add_argument("--stuffing-site-density", type=float, default=0.05,
                       metavar="R",
                       help="probability a user holds an account at any "
                            "given site (default 0.05)")
    serve.add_argument("--stuffing-crack-rate", type=float, default=0.6,
                       metavar="R",
                       help="share of a database dump offline cracking "
                            "recovers (default 0.6)")
    serve.add_argument("--stuffing-targets", type=int, default=3,
                       metavar="N",
                       help="cross-site fan-out targets per wave (default 3)")
    serve.add_argument("--json", type=pathlib.Path, default=None,
                       help="write a machine-readable summary here")
    serve.add_argument("--flight", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="flight recorder: flush a deterministic JSONL "
                            "snapshot here every epoch (wall-clock profiling "
                            "goes to PATH.wall); read it live with "
                            "'repro obs top PATH'")
    _add_store_arguments(serve)
    _add_fault_arguments(serve)
    _add_obs_arguments(serve)

    obs = commands.add_parser(
        "obs",
        help="render the ops report, dashboard or tail from saved "
             "observability files",
    )
    obs_actions = obs.add_subparsers(dest="obs_action", required=True)
    obs_report = obs_actions.add_parser(
        "report", help="pretty-print a journal written by --obs-out",
    )
    obs_report.add_argument("journal", type=pathlib.Path,
                            help="path to a journal JSONL file")
    obs_top = obs_actions.add_parser(
        "top",
        help="terminal dashboard over a flight file (live or dead): "
             "latest snapshot, health line, stream table, gauges",
    )
    obs_top.add_argument("flight", type=pathlib.Path,
                         help="path to a flight file written by serve --flight")
    obs_top.add_argument("--once", action="store_true",
                         help="render the latest snapshot once and exit "
                              "(default: follow and re-render on new flushes)")
    obs_top.add_argument("--interval", type=float, default=1.0, metavar="SEC",
                         help="follow-mode poll interval (default 1s)")
    obs_top.add_argument("--max-seconds", type=float, default=None,
                         metavar="SEC",
                         help="stop following after SEC seconds "
                              "(default: forever)")
    obs_tail = obs_actions.add_parser(
        "tail",
        help="print flight records as JSONL; --follow streams new "
             "snapshots and health verdicts as the daemon lands them",
    )
    obs_tail.add_argument("flight", type=pathlib.Path,
                          help="path to a flight file written by serve --flight")
    obs_tail.add_argument("--follow", action="store_true",
                          help="keep polling and print new records "
                               "(default: dump and exit)")
    obs_tail.add_argument("--lines", type=int, default=None, metavar="N",
                          help="print only the last N records first")
    obs_tail.add_argument("--max-seconds", type=float, default=None,
                          metavar="SEC",
                          help="stop following after SEC seconds "
                               "(default: forever)")

    commands.add_parser("demo", help="quickstart: one breach, one detection")

    evasion = commands.add_parser("evasion", help="attacker evasion sweep (§7.3)")
    evasion.add_argument("--trials", type=int, default=25,
                         help="seeded worlds per haul fraction (default 25)")
    return parser


def _add_fault_arguments(command: argparse.ArgumentParser) -> None:
    from repro.faults.plan import PROFILES

    command.add_argument(
        "--fault-profile", choices=sorted(PROFILES), default="off",
        help="deterministic fault-injection profile (default off)",
    )
    command.add_argument(
        "--fault-seed", type=int, default=0,
        help="namespace for the fault RNG streams (default 0); the same "
             "world seed with a different fault seed replays the run "
             "under a different failure sequence",
    )


def _add_store_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--world-store", type=pathlib.Path, default=None, metavar="PATH",
        help="disk-backed world store directory (built on first use); "
             "shards read site specs from its pages instead of "
             "regenerating them — output is bit-identical either way",
    )


def _add_obs_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--obs-out", type=pathlib.Path, default=None, metavar="PATH",
        help="enable the observability layer, write the deterministic "
             "run journal (JSONL) here and print the ops report",
    )


def _open_or_build_store(path: pathlib.Path, seed: int, population: int):
    """Build the world store on first use, reopen (validated) after."""
    from repro.store import build_world_store

    existed = (path / "worldstore.json").is_file()
    store = build_world_store(path, seed, population)
    print(
        ("opened" if existed else "built")
        + f" world store {path} ({store.population} sites)",
        file=sys.stderr,
    )
    return store


def _executor_for(workers: int) -> str:
    """The shard backend a worker count asks for: a pool past one worker."""
    return "process" if workers > 1 else "serial"


def _fault_plan_from(args: argparse.Namespace):
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.from_profile(args.fault_profile, seed=args.fault_seed)
    return plan if plan.enabled else None


def _emit_journal(journal, path: pathlib.Path, live_stats=None) -> None:
    """Write the journal and print the live ops report below it."""
    from repro.obs.report import render_ops_report
    from repro.perf.caching import cache_stats

    journal.write(path)
    print(f"wrote journal {path}", file=sys.stderr)
    print()
    print(render_ops_report(journal.payload(), cache_stats=cache_stats(),
                            live_stats=live_stats))


def _run_pilot(args: argparse.Namespace) -> int:
    from repro.analysis.report import full_report
    from repro.core.scenario import PilotScenario, ScenarioConfig

    def scaled(value: int, minimum: int) -> int:
        return max(minimum, int(value * args.scale))

    config = ScenarioConfig(
        seed=args.seed,
        population_size=scaled(30000, 400),
        seed_list_size=scaled(1000, 50),
        main_crawl_top=scaled(25000, 300),
        second_crawl_top=scaled(30000, 400),
        manual_top=scaled(500, 20),
        breach_count=args.breaches,
        breach_hard_exposing=max(3, args.breaches // 2 + 1),
        unused_account_count=scaled(2000, 200),
        fault_plan=_fault_plan_from(args),
        obs_enabled=args.obs_out is not None,
    )
    print(f"pilot: population={config.population_size} seed={config.seed}"
          + (f" faults={args.fault_profile}/{args.fault_seed}"
             if config.fault_plan else ""),
          file=sys.stderr)
    started = time.time()
    result = PilotScenario(config).run()
    print(f"finished in {time.time() - started:.1f}s", file=sys.stderr)
    print(full_report(result))
    if config.fault_plan is not None:
        print()
        print(_fault_report_table(result.system.fault_report, args))
    if args.obs_out is not None:
        from repro.obs.journal import RunJournal

        meta = {
            "command": "pilot",
            "seed": config.seed,
            "population": config.population_size,
            "breaches": config.breach_count,
            "fault_profile": args.fault_profile,
            "fault_seed": args.fault_seed,
        }
        _emit_journal(RunJournal.from_observation(result.system.obs, meta),
                      args.obs_out)
    return 0


def _fault_report_table(report, args: argparse.Namespace) -> str:
    from repro.util.tables import render_table

    rows = [[name.replace("_", " ").capitalize(), str(value)]
            for name, value in report.as_dict().items()]
    return render_table(
        ["Fault counter", "Count"], rows,
        title=f"Injected faults (profile={args.fault_profile}, "
              f"fault-seed={args.fault_seed})",
    )


def _run_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.core.runner import CampaignRunner, shared_specs
    from repro.util.tables import render_table
    from repro.web.population import ranked_top

    fault_plan = _fault_plan_from(args)
    # Built first, so bad execution settings fail before any world
    # store is opened or built.
    runner = CampaignRunner(
        seed=args.seed,
        population_size=args.population,
        shards=args.shards,
        workers=args.workers,
        executor=_executor_for(args.workers),
        fault_plan=fault_plan,
        obs_enabled=args.obs_out is not None,
        obs_meta={"command": "campaign"},
        world_store=str(args.world_store) if args.world_store is not None else None,
    )

    store = None
    if args.world_store is not None:
        store = _open_or_build_store(args.world_store, args.seed, args.population)
    specs = shared_specs(args.seed, args.population, runner.world_store)
    sites = ranked_top(specs, min(args.top, args.population))

    print(
        f"campaign: top={len(sites)} shards={args.shards} "
        f"workers={args.workers} executor={runner.executor}"
        + (f" store={args.world_store}" if store is not None else "")
        + (f" faults={args.fault_profile}/{args.fault_seed}" if fault_plan else ""),
        file=sys.stderr,
    )
    # Context-managed so the pool is torn down even when the run raises
    # (worker processes must not outlive the command).
    with runner:
        result = runner.run(sites)

    if store is not None:
        accounts, telemetry_rows = store.append_results(result.attempts)
        print(
            f"world store: appended {accounts} accounts, "
            f"{telemetry_rows} telemetry rows to {args.world_store}",
            file=sys.stderr,
        )

    stats, telemetry = result.stats, result.telemetry
    rows = [
        ["Sites considered", str(stats.sites_considered)],
        ["Sites filtered (shared backend)", str(stats.sites_filtered)],
        ["Registration attempts", str(stats.attempts)],
        ["Identities exposed (burned)", str(stats.exposed_attempts)],
        ["Transport requests", str(telemetry.transport_requests)],
        ["Mail messages stored", str(telemetry.mail_stored)],
        ["Verification pages fetched", str(telemetry.verification_pages_fetched)],
        ["Wall-clock seconds", f"{result.wall_seconds:.2f}"],
    ]
    print(render_table(["Metric", "Value"], rows,
                       title=f"Sharded campaign ({runner.executor}, "
                             f"{args.shards} shards, {args.workers} workers)"))
    if fault_plan is not None:
        print()
        print(_fault_report_table(result.fault_report, args))
    if args.obs_out is not None and result.journal is not None:
        _emit_journal(result.journal, args.obs_out)

    if args.json is not None:
        summary = {
            "seed": args.seed,
            "population": args.population,
            "top": len(sites),
            "shards": args.shards,
            "workers": args.workers,
            "executor": runner.executor,
            "wall_seconds": result.wall_seconds,
            "stats": {
                "sites_considered": stats.sites_considered,
                "sites_filtered": stats.sites_filtered,
                "attempts": stats.attempts,
                "exposed_attempts": stats.exposed_attempts,
                "skipped_no_identity": stats.skipped_no_identity,
            },
            "telemetry": {
                "transport_requests": telemetry.transport_requests,
                "mail_stored": telemetry.mail_stored,
                "verification_pages_fetched": telemetry.verification_pages_fetched,
                "identities_provisioned": telemetry.identities_provisioned,
                "identities_burned": telemetry.identities_burned,
                "pages_loaded": telemetry.pages_loaded,
                "sim_seconds_elapsed": telemetry.sim_seconds_elapsed,
            },
        }
        if fault_plan is not None:
            summary["faults"] = {
                "profile": args.fault_profile,
                "fault_seed": args.fault_seed,
                "report": result.fault_report.as_dict(),
            }
        args.json.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import json
    import signal

    from repro.service import (
        CampaignDaemon,
        CheckpointError,
        ServiceConfig,
        load_checkpoint,
    )
    from repro.util.tables import render_table
    from repro.util.timeutil import DAY

    config = ServiceConfig(
        seed=args.seed,
        population_size=args.population,
        top=args.top,
        shards=args.shards,
        epochs=args.epochs,
        epoch_length=args.epoch_days * DAY,
        fault_plan=_fault_plan_from(args),
        workers=args.workers,
        executor=_executor_for(args.workers),
        checkpoint_every=args.checkpoint_every,
        world_store=str(args.world_store) if args.world_store else None,
        traffic_users=args.traffic_users,
        traffic_logins_per_day=args.traffic_logins_per_day,
        stuffing_interval=args.stuffing_interval_days * DAY,
        stuffing_exact_rate=args.stuffing_exact_rate,
        stuffing_derive_rate=args.stuffing_derive_rate,
        stuffing_site_density=args.stuffing_site_density,
        stuffing_crack_rate=args.stuffing_crack_rate,
        stuffing_targets=args.stuffing_targets,
    )
    if args.world_store is not None:
        _open_or_build_store(args.world_store, args.seed, args.population)

    checkpoint_path = args.checkpoint or args.resume
    resume = None
    if args.resume is not None:
        if not args.resume.is_file():
            print(f"no such checkpoint: {args.resume}", file=sys.stderr)
            return 1
        try:
            resume = load_checkpoint(args.resume, config)
        except CheckpointError as exc:
            print(f"cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 1
        print(
            f"resuming from {args.resume} "
            f"({resume.epochs_completed}/{config.epochs} epochs checkpointed)",
            file=sys.stderr,
        )

    daemon = CampaignDaemon(
        config, checkpoint_path=checkpoint_path, flight_path=args.flight
    )

    def _graceful(signum, _frame):
        print(
            f"received signal {signum}; stopping after the in-flight epoch",
            file=sys.stderr,
        )
        daemon.request_stop()

    previous = {
        sig: signal.signal(sig, _graceful)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(
        f"serve: top={config.top} epochs={config.epochs} "
        f"shards={config.shards} workers={config.workers} executor={config.executor}"
        + (f" checkpoint={checkpoint_path}" if checkpoint_path else "")
        + (f" faults={args.fault_profile}/{args.fault_seed}"
           if config.fault_plan else ""),
        file=sys.stderr,
    )
    try:
        result = daemon.run(resume=resume)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    epoch_rows = [
        [str(r.epoch), str(r.sites), str(r.attempts), str(r.exposed),
         str(r.service_events),
         ("replayed" if r.replayed else "crawled")
         + ("+ckpt" if r.checkpointed else "")]
        for r in result.reports
    ]
    print(render_table(
        ["Epoch", "Sites", "Attempts", "Exposed", "Svc events", "Mode"],
        epoch_rows,
        title=f"Service epochs ({result.epochs_completed}/{config.epochs}"
              + (", interrupted" if result.interrupted else "") + ")",
    ))
    lifecycle = result.lifecycle
    # Streams that are on, in install order; each brings its own rows.
    streams = [s for s in result.streams if s.interval]
    rows = [
        ["Registration attempts", str(result.stats.attempts)],
        ["Identities exposed (burned)", str(result.stats.exposed_attempts)],
        *([label, value.format_map(vars(lifecycle))]
          for stream in streams for label, value in stream.totals),
        ["Sites detected", str(result.detected_sites)],
        ["Detection digest", result.detection_digest[:16]],
    ]
    print(render_table(["Metric", "Value"], rows, title="Service totals"))
    if result.stuffing_waves and result.stuffing_model is not None:
        from repro.analysis.stuffing import (
            build_stuffing_classes,
            build_stuffing_correlation,
            render_stuffing_classes,
            render_stuffing_correlation,
        )

        print()
        print(render_stuffing_classes(
            build_stuffing_classes(result.stuffing_waves)
        ))
        print()
        print(render_stuffing_correlation(build_stuffing_correlation(
            result.stuffing_waves,
            result.stuffing_model,
            config.traffic_users,
        )))
    if config.fault_plan is not None:
        print()
        print(_fault_report_table(result.fault_report, args))
    if args.flight is not None:
        print(f"wrote flight file {args.flight} "
              f"(wall side channel {args.flight}.wall)", file=sys.stderr)
    if args.obs_out is not None and result.journal is not None:
        _emit_journal(result.journal, args.obs_out,
                      live_stats=result.live_stats)

    if args.json is not None:
        summary = {
            "seed": config.seed,
            "population": config.population_size,
            "top": config.top,
            "shards": config.shards,
            "workers": config.workers,
            "executor": config.executor,
            "epochs": config.epochs,
            "epochs_completed": result.epochs_completed,
            "interrupted": result.interrupted,
            "detected_sites": result.detected_sites,
            "detection_digest": result.detection_digest,
            "stats": {
                "attempts": result.stats.attempts,
                "exposed_attempts": result.stats.exposed_attempts,
            },
            # Every stream's counters, the off streams' zeros included.
            "lifecycle": {
                name: getattr(lifecycle, name)
                for stream in result.streams for name in stream.fields
            },
            "stuffing": [
                {
                    "wave": w.wave,
                    "site_rank": w.site_rank,
                    "site_host": w.site_host,
                    "method": w.method,
                    "acquisition": w.acquisition,
                    "candidates": w.candidates,
                    "attempts": w.attempts,
                    "successes": w.successes,
                    "site_targets": [
                        {"rank": t.target_rank, "candidates": t.candidates,
                         "hits": t.hits}
                        for t in w.site_targets
                    ],
                }
                for w in result.stuffing_waves
            ],
            # Per-stream firing tallies: answers "which stream is
            # starved" straight from the summary.
            "streams": {
                stream.label: {
                    "count": lifecycle.stream_counts[stream.label],
                    "last_fired": lifecycle.stream_last_fired.get(stream.label),
                }
                for stream in sorted(streams, key=lambda s: s.label)
            },
        }
        args.json.write_text(json.dumps(summary, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote {args.json}", file=sys.stderr)
    return 3 if result.interrupted else 0


def _run_survey(args: argparse.Namespace) -> int:
    from repro.analysis.report import survey_ranks_for
    from repro.analysis.table4 import build_table4, render_table4
    from repro.core.system import TripwireSystem
    from repro.perf.warm import spec_table_for

    # The seed's prefix-closed specs: the same table a world store of
    # this seed holds, whichever windows the survey visits.
    system = TripwireSystem(
        seed=args.seed,
        population_size=args.population,
        specs=spec_table_for(args.seed),
    )
    ranks = survey_ranks_for(args.population)
    print(render_table4(build_table4(system.population, ranks)))
    return 0


def _examples_dir() -> pathlib.Path | None:
    candidate = pathlib.Path(__file__).resolve().parents[2] / "examples"
    return candidate if candidate.is_dir() else None


def _run_demo(_args: argparse.Namespace) -> int:
    examples = _examples_dir()
    if examples is None:
        print("examples/ directory not found; run from a source checkout",
              file=sys.stderr)
        return 1
    script = examples / "quickstart.py"
    exec(compile(script.read_text(), str(script), "exec"), {"__name__": "__main__"})
    return 0


def _run_evasion(args: argparse.Namespace) -> int:
    from repro.analysis.evasion import render_sampling_sweep, sampling_sweep

    print(render_sampling_sweep(sampling_sweep(args.trials), args.trials))
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    if args.obs_action == "top":
        from repro.obs.top import run_top

        return run_top(
            args.flight,
            follow=not args.once,
            interval=args.interval,
            max_seconds=args.max_seconds,
        )
    if args.obs_action == "tail":
        from repro.obs.top import run_tail

        return run_tail(
            args.flight,
            follow=args.follow,
            lines=args.lines,
            max_seconds=args.max_seconds,
        )

    from repro.obs.journal import read_journal
    from repro.obs.report import render_ops_report

    if not args.journal.is_file():
        print(f"no such journal: {args.journal}", file=sys.stderr)
        return 1
    # Saved journals never carry cache stats — those are process-local
    # and only the live run that produced the journal can report them.
    print(render_ops_report(read_journal(args.journal)))
    return 0


_HANDLERS = {
    "pilot": _run_pilot,
    "campaign": _run_campaign,
    "serve": _run_serve,
    "survey": _run_survey,
    "demo": _run_demo,
    "evasion": _run_evasion,
    "obs": _run_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
