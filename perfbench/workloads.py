"""The three benchmark workloads, one repetition per interpreter.

``run.py`` starts this file once per measured repetition, in a fresh
interpreter with a fresh scratch directory, so the ``repro.perf`` LRU
caches, the warm spec cache, the lazily built batch engine and the
worker pool all start cold, as in a user's ``repro`` invocation::

    PYTHONPATH=src python3 perfbench/workloads.py --workload pilot \\
        --seed 2017 --trace 0 --scratch DIR --out result.json

Each repetition measures two phases on the host clock:

- ``setup_s``: building the world, from the workload's first call to
  the first unit of work (the pilot's seed crawl, serve's first epoch
  dispatch);
- ``wall_s``: from there to the workload's final output (the rendered
  ``full_report``; the journal bytes).

The only hooks in an untraced repetition are a one-shot marker on the
call that opens ``wall_s``, a counter on the two provider login entry
points and, in the pilot, a hook that keeps the result handed to
``full_report``; with ``--trace 1`` every call listed in
:data:`LAYERS` also records a span (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import concurrent.futures.process  # noqa: F401  (the pool's imports, before any clock)
import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing.popen_fork  # noqa: F401
import multiprocessing.synchronize  # noqa: F401
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_self_times, unattributed  # noqa: E402

# Everything a workload runs is imported before any clock starts, and
# before tracing rebinds names that modules bound with ``from ... import``.
import repro.analysis.report  # noqa: E402
import repro.cli  # noqa: E402
import repro.core.campaign  # noqa: E402
import repro.core.runner  # noqa: E402
import repro.core.scenario  # noqa: E402,F401  (the CLI imports it lazily)
import repro.email_provider.provider  # noqa: E402
import repro.perf.caching  # noqa: E402
import repro.perf.suite  # noqa: E402,F401  (the CLI parser imports it lazily)
import repro.store  # noqa: E402
from repro.service.daemon import CampaignDaemon  # noqa: E402
from repro.service.scheduler import ServiceConfig  # noqa: E402
from repro.util.timeutil import DAY  # noqa: E402

# -- what the traced run wraps ----------------------------------------------

def _count_login(counts, _args, result) -> None:
    counts["email_provider.logins"] = counts.get("email_provider.logins", 0) + 1
    if result.value == "success":
        counts["login_successes"] = counts.get("login_successes", 0) + 1


def _count_batch(counts, args, receipt) -> None:
    counts["email_provider.batch_logins"] = (
        counts.get("email_provider.batch_logins", 0) + len(args[1])
    )
    counts["login_successes"] = counts.get("login_successes", 0) + receipt.successes


def _adder(name: str, amount):
    def count(counts, args, result) -> None:
        counts[name] = counts.get(name, 0) + amount(args, result)
    return count


#: (module, owner, attribute, layer, count hook).  ``owner`` names a
#: class in ``module``; None marks a module-level function, traced
#: wherever a ``repro`` module bound it by name; "module" marks one
#: traced only where ``module`` calls it (the crawl engine's
#: classifier calls, not formfill's nested ones).
LAYERS = [
    ("repro.crawler.engine", "RegistrationCrawler", "register_at", "crawler.register", None),
    ("repro.crawler.engine", "module", "classify_field", "crawler.classify", None),
    ("repro.crawler.engine", "module", "plan_form_fill", "crawler.classify", None),
    ("repro.crawler.engine", "module", "detect_language", "crawler.classify", None),
    ("repro.html.browser", "Browser", "load", "html.browser", None),
    ("repro.html.browser", "Browser", "submit_form", "html.browser", None),
    ("repro.html.parser", None, "parse_html", "html.parse", None),
    ("repro.net.transport", "Transport", "get", "net.transport", None),
    ("repro.net.transport", "Transport", "post", "net.transport", None),
    ("repro.core.substrate", "WorldShard", "build_population", "web.population", None),
    ("repro.web.site", "Website", "__call__", "web.site", None),
    ("repro.core.system", "TripwireSystem", "provision_identities",
     "identity.provision", None),
    ("repro.core.system", "TripwireSystem", "provision_control_accounts",
     "identity.provision", None),
    ("repro.identity.pool", "IdentityPool", "checkout_any", "identity.checkout", None),
    ("repro.mail.server", "TripwireMailServer", "receive", "mail.receive", None),
    ("repro.attacker.cracking", None, "crack_records", "attacker.crack", None),
    ("repro.attacker.breach", None, "execute_breach", "attacker.checker", None),
    ("repro.attacker.checker", "CredentialChecker", "launch", "attacker.checker", None),
    ("repro.attacker.stuffing", None, "build_benign_corpus",
     "attacker.stuffing.corpus", None),
    ("repro.attacker.stuffing", "StuffingEngine", "plan_wave",
     "attacker.stuffing.plan", None),
    ("repro.attacker.stuffing", "StuffingEngine", "dispatch_batch",
     "attacker.stuffing.dispatch", None),
    ("repro.attacker.stuffing", "StuffingEngine", "collect",
     "attacker.stuffing.collect", None),
    ("repro.email_provider.provider", "EmailProvider", "attempt_login",
     "email_provider.login", _count_login),
    ("repro.email_provider.provider", "EmailProvider", "attempt_logins",
     "email_provider.batch_login", _count_batch),
    ("repro.email_provider.provider", "EmailProvider", "evict_expired",
     "email_provider.evict", _adder("email_provider.evicted", lambda a, r: sum(r))),
    ("repro.email_provider.provider", "EmailProvider", "deliver_background",
     "email_provider.deliver", None),
    ("repro.traffic.population", "BenignPopulation", "register_with",
     "email_provider.register", None),
    ("repro.traffic.generator", "TrafficGenerator", "window", "traffic.generate",
     _adder("traffic.logins", lambda a, r: r.login_count)),
    ("repro.core.campaign", "RegistrationCampaign", "run_batch", "core.campaign", None),
    ("repro.core.campaign", "RegistrationCampaign", "manual_register",
     "core.campaign", None),
    ("repro.core.runner", "CampaignRunner", "execute", "core.runner.dispatch",
     _adder("perf.wire.bytes", lambda a, r: sum(r.wire_bytes.values()))),
    ("repro.core.monitor", "DumpIngestion", "__call__", "core.monitor", None),
    ("repro.perf.wire", None, "decode_shard_bytes", "perf.wire.decode", None),
    ("repro.service.checkpoint", None, "save_checkpoint", "service.checkpoint",
     _adder("service.checkpoint.bytes", lambda a, r: r)),
    ("repro.obs.journal", "RunJournal", "to_jsonl", "obs.journal",
     _adder("obs.journal.bytes", lambda a, r: len(r))),
    ("repro.obs.live", "ServiceFlightProbe", "snapshot", "obs.flight", None),
    ("repro.obs.live", "FlightRecorder", "flush", "obs.flight", None),
    ("repro.store", None, "build_world_store", "store.build", None),
    ("repro.sim.events", "EventQueue", "run_until", "sim.events", None),
    ("repro.analysis.report", None, "full_report", "analysis.report", None),
]

#: Every layer a span can carry, in table order.
SPAN_LAYERS = list(dict.fromkeys(row[3] for row in LAYERS))


def install_tracing(tracer: Tracer) -> None:
    """Wrap every public call in :data:`LAYERS`."""
    for module, owner, attr, layer, count in LAYERS:
        if owner is None:
            tracer.patch_function(module, attr, layer, count)
        elif owner == "module":
            tracer.patch(importlib.import_module(module), attr, layer, count)
        else:
            tracer.patch(getattr(importlib.import_module(module), owner), attr, layer, count)
    tracer.install_fork_guard()


# -- untraced hooks ------------------------------------------------------------

class Marks:
    """Phase marker and login counter, on in every repetition."""

    def __init__(self):
        self.first_work: float | None = None
        self.logins = 0
        self.final = None

    def mark_first_call(self, owner: type, attr: str) -> None:
        original = owner.__dict__[attr]
        marks = self

        def marked(*args, **kwargs):
            if marks.first_work is None:
                marks.first_work = time.perf_counter()
            return original(*args, **kwargs)

        setattr(owner, attr, marked)

    def count_logins(self) -> None:
        provider = repro.email_provider.provider.EmailProvider
        single = provider.__dict__["attempt_login"]
        batch = provider.__dict__["attempt_logins"]
        marks = self

        def attempt_login(*args, **kwargs):
            marks.logins += 1
            return single(*args, **kwargs)

        def attempt_logins(self_, batch_, *args, **kwargs):
            marks.logins += len(batch_)
            return batch(self_, batch_, *args, **kwargs)

        provider.attempt_login = attempt_login
        provider.attempt_logins = attempt_logins

    def capture_final(self, module, attr: str) -> None:
        """Keep the argument of the workload's final call (the result)."""
        original = getattr(module, attr)
        marks = self

        def captured(result, *args, **kwargs):
            marks.final = result
            return original(result, *args, **kwargs)

        setattr(module, attr, captured)


# -- the workloads -------------------------------------------------------------

def run_pilot(seed: int, marks: Marks) -> dict:
    """The EXPERIMENTS pilot, exactly as ``repro pilot --scale 0.1`` builds it."""
    marks.mark_first_call(repro.core.campaign.RegistrationCampaign, "run_batch")
    marks.capture_final(repro.analysis.report, "full_report")
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        code = repro.cli.main(["pilot", "--scale", "0.1", "--seed", str(seed)])
    finished = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"repro pilot exited {code}")
    report = captured.getvalue()
    return {
        "started": started,
        "finished": finished,
        "fingerprint": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        "crawl_attempts": marks.final.campaign.stats.attempts,
        "work": marks.final.campaign.stats.attempts,
        "facts": {},
    }


def serve_traffic_config(seed: int, scratch: Path) -> ServiceConfig:
    """The deployed daemon under benign load.

    10^5 users at 0.33 logins/day put 8250 logins (two 8192-event
    batches) in every 6-hour window, and 0.1 mails/day 2500 mails; the
    40-day horizon reaches the day-20 and day-40 dump ingestions, which
    evict.  Mail runs below the daemon's default of 0.5 per user-day,
    which would add a third to the run without exercising anything new
    and leave room for only two repetitions in a 40 s run.
    """
    return ServiceConfig(
        seed=seed,
        population_size=24_000,
        top=2_000,
        shards=4,
        epochs=2,
        epoch_length=20 * DAY,
        workers=2,
        executor="process",
        checkpoint_every=1,
        world_store=str(scratch / "store"),
        traffic_users=100_000,
        traffic_logins_per_day=0.33,
        traffic_mails_per_day=0.1,
    )


def serve_stuffing_config(seed: int) -> ServiceConfig:
    """The provider front-end under credential stuffing.

    10^6 accounts with benign logins and mail off; a breach-corpus
    wave every 3 sim days over a 45-day horizon (15 waves) at site
    density 0.06.  Dumps are fully cracked, so every wave replays the
    breached site's whole membership (~60k logins) whichever breach
    method the campaign draws: at the default crack rate the draw of
    methods alone moves a run's login count by ~10% between seeds.
    The 40-site crawl runs serially in-process.
    """
    return ServiceConfig(
        seed=seed,
        population_size=3_000,
        top=40,
        shards=1,
        epochs=3,
        epoch_length=15 * DAY,
        workers=1,
        executor="serial",
        traffic_users=1_000_000,
        traffic_logins_per_day=0.0,
        traffic_mails_per_day=0.0,
        stuffing_interval=3 * DAY,
        stuffing_site_density=0.06,
        stuffing_crack_rate=1.0,
    )


def run_serve(config: ServiceConfig, scratch: Path, marks: Marks, *,
              record_epochs: bool) -> dict:
    """One daemon run; ``record_epochs`` checkpoints and flight-records every epoch."""
    marks.mark_first_call(repro.core.runner.CampaignRunner, "execute")
    started = time.perf_counter()
    if config.world_store is not None:
        repro.store.build_world_store(
            config.world_store, config.seed, config.population_size
        )
    daemon = CampaignDaemon(
        config,
        checkpoint_path=scratch / "checkpoint.jsonl" if record_epochs else None,
        flight_path=scratch / "flight.jsonl" if record_epochs else None,
    )
    result = daemon.run()
    journal = result.journal.to_jsonl().encode("utf-8")
    finished = time.perf_counter()
    digest = hashlib.sha256(journal)
    digest.update(result.detection_digest.encode("ascii"))
    facts = dict(result.live_stats)
    if config.world_store is not None:
        facts["store_bytes"] = sum(
            f.stat().st_size for f in Path(config.world_store).iterdir()
        )
    return {
        "started": started,
        "finished": finished,
        "fingerprint": digest.hexdigest(),
        "crawl_attempts": result.stats.attempts,
        "work": marks.logins,
        "facts": facts,
    }


def run_workload(name: str, seed: int, scratch: Path, marks: Marks) -> dict:
    if name == "pilot":
        return run_pilot(seed, marks)
    if name == "serve_traffic":
        return run_serve(serve_traffic_config(seed, scratch), scratch, marks,
                         record_epochs=True)
    if name == "serve_stuffing":
        return run_serve(serve_stuffing_config(seed), scratch, marks,
                         record_epochs=False)
    raise ValueError(f"unknown workload {name!r}")


# -- per-layer metrics -----------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, counts: dict, facts: dict, window_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (``<layer>_s``: self time)."""
    selfs = layer_self_times(spans)
    metrics = {f"{layer}_s": selfs.get(layer, 0.0) for layer in SPAN_LAYERS}
    for name in ("email_provider.logins", "email_provider.batch_logins",
                 "email_provider.evicted", "traffic.logins", "perf.wire.bytes",
                 "service.checkpoint.bytes", "obs.journal.bytes"):
        metrics[name] = counts.get(name, 0)
    caches = repro.perf.caching.cache_stats()
    dom = caches.get("parsed-dom", {})
    metrics["html.dom_cache_hit_ratio"] = _ratio(
        dom.get("hits", 0), dom.get("hits", 0) + dom.get("misses", 0)
    )
    render = [v for k, v in caches.items() if k.startswith("render-")]
    hits = sum(v["hits"] for v in render)
    metrics["web.render_cache_hit_ratio"] = _ratio(
        hits, hits + sum(v["misses"] for v in render)
    )
    logins = metrics["email_provider.logins"] + metrics["email_provider.batch_logins"]
    metrics["email_provider.success_ratio"] = _ratio(counts.get("login_successes", 0), logins)
    engine = facts.get("engine") or {}
    metrics["email_provider.scalar_replay_ratio"] = _ratio(
        engine.get("scalar_replayed", 0), metrics["email_provider.batch_logins"]
    )
    queue = facts.get("queue") or {}
    metrics["traffic.queue.refused"] = queue.get("refused", 0)
    metrics["traffic.queue.peak_depth"] = queue.get("peak_depth", 0)
    metrics["attacker.stuffing.queue_refused"] = (
        (facts.get("stuffing_queue") or {}).get("refused", 0)
    )
    metrics["store.bytes"] = facts.get("store_bytes", 0)
    metrics["core.runner.worker_peak_rss_mib"] = facts.get("worker_peak_rss_mib", 0.0)
    metrics["unattributed_s"] = unattributed(spans, window_s)
    return metrics


# -- one repetition ------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", required=True,
                        choices=("pilot", "serve_traffic", "serve_stuffing"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)

    marks = Marks()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
    marks.count_logins()
    outcome = run_workload(args.workload, args.seed, args.scratch, marks)
    if marks.first_work is None:
        raise RuntimeError("the workload never reached its first unit of work")

    setup_s = marks.first_work - outcome["started"]
    wall_s = outcome["finished"] - marks.first_work
    record = {
        "fingerprint": outcome["fingerprint"],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": outcome["work"],
        "crawl_attempts": outcome["crawl_attempts"],
        "logins": marks.logins,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        # The pool's workers have been reaped by now: the largest one's peak.
        outcome["facts"]["worker_peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        record["self_total_s"] = sum(layer_self_times(spans).values())
        record["layers"] = layer_metrics(spans, tracer.counts, outcome["facts"],
                                         setup_s + wall_s)
        if args.spans is not None:
            tracer.write_jsonl(args.spans)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
