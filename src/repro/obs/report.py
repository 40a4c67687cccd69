"""Human-readable ops report rendered from a journal payload.

The report is the *read* side of the observability layer: per-stage
latency histograms, the Figure-1 outcome funnel, retry/fault
attribution and (for live runs only) cache hit rates.  Cache stats are
process-local and worker-count-dependent, so they never enter the
journal — they can only be rendered live, passed in via
``cache_stats``.
"""

from __future__ import annotations

from repro.crawler.outcomes import TerminationCode
from repro.obs.live import queue_panels
from repro.util.tables import percent, render_table

#: Span histograms rendered in the latency section, in pipeline order.
_STAGE_ORDER = (
    "shard.execute",
    "crawl.attempt",
    "crawl.find_page",
    "crawl.locate_form",
    "crawl.classify_fields",
    "crawl.fill_form",
    "crawl.submit",
    "crawl.classify_outcome",
    "mail.relay",
    "telemetry.collect_dump",
    "attacker.breach",
)


def _bucket_label(lower: int | float | None, upper: int | float | None) -> str:
    if lower is None:
        return f"<= {upper}"
    if upper is None:
        return f"> {lower}"
    return f"{lower}-{upper}"


def _histogram_rows(data: dict) -> list[list[object]]:
    rows: list[list[object]] = []
    bounds = data["bounds"]
    lower: int | float | None = None
    for bound, count in zip(bounds, data["buckets"]):
        rows.append([_bucket_label(lower, bound), count, percent(count, data["count"])])
        lower = bound
    rows.append([_bucket_label(bounds[-1], None), data["overflow"],
                 percent(data["overflow"], data["count"])])
    return rows


def _span_histogram_names(histograms: dict[str, dict]) -> list[str]:
    """Stage-ordered first, then any remaining span histograms by name."""
    available = [n for n in histograms if n.startswith("span.")]
    ordered = [f"span.{stage}.sim_seconds" for stage in _STAGE_ORDER
               if f"span.{stage}.sim_seconds" in histograms]
    return ordered + sorted(n for n in available if n not in ordered)


def render_ops_report(
    payload: dict,
    cache_stats: dict[str, dict] | None = None,
    live_stats: dict | None = None,
) -> str:
    """Render the full ops report from a journal payload.

    ``payload`` is :meth:`~repro.obs.journal.RunJournal.payload` (or the
    equivalent from :func:`~repro.obs.journal.parse_journal`).
    ``live_stats`` is the serve daemon's process-local gauge bundle
    (:attr:`~repro.service.daemon.ServiceRunResult.live_stats`): the
    batch engine's path mix, each live backpressure queue's accounting
    (one section each), and provider login-state sizes and bytes.  Like
    cache stats, it is live-only — saved journals cannot reproduce it.
    """
    counters = payload.get("counters", {})
    histograms = payload.get("histograms", {})
    sections: list[str] = []

    meta = payload.get("meta", {})
    meta_rows = [[key, value] for key, value in sorted(meta.items())]
    meta_rows.append(["shard captures", payload.get("shard_count", 0)])
    meta_rows.append(["spans", payload.get("span_count", 0)])
    meta_rows.append(["events", payload.get("event_count", 0)])
    sections.append(render_table(
        ["field", "value"], meta_rows,
        title=f"Run journal (schema v{payload.get('schema_version')})",
    ))

    # Outcome funnel: Figure-1 exit codes, declaration order, with share.
    outcome_rows = []
    outcome_total = sum(counters.get(f"outcome.{c.value}", 0) for c in TerminationCode)
    for code in TerminationCode:
        count = counters.get(f"outcome.{code.value}", 0)
        outcome_rows.append([code.value, count, percent(count, outcome_total)])
    if outcome_total:
        sections.append(render_table(
            ["outcome", "attempts", "share"], outcome_rows,
            title="Outcome funnel", align_right=(1, 2),
        ))

    for name in _span_histogram_names(histograms):
        data = histograms[name]
        stage = name.removeprefix("span.").removesuffix(".sim_seconds")
        mean = data["sum"] / data["count"] if data["count"] else 0.0
        sections.append(render_table(
            ["sim seconds", "count", "share"], _histogram_rows(data),
            title=f"Stage latency: {stage} "
                  f"(n={data['count']}, mean={mean:.1f}s)",
            align_right=(1, 2),
        ))

    # Retry / fault attribution.
    attribution = [[name, value] for name, value in sorted(counters.items())
                   if name.startswith(("fault.", "retry.", "clock."))]
    if attribution:
        sections.append(render_table(
            ["counter", "count"], attribution,
            title="Retry / fault attribution", align_right=(1,),
        ))

    # Service streams: the daemon's recurring-event counters.
    service = [[name, value] for name, value in sorted(counters.items())
               if name.startswith("service.")]
    if service:
        sections.append(render_table(
            ["counter", "count"], service,
            title="Service streams", align_right=(1,),
        ))

    # Everything else, minus families already shown above.
    shown_prefixes = ("outcome.", "fault.", "retry.", "clock.", "service.")
    other = [[name, value] for name, value in sorted(counters.items())
             if not name.startswith(shown_prefixes)]
    if other:
        sections.append(render_table(
            ["counter", "count"], other,
            title="Counters", align_right=(1,),
        ))

    # Live-only: the serve daemon's login funnel — engine path mix,
    # backpressure-queue accounting, provider state sizes.  Which path
    # an event took is an execution detail, so none of this is ever
    # journaled; only the run that produced the journal can show it.
    if live_stats:
        engine = live_stats.get("engine") or {}
        if engine.get("windows"):
            committed = engine.get("vector_committed", 0)
            replayed = engine.get("scalar_replayed", 0)
            total = committed + replayed + engine.get("fallback_events", 0)
            engine_rows = [
                ["batch windows", engine.get("windows", 0), ""],
                ["vector-committed events", committed,
                 percent(committed, total)],
                ["scalar-replayed events", replayed,
                 percent(replayed, total)],
                ["fallback events", engine.get("fallback_events", 0),
                 percent(engine.get("fallback_events", 0), total)],
            ]
            sections.append(render_table(
                ["engine path", "count", "share"], engine_rows,
                title="Batch login engine (live process, not journaled)",
                align_right=(1, 2),
            ))
        for path, queue in queue_panels(live_stats):
            queue_rows = [
                ["offered", queue["offered"]],
                ["refused (backpressure)", queue["refused"]],
                ["taken", queue["taken"]],
                ["peak depth", f"{queue['peak_depth']}/{queue['max_depth']}"],
            ]
            sections.append(render_table(
                [" ".join(path).replace("_", " "), "value"], queue_rows,
                title="Backpressure queue (live process, not journaled)",
                align_right=(1,),
            ))
        provider_rows = [[name.replace("_", " "), value]
                         for panel in ("provider", "provider_bytes")
                         for name, value in sorted(
                             (live_stats.get(panel) or {}).items())]
        if provider_rows:
            sections.append(render_table(
                ["login state", "size"], provider_rows,
                title="Provider login state (live process, not journaled)",
                align_right=(1,),
            ))

    # Live-only: cache hit rates (process-local, never journaled).
    if cache_stats:
        cache_rows = []
        for name, stats in sorted(cache_stats.items()):
            lookups = stats["hits"] + stats["misses"]
            cache_rows.append([
                name, stats["hits"], stats["misses"],
                stats.get("evictions", 0), stats["size"],
                percent(stats["hits"], lookups),
            ])
        sections.append(render_table(
            ["cache", "hits", "misses", "evictions", "size", "hit rate"],
            cache_rows,
            title="Cache stats (live process, not journaled)",
            align_right=(1, 2, 3, 4, 5),
        ))

    return "\n\n".join(sections)
