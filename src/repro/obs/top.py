"""Terminal dashboard and tail follower for flight files.

``repro obs top`` renders the *latest* snapshot of a flight file as a
compact dashboard — header line, health verdicts, lifecycle stream
table, gauges (one pair per live backpressure queue, then the engine,
provider, monitor and checkpoint), and the notable-event ring.  It
works identically on a live daemon's file (which is atomically
replaced on every flush, so a read never sees a torn record) and on a
dead file left behind by a finished run; ``--follow`` mode polls the
file and re-renders when the snapshot sequence advances.

``repro obs tail`` prints flight records as JSONL lines — all of them
once, or (``--follow``) new ones as the daemon lands them.  Because
each flush rewrites the whole file, "new" means lines beyond the count
already printed.

Both readers are pull-only: they never write, lock, or signal, so an
operator can point them at a production flight file with no effect on
the daemon's determinism.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.obs.live import parse_flight, queue_panels
from repro.util.tables import percent, render_table
from repro.util.timeutil import DAY, format_instant

#: Marker glyphs for health verdicts on the dashboard's health line.
_HEALTH_GLYPHS = {"ok": "+", "warn": "!", "fail": "X"}


def _fmt_sim(instant: int | None) -> str:
    if instant is None:
        return "-"
    return format_instant(instant, with_time=True)


def _fmt_days(seconds: int) -> str:
    return f"{seconds / DAY:.1f}d"


def render_top(flight: dict) -> str:
    """The dashboard for a parsed flight file's latest snapshot."""
    header = flight["header"]
    snapshots = flight["snapshots"]
    if not snapshots:
        return "flight file has a header but no snapshots yet"
    snap = snapshots[-1]
    lines: list[str] = []

    meta = header.get("meta", {})
    lines.append(
        "flight: epoch {epoch}  seq {seq}  sim {sim}  seed {seed}".format(
            epoch=snap["epoch"],
            seq=snap["seq"],
            sim=_fmt_sim(snap["sim_time"]),
            seed=meta.get("seed", "?"),
        )
    )

    verdicts = flight["health"].get(snap["seq"], [])
    if verdicts:
        parts = []
        for record in verdicts:
            glyph = _HEALTH_GLYPHS.get(record["status"], "?")
            parts.append(f"[{glyph}] {record['rule']}")
        lines.append("health: " + "  ".join(parts))
        for record in verdicts:
            if record["status"] == "ok":
                continue
            detail = record.get("detail", {})
            rendered = " ".join(f"{k}={detail[k]}" for k in sorted(detail))
            lines.append(f"  {record['status']}: {record['rule']} {rendered}")

    rows = [
        (
            label,
            _fmt_days(stream["interval"]),
            stream["count"],
            _fmt_sim(stream["last_fired"]),
        )
        for label, stream in sorted(snap.get("streams", {}).items())
    ]
    if rows:
        lines.append("")
        lines.append(render_table(
            ("stream", "interval", "fired", "last fired"),
            rows,
            title="Lifecycle streams",
            align_right=(1, 2),
        ))

    gauges: list[tuple[str, object]] = []
    for path, queue in queue_panels(snap):
        name = " ".join(path)
        gauges.append((f"{name} depth/peak",
                       f"{queue['depth']}/{queue['peak_depth']}"))
        gauges.append((f"{name} refused",
                       f"{queue['refused']} "
                       f"({percent(queue['refused'], queue['offered'] + queue['refused'])})"))
    engine = snap.get("engine", {})
    committed = engine.get("vector_committed", 0)
    replayed = engine.get("scalar_replayed", 0)
    if engine.get("windows"):
        gauges.append(("engine vector/scalar",
                       f"{committed}/{replayed} "
                       f"({percent(committed, committed + replayed)} vectorized)"))
        gauges.append(("engine fallback events", engine.get("fallback_events", 0)))
    provider = snap.get("provider", {})
    if provider:
        gauges.append(("throttle rows (locked)",
                       f"{provider.get('throttle_rows', 0)} "
                       f"({provider.get('locked_rows', 0)})"))
        gauges.append(("ip-window rows", provider.get("hot_rows", 0)))
        gauges.append(("evidence log", provider.get("evidence_log", 0)))
    monitor = snap.get("monitor", {})
    if monitor:
        gauges.append(("detected sites", monitor.get("detected_sites", 0)))
        gauges.append(("monitor events (alarms)",
                       f"{monitor.get('ingested_events', 0)} "
                       f"({monitor.get('alarms', 0)})"))
    checkpoint = snap.get("checkpoint", {})
    if checkpoint:
        gauges.append(("checkpoint coverage",
                       f"{checkpoint.get('covered_epochs', 0)} epochs "
                       f"through {_fmt_sim(checkpoint.get('covered_sim_time'))}"))
        gauges.append(("checkpoint age", _fmt_days(checkpoint.get("age", 0))))
    if gauges:
        lines.append("")
        lines.append(render_table(("gauge", "value"), gauges, title="Gauges"))

    notable = snap.get("notable", [])
    if notable:
        rows = [
            (
                _fmt_sim(event.get("sim_time")),
                event.get("kind", "?"),
                " ".join(
                    f"{k}={event[k]}"
                    for k in sorted(event)
                    if k not in ("sim_time", "kind")
                ),
            )
            for event in notable[-10:]
        ]
        lines.append("")
        lines.append(render_table(
            ("sim time", "event", "detail"),
            rows,
            title=f"Notable events (last {len(rows)} of {len(notable)})",
        ))

    return "\n".join(lines)


def _read_or_none(path: Path) -> dict | None:
    """Parse the flight file, or None while it does not exist yet."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return parse_flight(text)


def run_top(
    path: str | Path,
    follow: bool = True,
    interval: float = 1.0,
    max_seconds: float | None = None,
    out=None,
) -> int:
    """Drive ``repro obs top``: render once, or poll-and-rerender.

    In follow mode the dashboard is re-printed whenever the snapshot
    count advances, until ``max_seconds`` elapses (None = forever).
    Returns a process exit code: 1 when the file never appears within
    the window (or, one-shot, does not exist).
    """
    target = Path(path)
    emit = out.write if out is not None else _stdout_write
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    last_seen = -1
    rendered_any = False
    while True:
        flight = _read_or_none(target)
        if flight is not None and len(flight["snapshots"]) - 1 > last_seen:
            last_seen = len(flight["snapshots"]) - 1
            emit(render_top(flight) + "\n")
            rendered_any = True
        if not follow:
            if flight is None:
                emit(f"no flight file at {target}\n")
                return 1
            if not rendered_any:
                emit(render_top(flight) + "\n")
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0 if rendered_any else 1
        time.sleep(interval)


def run_tail(
    path: str | Path,
    follow: bool = False,
    lines: int | None = None,
    interval: float = 0.5,
    max_seconds: float | None = None,
    out=None,
) -> int:
    """Drive ``repro obs tail``: print flight records as JSONL.

    One-shot mode prints the last ``lines`` records (all when None) and
    exits.  Follow mode keeps polling and prints records beyond the
    count already printed — safe because every flush rewrites the file
    in full, so earlier lines never change.  Returns 1 when the file
    never appears.
    """
    target = Path(path)
    emit = out.write if out is not None else _stdout_write
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    printed = 0
    seen_file = False
    while True:
        try:
            text = target.read_text(encoding="utf-8")
        except FileNotFoundError:
            text = None
        if text is not None:
            seen_file = True
            records = [line for line in text.splitlines() if line.strip()]
            if printed == 0 and lines is not None:
                printed = max(0, len(records) - lines)
            for line in records[printed:]:
                emit(line + "\n")
            printed = max(printed, len(records))
        if not follow:
            if not seen_file:
                emit(f"no flight file at {target}\n")
                return 1
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0 if seen_file else 1
        time.sleep(interval)


def _stdout_write(text: str) -> None:
    print(text, end="", flush=True)
