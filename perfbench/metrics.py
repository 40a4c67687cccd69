"""From repetition records to the reported metrics.

A record is what one ``workloads.py`` repetition wrote (``setup_s``,
``wall_s``, counts, fingerprint and, when traced, ``layers``), or
``{"error": ...}`` for a repetition that raised or timed out.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter

#: A metric name: a letter or digit, then letters, digits, ``_``, ``.``
#: and ``-``; at most 64 characters.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_names(entries: list[dict]) -> None:
    """Raise ValueError unless every name is well formed and used once."""
    seen = set()
    for entry in entries:
        name = entry["name"]
        if not NAME.fullmatch(name):
            raise ValueError(f"malformed metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def mark_failures(records: list[dict], expected: str | None) -> int:
    """Set ``failed`` on every record and return how many failed.

    A repetition fails when it raised, or when its fingerprint differs
    from ``expected``; with no pinned value the most common fingerprint
    of the run is the reference, so repetitions must agree.
    """
    if expected is None:
        common = Counter(r["fingerprint"] for r in records if "error" not in r)
        expected = common.most_common(1)[0][0] if common else None
    for record in records:
        record["failed"] = "error" in record or record["fingerprint"] != expected
    return sum(r["failed"] for r in records)


def error_ratio(records: list[dict]) -> float:
    """Failed repetitions over attempted ones."""
    return sum(r["failed"] for r in records) / len(records)


def _good(records: list[dict], trace: int) -> list[dict]:
    return [r for r in records if not r["failed"] and r["trace"] == trace]


def end_to_end_metrics(records: list[dict]) -> dict[str, float]:
    """Medians over the untraced repetitions that passed."""
    good = _good(records, 0)
    if not good:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in good),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in good),
    }


def side_metrics(records: list[dict]) -> dict[str, float]:
    """Printed, not reported: both throughputs on every workload."""
    good = _good(records, 0)
    if not good:
        return {}
    return {
        "sites_per_s": statistics.median(r["crawl_attempts"] / r["wall_s"] for r in good),
        "logins_per_s": statistics.median(r["logins"] / r["wall_s"] for r in good),
    }


def median_record(records: list[dict], key: str) -> dict:
    """The record holding the (lower) median of ``key``."""
    ordered = sorted(records, key=lambda r: r[key])
    return ordered[(len(ordered) - 1) // 2]


def per_layer_metrics(records: list[dict]) -> dict[str, float]:
    """The layers of the traced repetition with the median ``wall_s``.

    One repetition's numbers, not per-metric medians, so its self times
    and ``unattributed_s`` still add up to its traced set-up plus wall.
    """
    traced, untraced = _good(records, 1), _good(records, 0)
    if not traced or not untraced:
        return {}
    chosen = median_record(traced, "wall_s")
    base = statistics.median(r["wall_s"] for r in untraced)
    return {
        **chosen["layers"],
        "traced_setup_s": chosen["setup_s"],
        "traced_wall_s": chosen["wall_s"],
        "trace_overhead_ratio": chosen["wall_s"] / base - 1,
    }
