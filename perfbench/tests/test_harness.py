"""Self-check of the benchmark harness (no workload is run).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import (  # noqa: E402
    check_metric_names,
    end_to_end_metrics,
    error_ratio,
    mark_failures,
    per_layer_metrics,
    side_metrics,
)
from tracing import Span, Tracer, layer_self_times, unattributed  # noqa: E402


class FakeClock:
    """Advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def traced_tree():
    """Spans of a nested tree with siblings and a second root, window 0..13::

        run 0..10 > [a 0..4 > b 1..3], [a 4..6];  c 11..12

    Self times: run 10-4-2=4, a (4-2)+2=4, b 2, c 1; unattributed 13-10-1=2.
    """
    clock = FakeClock()
    tracer = Tracer(clock)

    def at(t):
        clock.now = t

    b = tracer.wrap("b", lambda: at(3))

    def first_a():
        at(1)
        b()
        at(4)

    def run():
        tracer.wrap("a", first_a)()
        tracer.wrap("a", lambda: at(6))()
        at(10)

    tracer.wrap("run", run)()
    at(11)
    tracer.wrap("c", lambda: at(12))()
    return tracer


def test_self_times_subtract_direct_children():
    spans = traced_tree().spans()
    assert [(s.layer, s.start, s.end) for s in spans] == [
        ("run", 0, 10), ("a", 0, 4), ("b", 1, 3), ("a", 4, 6), ("c", 11, 12),
    ]
    assert layer_self_times(spans) == {"run": 4, "a": 4, "b": 2, "c": 1}


def test_unattributed_is_window_minus_root_spans():
    spans = traced_tree().spans()
    assert unattributed(spans, 13.0) == 2.0
    assert sum(layer_self_times(spans).values()) + unattributed(spans, 13.0) == 13.0


def test_parents_and_run_ids():
    spans = traced_tree().spans()
    assert [s.parent for s in spans] == [-1, 0, 1, 0, -1]
    # Children share the root's run id; a new root starts a new one.
    assert [s.run for s in spans] == [1, 1, 1, 1, 2]


def test_request_layer_starts_its_own_run_id():
    tracer = Tracer(FakeClock())
    leaf = tracer.wrap("html.parse", lambda: None)
    register = tracer.wrap("crawler.register", lambda: leaf())
    tracer.wrap("core.campaign", lambda: (register(), register()))()
    runs = [(s.layer, s.run) for s in tracer.spans()]
    assert runs == [
        ("core.campaign", 1), ("crawler.register", 2), ("html.parse", 2),
        ("crawler.register", 3), ("html.parse", 3),
    ]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now = 2.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("x", fail)()
    assert tracer.spans() == [Span("x", 0.0, 2.0, -1, 1)]


def test_count_hooks_and_uninstall():
    module = types.SimpleNamespace(work=lambda n: n * 2)
    original = module.work
    tracer = Tracer(FakeClock())

    def count(counts, args, result):
        counts["units"] = counts.get("units", 0) + result

    tracer.patch(module, "work", "layer", count)
    assert module.work(3) == 6 and module.work(1) == 2
    assert tracer.counts == {"units": 8}
    tracer.uninstall()
    assert module.work is original


def test_patch_function_rebinds_every_from_import(monkeypatch):
    def work():
        return 1

    home = types.ModuleType("repro._perfbench_home")
    user = types.ModuleType("repro._perfbench_user")
    home.work = user.work = work
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = Tracer(FakeClock())
    tracer.patch_function(home.__name__, "work", "layer")
    assert user.work is home.work is not work
    assert user.work() == 1
    assert [s.layer for s in tracer.spans()] == ["layer"]
    tracer.uninstall()
    assert home.work is work and user.work is work


def record(wall, setup=1.0, fingerprint="f", trace=0, **extra):
    return {"wall_s": wall, "setup_s": setup, "fingerprint": fingerprint,
            "trace": trace, "crawl_attempts": 100, "logins": 1000, "work": 1000,
            "peak_rss_mib": 50.0, **extra}


def test_throughput_from_counts():
    records = [record(2.0), record(4.0), record(5.0)]
    mark_failures(records, "f")
    metrics = end_to_end_metrics(records)
    assert metrics["wall_s"] == 4.0
    # Median of per-repetition rates, not count over median time.
    assert metrics["work_per_s"] == 250.0
    assert side_metrics(records) == {"sites_per_s": 25.0, "logins_per_s": 250.0}
    assert metrics["setup_s"] == 1.0 and metrics["peak_rss_mib"] == 50.0


def test_error_ratio_counts_exceptions_and_wrong_fingerprints():
    records = [record(1.0), record(1.0, fingerprint="other"), {"error": "exit 1", "trace": 0}]
    assert mark_failures(records, "f") == 2
    assert error_ratio(records) == pytest.approx(2 / 3)
    # Failed repetitions are left out of the medians.
    assert end_to_end_metrics(records)["wall_s"] == 1.0


def test_unpinned_seed_requires_agreement():
    agree = [record(1.0), record(2.0)]
    assert mark_failures(agree, None) == 0
    split = [record(1.0, fingerprint="x"), record(1.0, fingerprint="x"),
             record(1.0, fingerprint="y")]
    assert mark_failures(split, None) == 1
    assert [r["failed"] for r in split] == [False, False, True]


def test_per_layer_metrics_come_from_the_median_traced_repetition():
    layers = lambda v: {"a_s": v, "unattributed_s": 0.5}  # noqa: E731
    records = [record(10.0), record(12.0, trace=1, layers=layers(1.0)),
               record(11.0, trace=1, layers=layers(2.0)),
               record(13.0, trace=1, layers=layers(3.0))]
    mark_failures(records, "f")
    metrics = per_layer_metrics(records)
    assert metrics["a_s"] == 1.0 and metrics["traced_wall_s"] == 12.0
    assert metrics["trace_overhead_ratio"] == pytest.approx(0.2)


@pytest.mark.parametrize("name", ["wall_s", "core.runner.dispatch_s", "a-b", "9x"])
def test_metric_names_accepted(name):
    check_metric_names([{"name": name}])


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        check_metric_names([{"name": name}])


def test_metric_names_used_once():
    with pytest.raises(ValueError):
        check_metric_names([{"name": "wall_s"}, {"name": "wall_s"}])


def test_benchmark_spec_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec["end_to_end"] + spec["per_layer"])
    records = [record(1.0), record(1.0, trace=1, layers={})]
    mark_failures(records, "f")
    assert set(end_to_end_metrics(records)) == {m["name"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    produced = workloads.layer_metrics([], {}, {}, 0.0)
    produced.update({k: 0.0 for k in per_layer_metrics(records)})
    assert set(produced) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pilot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
