"""The repository's benchmark: one workload, end to end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload pilot
    python3 perfbench/run.py --workload serve_traffic --seed 7 --seconds 42 --trace 1

Each measured repetition runs ``workloads.py`` in a fresh interpreter
with a fresh scratch directory (removed afterwards), until one more
repetition of median length would overrun ``--seconds``; at least one
repetition (one untraced and one traced with ``--trace 1``) always runs.  Every
repetition's output fingerprint is checked against the pinned value
for its seed (``fingerprints.json``), or, for a seed with no pinned
value, against the other repetitions of the run.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, each the median over the untraced repetitions.
With ``--trace 1`` they are the per-layer ones of the traced repetition
with the median ``wall_s``; untraced repetitions interleave with the
traced ones and give the base of ``trace_overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero if any repetition raised or produced another
fingerprint, and, without printing a result, if the program it
measures (``src/repro``) is missing.  Per-repetition records go to
``.perfbench_out/``.  README.md documents the workloads and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    check_metric_names,
    end_to_end_metrics,
    error_ratio,
    mark_failures,
    median_record,
    per_layer_metrics,
    side_metrics,
)

#: The workloads and their default seeds: the ``repro pilot`` and
#: ``repro serve`` defaults, whose output fingerprints are pinned.
DEFAULT_SEEDS = {"pilot": 2017, "serve_traffic": 7, "serve_stuffing": 7}
#: Whole-command budget: a repetition starts only with twice its
#: typical length left, and is killed when the budget runs out.
HARD_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"
SCRATCH_DIR = ROOT / ".perfbench_tmp"


def run_repetition(workload: str, seed: int, trace: int, timeout: float,
                   spans: Path | None) -> dict:
    """One repetition in a fresh interpreter; returns its record.

    A repetition that exits non-zero, times out or writes no record
    comes back as ``{"error": ...}``.
    """
    SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_DIR))
    out = scratch / "record.json"
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--scratch", str(scratch), "--out", str(out),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    try:
        # A session of its own, so a timeout can stop the pool workers too.
        child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return {"error": f"timed out after {timeout:.0f}s", "trace": trace,
                    "elapsed": time.monotonic() - started}
        if child.returncode != 0 or not out.is_file():
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            return {"error": f"exit {child.returncode}: " + " | ".join(tail),
                    "trace": trace, "elapsed": time.monotonic() - started}
        record = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["trace"] = trace
    record["elapsed"] = time.monotonic() - started
    return record


def measure(workload: str, seed: int, seconds: float, trace: int, spans: Path) -> list[dict]:
    """Repetitions until one more of median length would overrun ``seconds``."""
    modes = [0, 1] if trace else [0]
    records: list[dict] = []
    began = time.monotonic()
    while True:
        mode = modes[len(records) % len(modes)]
        elapsed = time.monotonic() - began
        records.append(run_repetition(
            workload, seed, mode, timeout=max(5.0, HARD_LIMIT_S - elapsed),
            spans=spans if mode else None,
        ))
        print(f"  rep {len(records)} trace={mode}: " + _describe(records[-1]), flush=True)
        elapsed = time.monotonic() - began
        typical = statistics.median(r["elapsed"] for r in records)
        if len(records) < len(modes):
            continue
        if elapsed + typical > seconds or elapsed + 2 * typical > HARD_LIMIT_S:
            return records


def _describe(record: dict) -> str:
    if "error" in record:
        return "FAILED " + record["error"]
    return (f"fingerprint {record['fingerprint'][:16]} setup_s={record['setup_s']:.3f} "
            f"wall_s={record['wall_s']:.3f} ({record['elapsed']:.1f}s in all)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: pilot 2017, serve 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced repetitions")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    check_metric_names(wanted)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    pinned = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    expected = pinned.get(args.workload, {}).get(str(seed))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"seconds={seconds:g} nproc={os.cpu_count()} "
          f"python={platform.python_version()}", flush=True)
    records = measure(args.workload, seed, seconds, args.trace,
                      OUT_DIR / f"{stem}.spans.jsonl")

    failed = mark_failures(records, expected)
    if expected is None:
        seen = sorted({r["fingerprint"] for r in records if "error" not in r})
        print(f"  no pinned fingerprint for seed {seed}; repetitions must agree: "
              + ", ".join(seen))
    metrics = per_layer_metrics(records) if args.trace else end_to_end_metrics(records)
    units = {m["name"]: m["unit"] for m in wanted}
    if metrics and set(metrics) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    shown = {name: metrics[name] for name in units if name in metrics}

    print(f"{'metric':<36} {'value':>16}  unit")
    for name, value in shown.items():
        print(f"{name:<36} {value:>16.6g}  {units[name]}")
    if not args.trace:
        for name, value in side_metrics(records).items():
            print(f"{name:<36} {value:>16.6g}  1/s  (printed only)")
    print(f"{'error_ratio':<36} {error_ratio(records):>16.6g}  ratio"
          f"  ({failed} of {len(records)} repetitions failed)")
    if args.trace and shown:
        chosen = median_record([r for r in records if not r["failed"] and r["trace"]],
                               "wall_s")
        print(f"layer self times {chosen['self_total_s']:.6f} s + unattributed_s "
              f"{shown['unattributed_s']:.6f} s = traced set-up + wall "
              f"{shown['traced_setup_s'] + shown['traced_wall_s']:.6f} s")

    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "pinned_fingerprint": expected, "repetitions": records, "metrics": shown,
    }, indent=2) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
