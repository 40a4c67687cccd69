"""Span recording from outside the program, and the span arithmetic.

A :class:`Tracer` replaces public callables of ``repro`` modules with
thin wrappers that record one span per call: layer name, start, end,
parent span and run id.  Spans stay in memory (flat lists, no objects
per call) until :meth:`Tracer.spans` hands them out after the run.

Self time is a span's duration minus the time its direct children
cover.  Calls in the traced process are strictly nested (the parent
process is single-threaded; pool workers are not traced), so summing
child durations is the same as measuring the union they cover.  The
time no span covers inside the timed window is ``unattributed_s``.
By construction::

    sum(self times) + unattributed == window length

which :func:`layer_self_times` and :func:`unattributed` keep up to
float rounding.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: Layers whose spans start a new run id; every span opened under one
#: of them carries its id (one id per registration attempt).
REQUEST_LAYERS = frozenset({"crawler.register"})


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables, records spans and counts in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._layers: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._runs: list[int] = []
        self._stack: list[int] = []
        self._next_run = 1
        self._patches: list[tuple[object, str, object]] = []
        #: Counters the wrappers' count hooks add to (work done).
        self.counts: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, fn, count=None):
        """A wrapper of ``fn`` recording a ``layer`` span per call.

        ``count(counts, args, result)`` runs after the span closes, so
        its cost lands in the parent span, never in ``layer``.
        """
        tracer = self
        clock = self._clock
        layers, starts, ends = self._layers, self._starts, self._ends
        parents, runs, stack = self._parents, self._runs, self._stack
        new_run = layer in REQUEST_LAYERS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0 or new_run:
                run = tracer._next_run
                tracer._next_run += 1
            else:
                run = runs[parent]
            index = len(starts)
            layers.append(layer)
            parents.append(parent)
            runs.append(run)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def patch(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` (class or module) by its traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, count))

    def patch_function(self, module: str, attr: str, layer: str, count=None) -> None:
        """Trace a module-level function wherever it is called.

        The wrapper replaces the function in ``module`` and in every
        loaded ``repro`` module that bound it with ``from module import
        attr``.
        """
        home = importlib.import_module(module)
        original = getattr(home, attr)
        wrapper = self.wrap(layer, original, count)
        owners = [home] + [
            m for name, m in sorted(sys.modules.items())
            if m is not None and m is not home
            and (name == "repro" or name.startswith("repro."))
            and getattr(m, attr, None) is original
        ]
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (also run in forked children)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install_fork_guard(self) -> None:
        """Forked pool workers run the untraced program."""
        os.register_at_fork(after_in_child=self.uninstall)

    # -- reading -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every closed span, in opening order."""
        return [
            Span(layer, start, end, parent, run)
            for layer, start, end, parent, run in zip(
                self._layers, self._starts, self._ends, self._parents, self._runs
            )
        ]

    def write_jsonl(self, path) -> None:
        """Write the spans as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans()):
                out.write(json.dumps({
                    "id": i, "layer": span.layer, "start": span.start,
                    "end": span.end, "parent": span.parent, "run": span.run,
                }) + "\n")


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: durations minus direct children's durations."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        totals[span.layer] = totals.get(span.layer, 0.0) + span.duration - covered
    return totals


def unattributed(spans: list[Span], window_s: float) -> float:
    """Window time that no root span covers."""
    return window_s - sum(s.duration for s in spans if s.parent < 0)
