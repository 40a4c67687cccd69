"""The stdlib coverage estimator's tracer (benchmarks/measure_coverage.py).

Checked without installing it: the tier-1 suite may itself run under a
coverage tracer, which ``sys.settrace`` would replace.
"""

import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "measure_coverage.py"


def finished_frame():
    """A frame of this file that has returned (its line stays put)."""
    return sys._getframe()


def test_one_line_tracer_per_source_file():
    make_tracer = runpy.run_path(str(SCRIPT))["make_tracer"]
    here = sys._getframe()
    this_file = here.f_code.co_filename
    executed = {this_file: set()}
    tracer = make_tracer(str(Path(this_file).parent), executed)

    frame = finished_frame()
    line_tracer = tracer(frame, "call", None)
    assert line_tracer is not None
    assert tracer(here, "call", None) is line_tracer
    assert frame.f_lineno in executed[this_file]

    executed[this_file].clear()
    assert line_tracer(frame, "return", None) is line_tracer
    assert not executed[this_file]
    assert line_tracer(frame, "line", None) is line_tracer
    assert executed[this_file] == {frame.f_lineno}

    # Files outside the prefix, or not among the targets, are not traced.
    assert tracer(here.f_back, "call", None) is None
    assert make_tracer(str(Path(this_file).parent), {})(here, "call", None) is None
