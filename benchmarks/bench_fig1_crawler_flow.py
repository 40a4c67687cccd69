"""Figure 1: crawler control flow and termination-code distribution.

The paper's Figure 1 is the crawler flow chart; the measurable artifact
here is the distribution of termination codes over the pilot crawl plus
the flow graph's structure (five terminal exits, the per-field fill
loop, and the identity-burn boundary).  The distribution has six exits:
the five boxes plus ``NOT_ENGLISH``; the seventh code,
``BUDGET_EXHAUSTED``, needs a starved budget.
"""

from repro.analysis.fig1 import build_fig1, crawler_flow_graph, render_fig1
from repro.crawler.outcomes import TerminationCode


def test_fig1_crawler_flow(benchmark, pilot, record):
    data = benchmark(lambda: build_fig1(pilot.campaign.attempts))
    record("fig1_crawler_flow", render_fig1(data))

    # Figure 1's five exits and the language gate all occur at pilot
    # scale.  A fault-free pilot never spends a page budget or proxy
    # pool (tests/faults/test_outcome_regression.py holds the same).
    for code in TerminationCode:
        if code is not TerminationCode.BUDGET_EXHAUSTED:
            assert data.counts.get(code, 0) > 0, code
    assert data.counts.get(TerminationCode.BUDGET_EXHAUSTED, 0) == 0
    # Exposure happens only at or past the Figure 1 horizontal line.
    assert data.exposed_by_code.get(TerminationCode.NO_REGISTRATION_FOUND, 0) == 0
    assert data.exposed_by_code.get(TerminationCode.NOT_ENGLISH, 0) == 0
    assert data.exposed_by_code.get(TerminationCode.OK_SUBMISSION, 0) == \
        data.counts[TerminationCode.OK_SUBMISSION]

    graph = crawler_flow_graph()
    terminals = {n for n, d in graph.nodes(data=True) if d["terminal"]}
    assert terminals == {
        "OK submission", "Submission heuristics failed",
        "Required fields missing", "No registration found", "System Error",
    }
