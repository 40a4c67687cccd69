"""Analysis: builders for every table and figure in the evaluation.

Each module consumes a :class:`repro.core.scenario.PilotResult` (or the
relevant sub-objects) and produces (a) structured rows for tests, and
(b) a plain-text rendering in the paper's layout.  ``evasion`` and
``extensions`` run their own seeded worlds: the §7.3 sampling sweep
and the §7.2 crawler-extension coverage study.
"""

from repro.analysis.table1 import build_table1, render_table1
from repro.analysis.table2 import build_table2, render_table2, assign_site_letters
from repro.analysis.table3 import build_table3, render_table3
from repro.analysis.table4 import build_table4, render_table4
from repro.analysis.strata import build_strata_table, render_strata_table
from repro.analysis.fig1 import build_fig1, render_fig1, crawler_flow_graph
from repro.analysis.fig2 import build_fig2, render_fig2
from repro.analysis.fig3 import build_fig3, render_fig3
from repro.analysis.attacker_ips import build_attacker_ip_report, render_attacker_ip_report
from repro.analysis.ethics import audit_load, render_ethics_audit
from repro.analysis.bursts import build_burst_report, render_burst_report
from repro.analysis.stuffing import (
    build_stuffing_classes,
    build_stuffing_correlation,
    render_stuffing_classes,
    render_stuffing_correlation,
)
from repro.analysis.undetected import (
    MissReason,
    explain_miss,
    miss_report,
    render_miss_report,
)

__all__ = [
    "audit_load", "render_ethics_audit",
    "build_burst_report", "render_burst_report",
    "MissReason", "explain_miss", "miss_report", "render_miss_report",
    "build_table1", "render_table1",
    "build_table2", "render_table2", "assign_site_letters",
    "build_table3", "render_table3",
    "build_table4", "render_table4",
    "build_strata_table", "render_strata_table",
    "build_fig1", "render_fig1", "crawler_flow_graph",
    "build_fig2", "render_fig2",
    "build_fig3", "render_fig3",
    "build_attacker_ip_report", "render_attacker_ip_report",
    "build_stuffing_classes", "render_stuffing_classes",
    "build_stuffing_correlation", "render_stuffing_correlation",
]
