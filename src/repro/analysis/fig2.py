"""Figure 2: registration and login activity over time, per site.

Each detected site is one row: registration ticks, easy-password login
markers, hard-password login markers, with the telemetry-gap window
shaded and per-site login totals on the right — an ASCII rendering of
the paper's timeline figure, backed by structured series for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.table2 import assign_site_letters
from repro.core.scenario import PilotResult
from repro.identity.passwords import PasswordClass
from repro.util.timeutil import STUDY_END, SimInstant, month_label


@dataclass
class SiteTimeline:
    """Event series for one detected site."""

    letter: str
    host: str
    registrations: list[SimInstant] = field(default_factory=list)
    easy_logins: list[SimInstant] = field(default_factory=list)
    hard_logins: list[SimInstant] = field(default_factory=list)
    deactivations: list[SimInstant] = field(default_factory=list)

    @property
    def total_logins(self) -> int:
        """The per-row count shown on the right axis."""
        return len(self.easy_logins) + len(self.hard_logins)

    @property
    def first_login(self) -> SimInstant:
        """Earliest login across both password classes."""
        return min(self.easy_logins + self.hard_logins)


@dataclass
class Fig2Data:
    """All rows plus the gap shading."""

    timelines: list[SiteTimeline]
    start: SimInstant
    end: SimInstant
    gap_windows: list[tuple[SimInstant, SimInstant]]


def build_fig2(result: PilotResult) -> Fig2Data:
    """Assemble per-site series, sorted by first login time."""
    letters = assign_site_letters(result.monitor)
    timelines = []
    start = STUDY_END
    for detection in result.monitor.detected_sites():
        host = detection.site_host
        timeline = SiteTimeline(letter=letters[host], host=host)
        for attempt in result.campaign.attempts_for_site(host):
            if attempt.exposed:
                timeline.registrations.append(attempt.registered_at)
                start = min(start, attempt.registered_at)
        for login in detection.logins:
            if login.password_class is PasswordClass.EASY:
                timeline.easy_logins.append(login.event.time)
            else:
                timeline.hard_logins.append(login.event.time)
        for local in detection.accounts_accessed:
            account = result.system.provider.account(local)
            if account is not None and account.state_changed_at is not None:
                timeline.deactivations.append(account.state_changed_at)
        timelines.append(timeline)
    timelines.sort(key=lambda t: t.first_login)
    # Only observation-window gaps matter for the figure (drop any
    # pre-study loss window starting at time zero).
    gaps = [w for w in result.system.provider.telemetry.lost_windows() if w[0] > 0]
    return Fig2Data(
        timelines=timelines,
        start=start,
        end=STUDY_END,
        gap_windows=gaps,
    )


def render_fig2(data: Fig2Data, width: int = 100) -> str:
    """ASCII timeline: '|' registration, 'e' easy login, 'H' hard
    login, '.' gap shading."""
    if not data.timelines:
        return "Figure 2: no detected compromises to plot"
    span = max(1, data.end - data.start)

    def column(time: SimInstant) -> int:
        return min(width - 1, max(0, int((time - data.start) / span * width)))

    deactivation_total = sum(len(t.deactivations) for t in data.timelines)
    lines = [
        "Figure 2: registration and login activity for compromised sites",
        f"    window: {month_label(data.start)} .. {month_label(data.end)}"
        f"   ('|' registration, 'e' easy login, 'H' hard login,",
        f"    'x' provider deactivation/freeze ({deactivation_total}; paper: 6), "
        "'.' log gap)",
    ]
    gap_columns = set()
    for gap_start, gap_end in data.gap_windows:
        for col in range(column(gap_start), column(gap_end) + 1):
            gap_columns.add(col)
    for timeline in data.timelines:
        row = [" "] * width
        for col in gap_columns:
            row[col] = "."
        for t in timeline.registrations:
            row[column(t)] = "|"
        for t in timeline.easy_logins:
            row[column(t)] = "e"
        for t in timeline.hard_logins:
            row[column(t)] = "H"
        for t in timeline.deactivations:
            row[column(t)] = "x"
        lines.append(f"{timeline.letter:>2} {''.join(row)} ({timeline.total_logins})")
    return "\n".join(lines)
