"""Table 3: number and date range of login activity per account."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.table2 import assign_site_letters
from repro.core.scenario import PilotResult
from repro.email_provider.accounts import AccountState
from repro.util.tables import render_table
from repro.util.timeutil import STUDY_END, days_between


@dataclass(frozen=True)
class Table3Row:
    """Login statistics for one compromised account."""

    alias: str  # e.g. "a1": site letter + per-site index
    email_local: str  # ground truth (not printed anonymized)
    password_type: str  # "hard" | "easy"
    login_count: int
    days_until_first: int  # registration → first access
    days_since_last: int  # last access → observation end
    frozen: str  # "Y"/"N": provider froze/closed the account
    days_accessed: int  # first access → last access


def build_table3(result: PilotResult) -> list[Table3Row]:
    """One row per accessed account, grouped by site letter."""
    letters = assign_site_letters(result.monitor)
    rows: list[Table3Row] = []
    for detection in result.monitor.detected_sites():
        letter = letters[detection.site_host].lower()
        per_account: dict[str, list] = {}
        for login in detection.logins:
            per_account.setdefault(login.event.local_part, []).append(login)
        # Index accounts by their registration order at the site.
        ordered = sorted(
            per_account.items(),
            key=lambda item: _registration_time(result, item[0]),
        )
        for index, (local, logins) in enumerate(ordered, start=1):
            identity = result.system.pool.identity_for_email(
                f"{local}@{result.system.provider.domain}"
            )
            account = result.system.provider.account(local)
            times = sorted(l.event.time for l in logins)
            registered = _registration_time(result, local)
            frozen = "N"
            if account is not None and account.state is not AccountState.ACTIVE:
                frozen = "Y"
            rows.append(
                Table3Row(
                    alias=f"{letter}{index}",
                    email_local=local,
                    password_type=identity.password_class.value if identity else "?",
                    login_count=len(times),
                    days_until_first=days_between(registered, times[0]),
                    days_since_last=days_between(times[-1], STUDY_END),
                    frozen=frozen,
                    days_accessed=days_between(times[0], times[-1]),
                )
            )
    return rows


def _registration_time(result: PilotResult, local: str) -> int:
    for attempt in result.campaign.attempts:
        if attempt.identity.email_local == local:
            return attempt.registered_at
    return 0


def render_table3(rows: list[Table3Row]) -> str:
    """Plain-text Table 3."""
    body = [
        [
            row.alias,
            row.password_type,
            row.login_count,
            row.days_until_first,
            row.days_since_last,
            row.frozen,
            row.days_accessed,
        ]
        for row in rows
    ]
    return render_table(
        ["Account", "Type", "# Logins", "Until", "Since", "Frozen", "Days Accessed"],
        body,
        title="Table 3: Number and date range of login activity for compromised accounts",
        align_right=(2, 3, 4, 6),
    )
