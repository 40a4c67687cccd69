"""Table 4: registration eligibility by Alexa rank (manual survey).

The paper manually visited 100-site windows starting at ranks 1, 1,000
and 10,000 (plus a 100,000 spot check) and bucketed each site.  Here
the survey reads the population's ground-truth specs over the same
windows — the "manual" inspection is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.tables import render_table
from repro.web.population import eligibility_counts


@dataclass(frozen=True)
class Table4Row:
    """One 100-site sample window."""

    start_rank: int
    sample_size: int
    load_failure: float  # fractions of the sample
    non_english: float
    no_registration: float
    ineligible: float
    rest: float

    def as_percent_cells(self) -> list[str]:
        return [
            f"{100 * self.load_failure:.0f}%",
            f"{100 * self.non_english:.0f}%",
            f"{100 * self.no_registration:.0f}%",
            f"{100 * self.ineligible:.0f}%",
            f"{100 * self.rest:.0f}%",
        ]


#: The paper's measured rows, for side-by-side comparison.
PAPER_TABLE4 = {
    1: (0.03, 0.43, 0.07, 0.04, 0.43),
    1000: (0.09, 0.37, 0.15, 0.06, 0.33),
    10000: (0.08, 0.53, 0.16, 0.05, 0.18),
    100000: (0.08, 0.43, 0.29, 0.03, 0.17),
}


def build_table4(
    population,
    start_ranks: tuple[int, ...] = (1, 1000, 10000),
    sample_size: int = 100,
) -> list[Table4Row]:
    """Survey 100-site windows; windows beyond the population are skipped.

    ``population`` is a live population or a world store: anything
    with a ``size`` and ``spec_at_rank``.
    """
    rows = []
    for start in start_ranks:
        end = start + sample_size - 1
        if end > population.size:
            continue
        ranks = list(range(start, end + 1))
        counts = eligibility_counts(population, ranks)
        n = len(ranks)
        rows.append(
            Table4Row(
                start_rank=start,
                sample_size=n,
                load_failure=counts["load_failure"] / n,
                non_english=counts["non_english"] / n,
                no_registration=counts["no_registration"] / n,
                ineligible=counts["ineligible"] / n,
                rest=counts["rest"] / n,
            )
        )
    return rows


def average_row(rows: list[Table4Row]) -> Table4Row:
    """The unweighted average across sample windows (the paper's
    'Average' row covers the first three windows)."""
    n = len(rows)
    if n == 0:
        raise ValueError("no rows to average")
    return Table4Row(
        start_rank=-1,
        sample_size=sum(r.sample_size for r in rows),
        load_failure=sum(r.load_failure for r in rows) / n,
        non_english=sum(r.non_english for r in rows) / n,
        no_registration=sum(r.no_registration for r in rows) / n,
        ineligible=sum(r.ineligible for r in rows) / n,
        rest=sum(r.rest for r in rows) / n,
    )


def render_table4(rows: list[Table4Row], include_paper: bool = True) -> str:
    """Plain-text Table 4, optionally with the paper's rows inline."""
    body = []
    for row in rows:
        body.append([str(row.start_rank)] + row.as_percent_cells())
        if include_paper and row.start_rank in PAPER_TABLE4:
            paper = PAPER_TABLE4[row.start_rank]
            body.append(
                [f"  (paper {row.start_rank})"] + [f"{100 * v:.0f}%" for v in paper]
            )
    if rows:
        avg = average_row(rows)
        body.append(["Average"] + avg.as_percent_cells())
    return render_table(
        ["Start Rank", "Load Failure", "Not English", "No Registration",
         "Ineligible", "Rest"],
        body,
        title="Table 4: Registration eligibility of sites (100-site samples)",
        align_right=(1, 2, 3, 4, 5),
    )
