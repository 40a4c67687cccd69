"""Stratified eligibility incidence for store-scale populations.

Table 4 surveys contiguous 100-site windows — right for a ~30k-site
population, too coarse for a million-site world store.  This builder
scales the same measurement with the Common Crawl/Tranco idiom:
fixed-size random rank samples within nested strata (top 1k, 10k,
100k, 1M), drawn deterministically by
:class:`repro.store.strata.StrataSampler` and answered by streaming
only the sampled ranks' specs — so the cost is O(samples), whatever
the world size, and a store-backed pass never holds more than the
page cache's budget of specs.
"""

from __future__ import annotations

from repro.analysis.table4 import PAPER_TABLE4
from repro.store.strata import DEFAULT_STRATA, StrataSampler, StratumIncidence
from repro.util.tables import render_table

__all__ = ["build_strata_table", "render_strata_table"]


def build_strata_table(
    source,
    seed: int,
    *,
    strata: tuple[int, ...] = DEFAULT_STRATA,
    sample_size: int = 100,
) -> list[StratumIncidence]:
    """Per-stratum eligibility incidence over a population or store.

    ``seed`` should be the world's root seed so the drawn ranks are a
    stable property of the world, not of the analysis invocation.
    """
    sampler = StrataSampler(
        seed, source.size, strata=strata, sample_size=sample_size
    )
    return sampler.incidence(source)


def render_strata_table(
    rows: list[StratumIncidence], include_paper: bool = True
) -> str:
    """Plain-text stratified incidence, with the paper's windows inline.

    The paper's Table 4 rows are keyed by window *start* rank; they sit
    beside the stratum whose bound matches their order of magnitude
    (start 1,000 ↔ top-1k stratum, and so on) as a sanity anchor.
    """
    body = []
    for row in rows:
        stratum = row.stratum
        label = f"top {stratum.bound:,}"
        if stratum.clipped_bound != stratum.bound:
            label += f" (clipped {stratum.clipped_bound:,})"
        body.append(
            [label, str(stratum.sample_size)] + row.as_percent_cells()
        )
        if include_paper and stratum.bound in PAPER_TABLE4:
            paper = PAPER_TABLE4[stratum.bound]
            body.append(
                [f"  (paper, start {stratum.bound:,})", "100"]
                + [f"{100 * v:.0f}%" for v in paper]
            )
    return render_table(
        ["Stratum", "Sample", "Load Failure", "Not English",
         "No Registration", "Ineligible", "Rest"],
        body,
        title="Stratified registration eligibility (rank-sampled strata)",
        align_right=(1, 2, 3, 4, 5, 6),
    )
