"""Rank-stratified sampling over million-site worlds.

Large-scale web measurements (the Common Crawl robots.txt studies,
Tranco-based scans) don't survey a top-1M list exhaustively — they
sample fixed-size windows *within rank strata* (top 1k, top 10k, top
100k, top 1M) so popularity-correlated properties stay visible.  The
paper's Table 4 is the 100-site-window version of the same idea; this
module scales it to store-backed worlds: a :class:`StrataSampler`
draws a deterministic without-replacement rank sample per stratum, and
the per-stratum eligibility incidence is computed by streaming only
the sampled ranks' specs through the store's page cache.

Sampling is seeded from the world's own :class:`~repro.util.rngtree`
discipline — ``RngTree(seed).child("strata", bound)`` — so the sample
for one stratum never shifts when another stratum is added or the
sample size of a different stratum changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rngtree import RngTree
from repro.web.population import eligibility_counts

__all__ = ["DEFAULT_STRATA", "Stratum", "StrataSampler"]

#: The canonical stratum bounds (top-N rank windows).
DEFAULT_STRATA = (1_000, 10_000, 100_000, 1_000_000)


@dataclass(frozen=True)
class Stratum:
    """One rank stratum with its drawn sample."""

    bound: int
    #: Effective upper rank after clipping to the population.
    clipped_bound: int
    ranks: tuple[int, ...]

    @property
    def sample_size(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class StratumIncidence:
    """Eligibility fractions observed in one stratum's sample."""

    stratum: Stratum
    load_failure: float
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


class StrataSampler:
    """Deterministic per-stratum rank sampling, clipped to a population.

    Each stratum's sample is drawn without replacement from
    ``[1, min(bound, population)]`` using an RNG derived purely from
    ``(seed, "strata", bound)``; ranks are returned sorted so a
    store-backed incidence pass walks pages monotonically.  A stratum
    whose bound exceeds the population is clipped rather than dropped —
    the top-1M stratum of a 10^5 world degrades to the whole
    population — except when clipping would duplicate the previous
    stratum exactly, in which case it is skipped.
    """

    def __init__(
        self,
        seed: int,
        population: int,
        *,
        strata: tuple[int, ...] = DEFAULT_STRATA,
        sample_size: int = 100,
    ):
        if population < 1:
            raise ValueError("population must be positive")
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        if any(bound < 1 for bound in strata):
            raise ValueError("stratum bounds must be positive")
        self.seed = seed
        self.population = population
        self.strata = tuple(sorted(set(strata)))
        self.sample_size = sample_size
        self._tree = RngTree(seed).child("strata")

    def sample(self, bound: int) -> tuple[int, ...]:
        """The sorted without-replacement rank sample for one stratum.

        Depends only on ``(seed, bound, sample_size)`` and the clip —
        never on sibling strata.
        """
        clipped = min(bound, self.population)
        size = min(self.sample_size, clipped)
        rng = self._tree.child(bound).rng()
        return tuple(sorted(rng.sample(range(1, clipped + 1), size)))

    def strata_samples(self) -> list[Stratum]:
        """All strata with their samples, deduplicating clipped repeats."""
        out: list[Stratum] = []
        seen_clips: set[int] = set()
        for bound in self.strata:
            clipped = min(bound, self.population)
            if clipped in seen_clips:
                continue
            seen_clips.add(clipped)
            out.append(
                Stratum(bound=bound, clipped_bound=clipped, ranks=self.sample(bound))
            )
        return out

    def incidence(self, source) -> list[StratumIncidence]:
        """Per-stratum Table-4 bucket fractions from a spec source.

        ``source`` is a population or a world store.  It only ever sees
        the sampled ranks, so a store-backed pass touches ``O(samples)``
        pages regardless of world size.
        """
        results = []
        for stratum in self.strata_samples():
            ranks = list(stratum.ranks)
            counts = eligibility_counts(source, ranks)
            n = len(ranks)
            results.append(
                StratumIncidence(
                    stratum=stratum,
                    load_failure=counts["load_failure"] / n,
                    non_english=counts["non_english"] / n,
                    no_registration=counts["no_registration"] / n,
                    ineligible=counts["ineligible"] / n,
                    rest=counts["rest"] / n,
                )
            )
        return results
