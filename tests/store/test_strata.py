"""Strata sampling: determinism, clipping, incidence preservation."""

import pytest

from repro.store import DEFAULT_STRATA, StrataSampler, build_world_store
from repro.store.world import close_open_stores
from repro.web.population import eligibility_counts

SEED = 99
POPULATION = 300


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("strata") / "ws"
    built = build_world_store(path, SEED, POPULATION)
    yield built
    built.close()
    close_open_stores()


class TestSampler:
    def test_deterministic_across_instances(self):
        a = StrataSampler(5, 10_000).sample(1_000)
        b = StrataSampler(5, 10_000).sample(1_000)
        assert a == b

    def test_independent_of_sibling_strata(self):
        """Adding a stratum never moves another stratum's sample."""
        narrow = StrataSampler(5, 10_000, strata=(1_000,))
        wide = StrataSampler(5, 10_000, strata=(100, 1_000, 10_000))
        assert narrow.sample(1_000) == wide.sample(1_000)

    def test_seed_moves_samples(self):
        assert StrataSampler(5, 10_000).sample(1_000) != (
            StrataSampler(6, 10_000).sample(1_000)
        )

    def test_sorted_without_replacement_within_bound(self):
        ranks = StrataSampler(5, 10_000, sample_size=200).sample(1_000)
        assert list(ranks) == sorted(set(ranks))
        assert len(ranks) == 200
        assert 1 <= min(ranks) and max(ranks) <= 1_000

    def test_clipping_to_population(self):
        sampler = StrataSampler(5, 250, sample_size=100)
        strata = sampler.strata_samples()
        # 1k, 10k, 100k, 1M all clip to 250; only one survives dedup.
        assert [s.clipped_bound for s in strata] == [250]
        assert max(strata[0].ranks) <= 250

    def test_small_population_caps_sample_size(self):
        sampler = StrataSampler(5, 40, sample_size=100)
        (stratum,) = sampler.strata_samples()
        assert stratum.sample_size == 40

    def test_default_strata(self):
        assert DEFAULT_STRATA == (1_000, 10_000, 100_000, 1_000_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            StrataSampler(5, 0)
        with pytest.raises(ValueError):
            StrataSampler(5, 100, sample_size=0)
        with pytest.raises(ValueError):
            StrataSampler(5, 100, strata=(0,))


class TestIncidence:
    def test_fractions_match_ground_truth(self, store):
        sampler = StrataSampler(SEED, POPULATION, strata=(100, 1_000))
        rows = sampler.incidence(store)
        for row in rows:
            counts = eligibility_counts(store, row.stratum.ranks)
            n = row.stratum.sample_size
            assert row.load_failure == counts["load_failure"] / n
            assert row.rest == counts["rest"] / n
            total = (row.load_failure + row.non_english + row.no_registration
                     + row.ineligible + row.rest)
            assert total == pytest.approx(1.0)

    def test_store_and_population_agree(self, store):
        """The same sample through either spec source, same incidence."""
        from repro.core.substrate import WorldShard
        from repro.util.rngtree import RngTree

        listing = WorldShard(RngTree(SEED)).build_population(POPULATION)
        sampler = StrataSampler(SEED, POPULATION, strata=(100,))
        assert sampler.incidence(store) == sampler.incidence(listing)


class TestAnalysisBuilder:
    def test_build_and_render(self, store):
        from repro.analysis.strata import build_strata_table, render_strata_table

        rows = build_strata_table(store, SEED, strata=(100, 1_000))
        table = render_strata_table(rows)
        assert "Stratified registration eligibility" in table
        assert "top 100" in table
        assert "clipped 300" in table  # the 1k stratum clips to 300
        # The paper's 1,000-start window rides along as an anchor.
        assert "paper, start 1,000" in table
