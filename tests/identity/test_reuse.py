"""Cross-site reuse model: purity, prefix closure, columnar parity."""

import pytest

from repro.identity.reuse import CrossSiteReuseModel, ReuseClass
from repro.email_provider.accounts import benign_password
from repro.util.rngtree import RngTree

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

SEED = 2017


def make_model(**kwargs):
    return CrossSiteReuseModel.from_tree(RngTree(SEED), **kwargs)


def spelled(model, users, rank):
    """Site passwords spelled from the columnar lanes: the class code,
    the derive suffix and the unique lane."""
    users = [int(u) for u in users]
    codes = model.behaviors(users)
    suffixes = model.derive_suffixes(users, rank).tolist()
    lanes = model.unique_lanes(users, rank).tolist()
    out = []
    for u, code, suffix, lane in zip(users, codes, suffixes, lanes):
        if code == ReuseClass.EXACT:
            out.append(benign_password(u))
        elif code == ReuseClass.DERIVED:
            out.append(benign_password(u) + ".%04x" % suffix)
        else:
            out.append("sw-%016x" % lane)
    return out


class TestScalarLanes:
    def test_exact_reuser_leaks_the_mailbox_password(self):
        model = make_model(exact_rate=1.0, derive_rate=0.0)
        for user in range(20):
            for rank in (0, 3, 17):
                assert model.site_password(user, rank) == benign_password(user)

    def test_derived_variant_differs_per_site_but_shares_the_stem(self):
        model = make_model(exact_rate=0.0, derive_rate=1.0)
        for user in range(20):
            pw_a = model.site_password(user, 1)
            pw_b = model.site_password(user, 2)
            assert pw_a != benign_password(user)
            assert pw_a.startswith(benign_password(user))
            assert pw_a != pw_b

    def test_unique_users_leak_unrelated_material(self):
        model = make_model(exact_rate=0.0, derive_rate=0.0)
        for user in range(20):
            pw = model.site_password(user, 5)
            assert benign_password(user) not in pw
            assert pw != model.site_password(user, 6)

    def test_class_rates_are_respected_in_aggregate(self):
        model = make_model(exact_rate=0.3, derive_rate=0.3)
        codes = model.behaviors(range(20_000))
        exact = codes.count(ReuseClass.EXACT) / len(codes)
        derived = codes.count(ReuseClass.DERIVED) / len(codes)
        assert exact == pytest.approx(0.3, abs=0.02)
        assert derived == pytest.approx(0.3, abs=0.02)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            CrossSiteReuseModel(1, exact_rate=0.8, derive_rate=0.3)
        with pytest.raises(ValueError):
            CrossSiteReuseModel(1, site_density=1.5)
        with pytest.raises(ValueError):
            CrossSiteReuseModel(1, exact_rate=-0.1)
        with pytest.raises(ValueError):
            CrossSiteReuseModel(1, derive_rate=float("nan"))

    def test_from_tree_consumes_no_rng_stream(self):
        tree = RngTree(SEED)
        before = tree.child("other").rng().random()
        CrossSiteReuseModel.from_tree(tree)
        assert tree.child("other").rng().random() == before


class TestColumnarParity:
    def test_members_match_scalar_membership(self):
        model = make_model()
        members = model.members(9, 4000)
        assert list(members) == [
            u for u in range(4000) if model.has_account(u, 9)
        ]

    def test_members_prefix_closed(self):
        model = make_model()
        small = model.members(4, 1500)
        large = model.members(4, 6000)
        assert list(large[: len(small)]) == list(small)

    def test_site_passwords_match_scalar(self):
        """The columnar lanes determine the scalar site passwords."""
        model = make_model()
        members = model.members(2, 3000)
        classes = {model.behavior(int(u)) for u in members}
        assert classes == set(ReuseClass)
        assert spelled(model, members, 2) == [
            model.site_password(int(u), 2) for u in members
        ]
        # Indices far past any population still mint the scalar forms.
        users = [0, 2**31 - 1, 2**32 + 5, 2**40 + 3]
        assert spelled(model, users, 2) == [
            model.site_password(u, 2) for u in users
        ]
        assert spelled(model, model.members(2, 0), 2) == []
        assert model.derive_suffixes([], 2).size == model.unique_lanes([], 2).size == 0

    @pytest.mark.parametrize(
        "rates", [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.5)]
    )
    def test_site_passwords_match_scalar_at_extreme_rates(self, rates):
        model = make_model(exact_rate=rates[0], derive_rate=rates[1])
        users = range(200)
        assert spelled(model, users, 4) == [
            model.site_password(u, 4) for u in users
        ]

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_member_mask_matches_has_account(self, density):
        model = make_model(site_density=density)
        users = list(range(3000)) + [2**33 + 1]
        for rank in (1, 9):
            assert model.member_mask(users, rank).tolist() == [
                model.has_account(u, rank) for u in users
            ]
        assert model.member_mask([], 9).tolist() == []

    def test_cracked_mask_matches_scalar(self):
        model = make_model()
        members = model.members(1, 3000)
        mask = model.cracked_mask(members, 1, 0.6)
        assert list(mask) == [
            model.crack_recovered(int(u), 1, 0.6) for u in members
        ]

    def test_behaviors_match_scalar(self):
        model = make_model()
        users = range(3000)
        assert list(model.behaviors(users)) == [model.behavior(u) for u in users]


if HAVE_HYPOTHESIS:

    class TestPurity:
        @settings(max_examples=60, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**32),
            users=st.lists(
                st.integers(min_value=0, max_value=1 << 30),
                min_size=1,
                max_size=40,
            ),
            rank=st.integers(min_value=0, max_value=500),
        )
        def test_pure_function_of_seed_and_index(self, seed, users, rank):
            """Any evaluation order/subset yields the same values."""
            model = CrossSiteReuseModel.from_tree(RngTree(seed))
            forward = [
                (
                    model.behavior(u),
                    model.has_account(u, rank),
                    model.site_password(u, rank),
                )
                for u in users
            ]
            fresh = CrossSiteReuseModel.from_tree(RngTree(seed))
            backward = [
                (
                    fresh.behavior(u),
                    fresh.has_account(u, rank),
                    fresh.site_password(u, rank),
                )
                for u in reversed(users)
            ]
            assert forward == list(reversed(backward))
            # Columnar evaluation agrees with both scalar sweeps.
            assert list(model.behaviors(users)) == [b for b, _, _ in forward]
            assert spelled(model, users, rank) == [p for _, _, p in forward]

        @settings(max_examples=30, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**32),
            small=st.integers(min_value=0, max_value=300),
            extra=st.integers(min_value=0, max_value=300),
            rank=st.integers(min_value=0, max_value=50),
        )
        def test_members_prefix_closed_for_any_population(
            self, seed, small, extra, rank
        ):
            model = CrossSiteReuseModel.from_tree(RngTree(seed))
            a = list(model.members(rank, small))
            b = list(model.members(rank, small + extra))
            assert b[: len(a)] == a
            assert all(u >= small for u in b[len(a):])
