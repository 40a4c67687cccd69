"""Property-based tests over the site generator and population."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rngtree import RngTree
from repro.web.generator import SiteGenerator, bot_check_prob, eligibility_probs
from repro.web.spec import LinkPlacement, RegistrationStyle


class TestGeneratorProperties:
    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=100))
    @settings(max_examples=80, deadline=None)
    def test_spec_deterministic_for_any_rank_and_seed(self, rank, seed):
        a = SiteGenerator(RngTree(seed)).spec_at_rank(rank)
        b = SiteGenerator(RngTree(seed)).spec_at_rank(rank)
        assert a.host == b.host
        assert a.language == b.language
        assert a.registration_style == b.registration_style
        assert a.password_storage == b.password_storage
        assert a.anchor_text == b.anchor_text

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=100, deadline=None)
    def test_eligibility_probs_are_a_subdistribution(self, rank):
        probs = eligibility_probs(rank)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert sum(probs) < 1.0  # the residual is the "rest" bucket

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=100, deadline=None)
    def test_bot_check_prob_bounded(self, rank):
        assert 0.10 <= bot_check_prob(rank) <= 0.40

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=60, deadline=None)
    def test_spec_internal_consistency(self, rank):
        spec = SiteGenerator(RngTree(77)).spec_at_rank(rank)
        # Hidden links imply neutral registration paths.
        if spec.link_placement in (LinkPlacement.IMAGE_ONLY, LinkPlacement.UNLINKED):
            assert "signup" not in spec.registration_path
            assert "regist" not in spec.registration_path
        # Multistage metadata only appears on multistage sites.
        if spec.registration_style is not RegistrationStyle.MULTISTAGE:
            assert not spec.multistage_credentials_first
            assert not spec.multistage_creates_at_step1
        # Step-1 creation requires credentials-first ordering.
        if spec.multistage_creates_at_step1:
            assert spec.multistage_credentials_first
        # Non-English sites never carry English anchor texts.
        if not spec.is_english:
            assert spec.anchor_text not in (
                "Sign up", "Register", "Create an account", "Join now",
            )
        # The shadow-ban probability is a probability.
        assert 0.0 <= spec.shadow_ban_rate <= 1.0
