"""Tests for the email provider (Section 4.2)."""

import numpy as np
import pytest

from repro.email_provider.accounts import (
    AccountState,
    NamingPolicy,
    benign_local,
    benign_password,
)
from repro.email_provider.batch import LoginBatch
from repro.email_provider.provider import NO_IP, EmailProvider, LoginResult
from repro.email_provider.telemetry import LoginMethod
from repro.mail.messages import EmailMessage
from repro.net.ipaddr import IPv4Address
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree
from repro.util.timeutil import HOUR

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


IP = IPv4Address.parse("25.1.2.3")
OTHER_IP = IPv4Address.parse("25.9.9.9")


@pytest.fixture
def provider():
    clock = SimClock(1_000_000)
    provider = EmailProvider("prov.example", clock, RngTree(5))
    provider.provision("AlphaUser01", "Alpha User", "Secret1234")
    return provider


class TestProvisioning:
    def test_collision_rejected(self, provider):
        result = provider.provision("alphauser01", "Dup", "x" * 10)
        assert not result.created
        assert "taken" in result.reason

    def test_preexisting_names_collide(self):
        clock = SimClock()
        provider = EmailProvider(
            "p.example", clock, RngTree(1), preexisting_locals=frozenset({"organic"})
        )
        assert not provider.provision("Organic", "X", "pass123456").created

    def test_naming_policy_enforced(self, provider):
        too_short = provider.provision("abc", "X", "p" * 10)
        assert not too_short.created
        bad_chars = provider.provision("has space!", "X", "p" * 10)
        assert not bad_chars.created

    def test_account_count(self, provider):
        assert provider.account_count() == 1

    def test_policy_violation_messages(self):
        policy = NamingPolicy(min_length=6, max_length=10)
        assert "shorter" in policy.violation("abc")
        assert "longer" in policy.violation("a" * 11)
        assert "characters" in policy.violation("9starts")
        assert policy.violation("Fine123") is None


class TestLogin:
    def test_success_recorded_in_telemetry(self, provider):
        result = provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
        assert result is LoginResult.SUCCESS
        events = provider.telemetry.all_events_ground_truth()
        assert len(events) == 1
        assert events[0].ip == IP
        assert events[0].method is LoginMethod.IMAP

    def test_bad_password_not_in_telemetry(self, provider):
        result = provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        assert result is LoginResult.BAD_PASSWORD
        assert provider.telemetry.all_events_ground_truth() == []

    def test_no_such_account(self, provider):
        assert (
            provider.attempt_login("Ghost", "x", IP, LoginMethod.IMAP)
            is LoginResult.NO_SUCH_ACCOUNT
        )

    def test_case_insensitive_local(self, provider):
        assert (
            provider.attempt_login("ALPHAUSER01", "Secret1234", IP, LoginMethod.POP3)
            is LoginResult.SUCCESS
        )

    def test_brute_force_throttling(self, provider):
        for _ in range(EmailProvider.BRUTE_FORCE_LIMIT):
            provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        # Even the correct password is now rejected.
        assert (
            provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
            is LoginResult.THROTTLED
        )

    def test_throttle_expires(self, provider):
        for _ in range(EmailProvider.BRUTE_FORCE_LIMIT):
            provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        provider._clock.advance(EmailProvider.BRUTE_FORCE_LOCKOUT + HOUR)
        assert (
            provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
            is LoginResult.SUCCESS
        )


class TestThrottleWindowEdges:
    def login(self, provider, password):
        return provider.attempt_login("AlphaUser01", password, IP, LoginMethod.IMAP)

    def test_failure_window_resets_strictly_after_boundary(self, provider):
        """Failures age out only *past* BRUTE_FORCE_WINDOW, not at it."""
        limit = EmailProvider.BRUTE_FORCE_LIMIT
        for _ in range(limit - 1):
            self.login(provider, "wrong")
        # Exactly at the window boundary the counter must still stand:
        # one more failure is the limit-th and locks the account.
        provider._clock.advance(EmailProvider.BRUTE_FORCE_WINDOW)
        self.login(provider, "wrong")
        assert self.login(provider, "Secret1234") is LoginResult.THROTTLED

    def test_failure_window_reset_one_past_boundary(self, provider):
        limit = EmailProvider.BRUTE_FORCE_LIMIT
        for _ in range(limit - 1):
            self.login(provider, "wrong")
        provider._clock.advance(EmailProvider.BRUTE_FORCE_WINDOW + 1)
        # The window expired: this failure starts a fresh count of 1.
        self.login(provider, "wrong")
        assert self.login(provider, "Secret1234") is LoginResult.SUCCESS

    def test_lockout_readmits_exactly_at_expiry(self, provider):
        for _ in range(EmailProvider.BRUTE_FORCE_LIMIT):
            self.login(provider, "wrong")
        provider._clock.advance(EmailProvider.BRUTE_FORCE_LOCKOUT - 1)
        assert self.login(provider, "Secret1234") is LoginResult.THROTTLED
        provider._clock.advance(1)
        assert self.login(provider, "Secret1234") is LoginResult.SUCCESS

    def test_success_resets_failure_count(self, provider):
        for _ in range(EmailProvider.BRUTE_FORCE_LIMIT - 1):
            self.login(provider, "wrong")
        assert self.login(provider, "Secret1234") is LoginResult.SUCCESS
        for _ in range(EmailProvider.BRUTE_FORCE_LIMIT - 1):
            self.login(provider, "wrong")
        assert self.login(provider, "Secret1234") is LoginResult.SUCCESS


class TestLoginWindowMachinery:
    def test_cold_logins_do_constant_work(self, provider):
        """Micro-regression for the O(window) rebuild: a cold account's
        logins never prune, promote or materialize per-row state, no
        matter how long its history grows — the per-login work is one
        log append plus one first-IP compare."""
        clock = provider._clock
        for i in range(500):
            provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
            clock.advance(HOUR)
        assert provider._ip_hot == {}
        assert provider.ip_window_promotions == 0
        assert provider.ip_window_pruned == 0
        row = provider._table._index["alphauser01"]
        # One log entry per success, chained; bound stays at 1 for a
        # single-address account.
        assert len(provider._log_times) == 500
        assert provider._ip_distinct[row] == 1

    def test_promotion_materializes_exact_window(self, provider):
        clock = provider._clock
        threshold = EmailProvider.SUSPICION_DISTINCT_IPS
        for i in range(threshold):
            ip = IPv4Address(0x19000000 + i)
            provider.attempt_login("AlphaUser01", "Secret1234", ip, LoginMethod.IMAP)
            clock.advance(60)
        row = provider._table._index["alphauser01"]
        assert provider.ip_window_promotions == 1
        assert row in provider._ip_hot
        snapshot = provider.login_window_snapshot()[row]
        assert snapshot["hot"]
        assert snapshot["distinct"] == threshold
        assert len(snapshot["entries"]) == threshold

    def test_first_ip_bound_overestimates_but_promotion_restores_exact(
        self, provider
    ):
        """Alternating between two addresses inflates the cold bound
        (each away-from-first event bumps it), which at worst promotes
        the row early — and promotion recounts the exact distinct."""
        clock = provider._clock
        threshold = EmailProvider.SUSPICION_DISTINCT_IPS
        # Only away-from-first events bump the bound, so alternating
        # needs ~2x threshold logins before the bound reaches it.
        for i in range(2 * threshold):
            ip = IP if i % 2 == 0 else OTHER_IP
            provider.attempt_login("AlphaUser01", "Secret1234", ip, LoginMethod.IMAP)
            clock.advance(60)
        row = provider._table._index["alphauser01"]
        assert provider.ip_window_promotions == 1
        assert row in provider._ip_hot
        assert provider._ip_distinct[row] == 2  # exact after promotion
        assert provider.account("AlphaUser01").state is AccountState.ACTIVE

    def test_evict_expired_drops_throttle_and_stale_windows(self, provider):
        clock = provider._clock
        provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
        clock.advance(EmailProvider.SUSPICION_WINDOW + HOUR)
        throttle_evicted, window_evicted = provider.evict_expired()
        assert throttle_evicted == 1
        assert window_evicted == 1
        assert provider.throttle_snapshot() == {}
        assert provider.login_window_snapshot() == {}
        row = provider._table._index["alphauser01"]
        assert provider._ip_distinct[row] == 0
        assert provider._ip_first[row] == NO_IP  # back to never seen

    def test_compaction_recounts_surviving_bounds(self, provider):
        clock = provider._clock
        # Two old away-IP logins that will expire, then two fresh ones
        # (one from the first-seen address, one from elsewhere).
        provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
        provider.attempt_login("AlphaUser01", "Secret1234", OTHER_IP, LoginMethod.IMAP)
        clock.advance(EmailProvider.SUSPICION_WINDOW + HOUR)
        provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
        provider.attempt_login("AlphaUser01", "Secret1234", OTHER_IP, LoginMethod.IMAP)
        row = provider._table._index["alphauser01"]
        assert provider._ip_distinct[row] == 3  # 1 first + 2 away events
        _, window_evicted = provider.evict_expired()
        assert window_evicted == 2
        snapshot = provider.login_window_snapshot()[row]
        assert len(snapshot["entries"]) == 2
        # Recount: one credit for the first-seen IP + one away event.
        assert provider._ip_distinct[row] == 2

    def test_hot_row_demoted_once_window_expires(self, provider):
        clock = provider._clock
        threshold = EmailProvider.SUSPICION_DISTINCT_IPS
        for i in range(threshold):
            ip = IPv4Address(0x19000000 + i)
            provider.attempt_login("AlphaUser01", "Secret1234", ip, LoginMethod.IMAP)
            clock.advance(60)
        row = provider._table._index["alphauser01"]
        assert row in provider._ip_hot
        clock.advance(EmailProvider.SUSPICION_WINDOW + HOUR)
        _, window_evicted = provider.evict_expired()
        assert row not in provider._ip_hot
        assert provider._ip_distinct[row] == 0
        assert window_evicted >= 1

    def test_eviction_keeps_an_open_failure_window(self, provider):
        """An entry whose count a success cleared still fixes where the
        next failure's window starts while that window is open."""
        clock = provider._clock
        minute = 60
        for _ in range(5):
            provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        clock.advance(10 * minute)
        provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
        clock.advance(10 * minute)
        assert provider.evict_expired()[0] == 0
        clock.advance(10 * minute)
        for _ in range(9):
            provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        clock.advance(40 * minute)
        # Past the first window: this failure starts a new one.
        provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        assert (
            provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
            is LoginResult.SUCCESS
        )

    def test_eviction_clears_the_first_seen_ip(self, provider):
        """A row compacted down to no entries is never seen again: its
        next login sets the first-seen IP and bumps the bound."""
        provider.SUSPICION_DISTINCT_IPS = 3
        provider.SUSPICION_WINDOW = 60
        ips = [IPv4Address(0x19000000 + i) for i in range(3)]
        provider.attempt_login("AlphaUser01", "Secret1234", ips[0], LoginMethod.IMAP)
        provider._clock.advance(61)
        provider.evict_expired()
        row = provider._table._index["alphauser01"]
        assert provider._ip_first[row] == NO_IP
        for ip in ips:
            provider.attempt_login("AlphaUser01", "Secret1234", ip, LoginMethod.IMAP)
        assert provider.ip_window_promotions == 1

    def test_eviction_never_changes_decisions(self, provider):
        """Evicted state is indistinguishable from never-created state."""
        clock = provider._clock
        provider.attempt_login("AlphaUser01", "wrong", IP, LoginMethod.IMAP)
        clock.advance(EmailProvider.SUSPICION_WINDOW + HOUR)
        provider.evict_expired()
        assert (
            provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
            is LoginResult.SUCCESS
        )


class TestAbuseHandling:
    def test_spam_deactivation(self, provider):
        sent = provider.send_spam_from(
            "AlphaUser01", "Secret1234", EmailProvider.SPAM_DEACTIVATION_THRESHOLD + 10
        )
        assert sent == EmailProvider.SPAM_DEACTIVATION_THRESHOLD
        account = provider.account("AlphaUser01")
        assert account.state is AccountState.DEACTIVATED
        assert (
            provider.attempt_login("AlphaUser01", "Secret1234", IP, LoginMethod.IMAP)
            is LoginResult.ACCOUNT_DEACTIVATED
        )

    def test_spam_requires_password(self, provider):
        assert provider.send_spam_from("AlphaUser01", "wrong", 5) == 0

    def test_change_password(self, provider):
        assert provider.change_password("AlphaUser01", "Secret1234", "NewPass999")
        assert (
            provider.attempt_login("AlphaUser01", "NewPass999", IP, LoginMethod.IMAP)
            is LoginResult.SUCCESS
        )
        assert not provider.change_password("AlphaUser01", "Secret1234", "zzz")

    def test_remove_forwarding(self):
        clock = SimClock()
        provider = EmailProvider("p.example", clock, RngTree(2))
        provider.provision("BravoUser", "B", "pw12345678",
                           forwarding_address="BravoUser@cover.example")
        assert provider.remove_forwarding("BravoUser", "pw12345678")
        assert provider.account("BravoUser").forwarding_address is None

    def test_suspicious_ip_diversity_can_freeze(self):
        clock = SimClock(1_000_000)
        provider = EmailProvider("p.example", clock, RngTree(3))
        provider.provision("CharlieUsr", "C", "pw12345678")
        for i in range(600):
            ip = IPv4Address(0x19000000 + i)
            provider.attempt_login("CharlieUsr", "pw12345678", ip, LoginMethod.IMAP)
            clock.advance(600)
            if provider.account("CharlieUsr").state is not AccountState.ACTIVE:
                break
        assert provider.account("CharlieUsr").state in (
            AccountState.FROZEN, AccountState.RESET_FORCED,
        )


class TestDelivery:
    def make_message(self, recipient):
        return EmailMessage(sender="a@b.test", recipient=recipient,
                            subject="s", body="b", time=0)

    def test_delivery_to_existing_account(self, provider):
        assert provider.deliver(self.make_message("AlphaUser01@prov.example"))
        assert provider.account("AlphaUser01").received_message_count == 1

    def test_delivery_wrong_domain_rejected(self, provider):
        assert not provider.deliver(self.make_message("AlphaUser01@other.example"))

    def test_delivery_to_missing_account_rejected(self, provider):
        assert not provider.deliver(self.make_message("Ghost@prov.example"))

    def test_forwarding_hop_invoked(self):
        clock = SimClock()
        provider = EmailProvider("p.example", clock, RngTree(4))
        provider.provision("DeltaUser1", "D", "pw12345678",
                           forwarding_address="DeltaUser1@cover.example")
        relayed = []
        provider.set_forwarding_hop(relayed.append)
        provider.deliver(self.make_message("DeltaUser1@p.example"))
        assert len(relayed) == 1
        assert relayed[0].recipient == "DeltaUser1@cover.example"

    def test_deactivated_account_bounces(self, provider):
        provider.send_spam_from("AlphaUser01", "Secret1234", 100)
        assert not provider.deliver(self.make_message("AlphaUser01@prov.example"))

    def test_delivery_to_a_benign_row(self, provider):
        first = provider.register_benign_accounts(10)
        assert provider.deliver(self.make_message("BG00000004@prov.example"))
        assert provider.account(benign_local(4)).received_message_count == 1
        assert provider._table.received_counts[first + 4] == 1
        assert not provider.deliver(self.make_message("bg00000010@prov.example"))

    def test_background_delivery_matches_the_loop(self, provider):
        first = provider.register_benign_accounts(20)
        for user in (3, 7):
            provider.account(benign_local(user)).state = AccountState.DEACTIVATED
        provider.deliver(self.make_message("bg00000001@prov.example"))
        rows = [first + u for u in (1, 1, 3, 5, 7, 7, 19, 1, 0)]
        table = provider._table
        counts = list(table.received_counts)
        delivered = 0
        for row in rows:  # the per-message loop
            if table.states[row] != 2:
                counts[row] += 1
                delivered += 1
        assert provider.deliver_background(np.array(rows, dtype=np.int64)) == delivered
        assert list(table.received_counts) == counts
        assert counts[first + 1] == 4  # drawn three times, plus one message
        assert counts[first + 7] == 0
        assert provider.deliver_background(np.empty(0, dtype=np.int64)) == 0


class TestBenignBlock:
    """The benign population is one row block named by arithmetic."""

    def test_block_rows_derive_locals_and_passwords(self, provider):
        first = provider.register_benign_accounts(50)
        assert first == 1
        assert provider.total_account_count() == 51
        assert provider.account_count() == 1  # monitored rows only
        account = provider.account("bg00000042")
        assert account.local_part == "bg00000042"
        assert account.password == benign_password(42)
        assert account.display_name == ""
        assert account.forwarding_address is None
        assert not account.monitored
        assert provider.attempt_login(
            "BG00000042", benign_password(42), IP, LoginMethod.IMAP
        ) is LoginResult.SUCCESS
        assert provider.attempt_login(
            "bg00000042", benign_password(41), IP, LoginMethod.IMAP
        ) is LoginResult.BAD_PASSWORD
        (event,) = provider.telemetry.all_events_ground_truth()
        assert event.local_part == "bg00000042"
        assert provider.collect_login_dump() == []  # outside the scope

    def test_password_changes_land_in_the_override_map(self, provider):
        first = provider.register_benign_accounts(5)
        assert provider.change_password("bg00000002", benign_password(2), "New!pw99")
        assert provider._table.overrides == {first + 2: "New!pw99"}
        assert provider.account("bg00000002").password == "New!pw99"
        assert provider.attempt_login(
            "bg00000002", benign_password(2), IP, LoginMethod.IMAP
        ) is LoginResult.BAD_PASSWORD
        assert provider.attempt_login(
            "bg00000002", "New!pw99", IP, LoginMethod.IMAP
        ) is LoginResult.SUCCESS
        assert provider.remove_forwarding("bg00000002", "New!pw99")
        with pytest.raises(ValueError):
            provider.account("bg00000002").forwarding_address = "x@y.test"

    def test_registration_rejects_a_second_block_or_a_held_name(self):
        provider = EmailProvider("b.example", SimClock(0), RngTree(2))
        assert provider.provision("bg00000030", "N", "pw12345678").created
        assert provider.provision("bg0000003", "N", "pw12345678").created
        first = provider.register_benign_accounts(30)
        assert first == 2
        assert provider.account("bg00000030").password == "pw12345678"
        assert provider.account("bg0000003").password == "pw12345678"
        with pytest.raises(ValueError, match="already registered"):
            provider.register_benign_accounts(5)

        held = EmailProvider("b.example", SimClock(0), RngTree(2))
        assert held.provision("BG00000029", "N", "pw12345678").created
        with pytest.raises(ValueError, match="namespace"):
            held.register_benign_accounts(30)
        assert held.account("bg00000029").password == "pw12345678"
        assert held.total_account_count() == 1
        # 8 digits name at most 10**8 users.
        with pytest.raises(ValueError, match="block size"):
            held.register_benign_accounts(10**8 + 1)
        with pytest.raises(ValueError, match="block size"):
            held.register_benign_accounts(-1)


if HAVE_HYPOTHESIS:

    #: Benign block size in the namespace property below.
    _BLOCK = 12
    #: Keys on every edge of the namespace: in the block, upper-case,
    #: 7 and 9 digits, the first index past the block, a fullwidth
    #: digit (``int()`` accepts it; the namespace is ASCII only).
    _EDGE_KEYS = [
        "bg00000005", "BG00000005", "bG00000011", "bg00000000",
        "bg0000005", "bg000000050", f"bg{_BLOCK:08d}", "bg0000000\uff15",
        "bg-0000001", "xbg0000001", "bg00000005x",
    ]
    _NAMES = st.one_of(
        st.sampled_from(_EDGE_KEYS),
        st.builds(
            lambda digits: "bg" + digits,
            st.text(alphabet="0123456789", min_size=7, max_size=9),
        ),
        st.from_regex(r"[A-Za-z][a-z0-9.]{5,9}", fullmatch=True),
    )

    class TestBenignNamespaceProperty:
        """``row_of``, ``account_exists`` and ``provision`` against a
        dict oracle, with named rows on both sides of the block."""

        @settings(max_examples=80, deadline=None)
        @given(before=st.lists(_NAMES, max_size=6),
               after=st.lists(_NAMES, max_size=6),
               probes=st.lists(_NAMES, max_size=12))
        def test_matches_a_dict_oracle(self, before, after, probes):
            provider = EmailProvider("ns.example", SimClock(0), RngTree(3))
            policy = NamingPolicy()
            oracle: dict[str, int] = {}

            def provision(name):
                expected = policy.violation(name) is None and name.lower() not in oracle
                assert provider.provision(name, "N", "pw12345678").created == expected
                if expected:
                    oracle[name.lower()] = provider.total_account_count() - 1

            for name in before:
                provision(name)
            held = [key for key in oracle if key in
                    {benign_local(i) for i in range(_BLOCK)}]
            if held:
                with pytest.raises(ValueError):
                    provider.register_benign_accounts(_BLOCK)
                return
            first = provider.register_benign_accounts(_BLOCK)
            for i in range(_BLOCK):
                oracle[benign_local(i)] = first + i
            for name in after:
                provision(name)
            table = provider._table
            for key in probes + _EDGE_KEYS + list(oracle):
                assert table.row_of(key) == oracle.get(key.lower()), key
                assert provider.account_exists(key) == (key.lower() in oracle), key
            for key, row in oracle.items():
                assert table.local_of(row).lower() == key

    #: (action, row, source-IP index, clock step) with action 0-4 a
    #: success, 5 a failure and 6 an eviction.
    _OPS = st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(0, 3),
            st.integers(0, 4),
            st.integers(0, 12),
        ),
        min_size=20,
        max_size=150,
    )

    class TestEvictionInvariance:
        """One op stream run twice, once with ``evict_expired()`` at
        random instants: result codes, telemetry and the provider RNG's
        next draw must agree, because evicted state is never-created
        state.

        Two op alphabets: failure-heavy streams on one row reach
        success-cleared throttle entries and their open windows;
        success-only streams over two rows and three source IPs reach
        compactions, promotions and demotions.
        """

        def make_provider(self):
            provider = EmailProvider("inv.example", SimClock(1_000_000), RngTree(7))
            provider.SUSPICION_DISTINCT_IPS = 3
            provider.SUSPICION_WINDOW = 60
            provider.BRUTE_FORCE_LIMIT = 2
            provider.BRUTE_FORCE_WINDOW = 30
            provider.BRUTE_FORCE_LOCKOUT = 50
            provider.FREEZE_PROBABILITY = 0.2
            for i in range(2):
                assert provider.provision(f"inv.user{i:02d}", "P", f"Pw!{i:02d}xyz").created
            return provider

        #: Ops are (success, row, source-IP index, clock step, evict
        #: first); the evicting run evicts before three ops in four.
        _MOSTLY = st.sampled_from((True, True, True, False))
        _THROTTLE_OPS = st.lists(
            st.tuples(
                st.sampled_from((True, False, False)),
                st.just(0),
                st.just(0),
                st.sampled_from((0, 1, 10, 20, 31, 51)),
                _MOSTLY,
            ),
            min_size=20,
            max_size=40,
        )
        _WINDOW_OPS = st.lists(
            st.tuples(
                st.just(True),
                st.sampled_from((0, 0, 0, 1)),
                st.integers(0, 2),
                st.sampled_from((0, 1, 10, 31, 61)),
                _MOSTLY,
            ),
            min_size=20,
            max_size=50,
        )

        def run_twice(self, ops):
            runs = []
            for evicting in (False, True):
                provider = self.make_provider()
                codes = []
                for success, row, ip, step, evict in ops:
                    provider._clock.advance(step)
                    if evicting and evict:
                        provider.evict_expired()
                    password = f"Pw!{row:02d}xyz" if success else "wrong"
                    codes.append(provider.attempt_login(
                        f"inv.user{row:02d}", password,
                        IPv4Address(0x19000000 + ip), LoginMethod.IMAP,
                    ))
                runs.append((codes, provider.telemetry.columns(), provider._rng.random()))
            assert runs[0] == runs[1]

        @settings(max_examples=100, deadline=None)
        @given(ops=_THROTTLE_OPS)
        def test_eviction_never_moves_a_throttle_decision(self, ops):
            self.run_twice(ops)

        @settings(max_examples=100, deadline=None)
        @given(ops=_WINDOW_OPS)
        def test_eviction_never_moves_a_review(self, ops):
            self.run_twice(ops)

    class TestCompactionProperty:
        """Eviction against the spec, from the pre-eviction state.

        Tiny thresholds and windows put promotions to hot, demotions
        back to cold, lockouts and log compactions within reach of a
        few dozen events on four rows.
        """

        ROWS = 40

        def make_provider(self):
            provider = EmailProvider("prop.example", SimClock(1_000_000), RngTree(7))
            provider.SUSPICION_DISTINCT_IPS = 3
            provider.SUSPICION_WINDOW = 60
            provider.BRUTE_FORCE_LIMIT = 3
            provider.BRUTE_FORCE_WINDOW = 30
            provider.BRUTE_FORCE_LOCKOUT = 50
            for i in range(self.ROWS):
                assert provider.provision(f"prop.user{i:02d}", "P", f"Pw!{i:02d}xyz").created
            return provider

        @staticmethod
        def expected_eviction(provider, now):
            """(throttle, windows, distinct, first IPs, log length, counts)
            the spec gives.

            A throttle entry goes once its lockout has passed and its
            window has expired.  A row left with no IP entry returns to
            never seen (zero bound, no first-seen IP); a cold row with
            survivors keeps its first-seen IP and one credit for it,
            plus one per surviving entry from elsewhere.
            """
            cutoff = now - provider.SUSPICION_WINDOW
            window = provider.BRUTE_FORCE_WINDOW
            before = provider.throttle_snapshot()
            throttle = {
                row: entry
                for row, entry in before.items()
                if not (entry[2] <= now and now - entry[1] > window)
            }
            compacting = len(provider._log_times) and provider._log_times[0] < cutoff
            windows = {}
            distinct = list(provider._ip_distinct)
            firsts = list(provider._ip_first)
            window_evicted = 0
            for row, snap in provider.login_window_snapshot().items():
                if snap["hot"]:
                    if snap["entries"][-1][0] < cutoff:  # fully expired: demoted
                        distinct[row] = 0
                        firsts[row] = NO_IP
                        window_evicted += 1
                    else:
                        windows[row] = snap
                    continue
                if not compacting:
                    windows[row] = snap
                    continue
                kept = [(t, ip) for t, ip in snap["entries"] if t >= cutoff]
                window_evicted += len(snap["entries"]) - len(kept)
                if kept:
                    distinct[row] = 1 + sum(ip != firsts[row] for _, ip in kept)
                    windows[row] = {"hot": False, "entries": kept, "distinct": distinct[row]}
                else:
                    distinct[row] = 0
                    firsts[row] = NO_IP
            counts = (len(before) - len(throttle), window_evicted)
            # Compaction also reclaims the tombstones promotion left.
            log_length = len(provider._log_times)
            if compacting:
                log_length = sum(len(w["entries"]) for w in windows.values() if not w["hot"])
            return throttle, windows, distinct, firsts, log_length, counts

        @settings(max_examples=60, deadline=None)
        @given(ops=_OPS)
        def test_eviction_matches_the_spec(self, ops):
            provider = self.make_provider()
            clock = provider._clock
            for action, row, ip, step in ops:
                clock.advance(step)
                local = f"prop.user{row:02d}"
                source = IPv4Address(0x19000000 + ip)
                if action < 5:
                    provider.attempt_login(local, f"Pw!{row:02d}xyz", source, LoginMethod.IMAP)
                elif action == 5:
                    provider.attempt_login(local, "wrong", source, LoginMethod.IMAP)
                else:
                    now = clock.now()
                    throttle, windows, distinct, firsts, log_length, counts = (
                        self.expected_eviction(provider, now)
                    )
                    assert provider.evict_expired() == counts
                    assert provider.throttle_snapshot() == throttle
                    assert provider.login_window_snapshot() == windows
                    assert list(provider._ip_distinct) == distinct
                    assert list(provider._ip_first) == firsts
                    assert len(provider._log_times) == log_length
            # A vectorized batch appends to every log column: no numpy
            # view left over from compaction may pin their buffers.
            batch = LoginBatch.from_attempts(
                [
                    (f"prop.user{i:02d}", f"Pw!{i:02d}xyz", IPv4Address(0x1A000000 + i),
                     LoginMethod.POP3)
                    for i in range(self.ROWS)
                ]
            )
            before = len(provider._log_times)
            receipt = provider.attempt_logins(batch)
            assert provider.batch_engine_stats()["vector_committed"] > 0
            assert len(provider._log_times) > before
            assert receipt.successes > 0
