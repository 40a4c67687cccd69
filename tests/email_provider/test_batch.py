"""Batch login engine: decision-for-decision equivalence with the
provider's per-event path and with the engine's scalar oracle, plus
checks that the vectorized path actually runs."""

import numpy as np
import pytest

from repro.email_provider import batch as batch_mod
from repro.email_provider.accounts import benign_local, benign_password
from repro.email_provider.batch import LoginBatch
from repro.email_provider.provider import (
    NO_ENTRY,
    EmailProvider,
    LoginResult,
    RESULT_CODES,
)
from repro.email_provider.telemetry import LoginMethod
from repro.net.ipaddr import IPv4Address
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

START = 1_000_000
SEED = 11


def make_provider():
    provider = EmailProvider("batch.example", SimClock(START), RngTree(SEED))
    for i in range(6):
        assert provider.provision(
            f"monitored.{i}", f"Mon {i}", f"MonPw!{i:04d}"
        ).created
    assert provider.register_benign_accounts(40) == 6
    return provider


#: Row of benign user ``i`` in :func:`make_provider`'s table.
FIRST = 6
WRONG = "not-the-password"


def own_or_wrong(row, own):
    """The claim of a row batch whose non-own events mistype."""
    return benign_password(row - FIRST) if own else WRONG


def row_batch(users, own, ips, methods=None, claim=own_or_wrong):
    n = len(users)
    return LoginBatch(
        np.asarray(users, dtype=np.int64) + FIRST,
        np.asarray(own, dtype=np.bool_),
        np.asarray(ips, dtype=np.uint64),
        np.asarray(methods if methods is not None else [i % 5 for i in range(n)],
                   dtype=np.uint8),
        claim,
    )


def world_state(provider):
    """Everything the equivalence contract compares."""
    return {
        "telemetry": provider.telemetry.columns(),
        "states": bytes(provider._table.states),
        "throttle": provider.throttle_snapshot(),
        "windows": provider.login_window_snapshot(),
        "first_ips": bytes(provider._ip_first),
        "distinct": bytes(provider._ip_distinct),
    }


def attempts_from(spec):
    """Turn (key, password, ip_int, method_idx) tuples into attempts."""
    methods = tuple(LoginMethod)
    return [
        (key, password, IPv4Address(ip), methods[m % len(methods)])
        for key, password, ip, m in spec
    ]


def run_scalar(provider, attempts):
    return [
        RESULT_CODES[provider.attempt_login(*attempt)] for attempt in attempts
    ]


def run_batched(provider, attempts):
    receipt = provider.attempt_logins(LoginBatch.from_attempts(attempts))
    return list(receipt.results)


MIXED_SPEC = (
    # clean successes on distinct rows
    [(f"bg{i:08d}", benign_password(i), 0x30000000 + i, i) for i in range(25)]
    # monitored successes
    + [(f"monitored.{i}", f"MonPw!{i:04d}", 0x40000000 + i, i) for i in range(6)]
    # failures, repeats on one row, an unknown account
    + [
        ("bg00000003", "wrong-guess", 0x50000001, 0),
        ("bg00000003", benign_password(3), 0x50000002, 1),
        ("ghost.user", "whatever", 0x50000003, 2),
        ("bg00000025", benign_password(25), 0x50000004, 3),
    ]
)

#: A window every key of which resolves, long enough to vectorize:
#: clean successes (monitored ones too), one clean failure, and one row
#: hit twice (routed rare).
VECTOR_SPEC = (
    [(f"bg{i:08d}", benign_password(i), 0x30000000 + i, i) for i in range(36)]
    + [(f"monitored.{i}", f"MonPw!{i:04d}", 0x40000000 + i, i) for i in range(6)]
    + [
        ("bg00000037", "wrong-guess", 0x50000001, 0),
        ("bg00000003", "wrong-guess", 0x50000002, 1),
    ]
)


class TestEquivalence:
    def test_batched_matches_scalar_on_mixed_batch(self):
        attempts = attempts_from(MIXED_SPEC)
        scalar = make_provider()
        scalar_codes = run_scalar(scalar, attempts)
        batched = make_provider()
        batched_codes = run_batched(batched, attempts)
        assert batched_codes == scalar_codes
        assert world_state(batched) == world_state(scalar)

    def test_vectorized_matches_scalar_oracle(self, scalar_oracle):
        attempts = attempts_from(VECTOR_SPEC)
        assert len(attempts) >= batch_mod.VECTOR_MIN_EVENTS
        vec = make_provider()
        vec_codes = run_batched(vec, attempts)
        stats = vec.batch_engine_stats()
        assert stats["vector_committed"] > 0
        assert stats["vector_failed"] == 1
        assert stats["scalar_replayed"] == 2
        assert stats["fallback_events"] == 0
        with scalar_oracle():
            oracle = make_provider()
            oracle_codes = run_batched(oracle, attempts)
        assert oracle.batch_engine_stats()["fallback_events"] == len(attempts)
        assert vec_codes == oracle_codes
        assert world_state(vec) == world_state(oracle)

    def test_unknown_account_takes_serial_path_with_correct_codes(self):
        attempts = attempts_from(MIXED_SPEC)
        receipt = make_provider().attempt_logins(LoginBatch.from_attempts(attempts))
        assert receipt.result(len(attempts) - 2) is LoginResult.NO_SUCH_ACCOUNT
        tally = receipt.tally()
        assert tally[LoginResult.NO_SUCH_ACCOUNT] == 1
        assert tally[LoginResult.BAD_PASSWORD] == 1
        assert tally[LoginResult.SUCCESS] == len(attempts) - 2

    def test_producer_rows_match_key_resolution(self):
        """A row batch (rows plus an own mask) decides exactly as the
        keyed batch naming the same accounts with password strings."""
        users = list(range(35)) + [3, 7]
        own = [i % 4 != 1 for i in range(len(users))]
        ips = [0x61000000 + i for i in range(len(users))]
        keyed = LoginBatch.keyed(
            [benign_local(u) for u in users],
            [own_or_wrong(u + FIRST, o) for u, o in zip(users, own)],
            ips,
            [i % 5 for i in range(len(users))],
        )
        by_keys = make_provider()
        receipt_keys = by_keys.attempt_logins(keyed)
        by_rows = make_provider()
        receipt_rows = by_rows.attempt_logins(row_batch(users, own, ips))
        assert bytes(receipt_rows.results) == bytes(receipt_keys.results)
        assert world_state(by_rows) == world_state(by_keys)
        assert by_rows.batch_engine_stats()["vector_committed"] > 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            LoginBatch.keyed(["a"], ["p", "q"], [1], [0])
        with pytest.raises(ValueError):
            LoginBatch(
                np.array([1, 2]), np.array([True]), np.array([1], np.uint64),
                np.array([0], np.uint8), own_or_wrong,
            )

    def test_row_batches_must_address_the_benign_block(self):
        provider = make_provider()
        with pytest.raises(ValueError, match="benign block"):
            provider.attempt_logins(row_batch([-1], [True], [0x61000000]))
        with pytest.raises(ValueError, match="benign block"):
            provider.attempt_logins(row_batch([40], [True], [0x61000000]))


class TestOverrides:
    """Benign rows whose password was reset: the mask alone no longer
    decides, the override does — identically on every path."""

    #: Users 5 and 9 appear twice (routed rare), 12 and 20 once (clean).
    USERS = list(range(36)) + [5, 9]
    RESETS = {5: "Reset!0005", 9: "Reset!0009", 12: "Reset!0012",
              20: benign_password(20)}

    @staticmethod
    def claim(row, own):
        if own:
            return benign_password(row - FIRST)
        return "Reset!0009" if row - FIRST == 9 else WRONG

    def reset_provider(self):
        provider = make_provider()
        for user, password in self.RESETS.items():
            assert provider.support_reset(benign_local(user), password)
        assert provider.account(benign_local(9)).password == "Reset!0009"
        assert provider._table.overrides == {
            FIRST + user: password for user, password in self.RESETS.items()
        }
        return provider

    def test_vector_oracle_and_per_event_paths_agree(self, scalar_oracle):
        own = [i not in (9, 36) for i in range(len(self.USERS))]
        ips = [0x62000000 + i for i in range(len(self.USERS))]
        batch = row_batch(self.USERS, own, ips, claim=self.claim)

        vec = self.reset_provider()
        vec_codes = list(vec.attempt_logins(batch).results)
        assert vec.batch_engine_stats()["vector_committed"] > 0
        with scalar_oracle():
            oracle = self.reset_provider()
            oracle_codes = list(oracle.attempt_logins(batch).results)
        assert oracle.batch_engine_stats()["fallback_events"] == len(batch)

        scalar = self.reset_provider()
        methods = tuple(LoginMethod)
        scalar_codes = [
            RESULT_CODES[scalar.attempt_login(
                benign_local(int(batch.rows[i]) - FIRST),
                batch.password(i),
                IPv4Address(int(batch.ips[i])),
                methods[int(batch.methods[i])],
            )]
            for i in range(len(batch))
        ]
        assert vec_codes == oracle_codes == scalar_codes
        assert world_state(vec) == world_state(oracle) == world_state(scalar)
        # Own claims fail on rows reset to something else and succeed
        # on a row reset to its derived password; user 9's guess is
        # its new password.
        assert vec_codes[5] == vec_codes[12] == vec_codes[36] == 1
        assert vec_codes[37] == 1
        assert vec_codes[9] == vec_codes[20] == 0


class TestCleanFailurePath:
    def test_bulk_failures_commit_vectorized_and_match_scalar(self):
        spec = [
            (f"bg{i:08d}", "stuffed-wrong-guess", 0x51000000 + i, i)
            for i in range(36)
        ]
        attempts = attempts_from(spec)
        scalar = make_provider()
        scalar_codes = run_scalar(scalar, attempts)
        batched = make_provider()
        batched_codes = run_batched(batched, attempts)
        assert batched_codes == scalar_codes
        assert set(batched_codes) == {RESULT_CODES[LoginResult.BAD_PASSWORD]}
        assert world_state(batched) == world_state(scalar)
        stats = batched.batch_engine_stats()
        assert stats["vector_failed"] == 36
        assert stats["scalar_replayed"] == 0

    def test_throttled_rows_fail_as_columns(self):
        """A row holding a throttle entry takes the vector arithmetic:
        the next window's failure continues the row's window."""
        spec = [
            (f"bg{i:08d}", "stuffed-wrong-guess", 0x51000000 + i, i)
            for i in range(36)
        ]
        provider = make_provider()
        scalar = make_provider()
        for _ in range(2):
            attempts = attempts_from(spec)
            assert run_batched(provider, attempts) == run_scalar(scalar, attempts)
        stats = provider.batch_engine_stats()
        assert stats["vector_failed"] == 72
        assert stats["scalar_replayed"] == 0
        assert {entry[0] for entry in provider.throttle_snapshot().values()} == {2}
        assert world_state(provider) == world_state(scalar)

    def test_eviction_resets_rows_to_no_entry(self):
        spec = [
            (f"bg{i:08d}", "stuffed-wrong-guess", 0x51000000 + i, i)
            for i in range(36)
        ]
        provider = make_provider()
        run_batched(provider, attempts_from(spec))
        assert len(provider.throttle_snapshot()) == 36
        provider._clock.advance(8 * 3600)  # past window + lockout
        assert provider.evict_expired()[0] == 36
        assert provider.throttle_snapshot() == {}
        assert set(provider._fail_count) == {NO_ENTRY}
        assert not any(provider._window_start) and not any(provider._locked_until)
        ok_spec = [
            (f"bg{i:08d}", benign_password(i), 0x52000000 + i, i)
            for i in range(36)
        ]
        codes = run_batched(provider, attempts_from(ok_spec))
        assert set(codes) == {RESULT_CODES[LoginResult.SUCCESS]}
        assert provider.batch_engine_stats()["scalar_replayed"] == 0


class TestVectorThrottleBoundaries:
    """The vector throttle commits at their edges, window by window
    against the scalar oracle: every window names each of the 40
    benign rows once, so the vectorized run replays nothing."""

    LIMIT = EmailProvider.BRUTE_FORCE_LIMIT
    WINDOW = EmailProvider.BRUTE_FORCE_WINDOW
    LOCKOUT = EmailProvider.BRUTE_FORCE_LOCKOUT

    @staticmethod
    def window(own):
        """One row batch over all 40 benign rows (own: bool or per-user)."""
        users = list(range(40))
        own = [own] * 40 if isinstance(own, bool) else own
        return row_batch(users, own, [0x53000000 + u for u in users])

    def run(self, scalar_oracle, steps, setup=None):
        """Run ``(advance, own)`` windows vectorized and through the
        oracle; returns the vectorized run's per-window codes."""

        def world(oracle):
            provider = make_provider()
            if setup is not None:
                setup(provider)
            codes = []
            for advance, own in steps:
                provider._clock.advance(advance)
                codes.append(list(provider.attempt_logins(self.window(own)).results))
            return provider, codes

        vec, vec_codes = world(False)
        with scalar_oracle():
            oracle, oracle_codes = world(True)
        assert vec_codes == oracle_codes
        assert world_state(vec) == world_state(oracle)
        stats = vec.batch_engine_stats()
        assert stats["scalar_replayed"] == stats["fallback_events"] == 0
        assert oracle.batch_engine_stats()["fallback_events"] == 40 * len(steps)
        return vec, vec_codes

    def test_limit_th_failure_in_the_window_locks(self, scalar_oracle):
        steps = [(60, False)] * self.LIMIT + [(60, True)]
        vec, codes = self.run(scalar_oracle, steps)
        assert codes[self.LIMIT - 2] == codes[self.LIMIT - 1] == [1] * 40
        assert codes[-1] == [3] * 40  # THROTTLED
        assert {entry[0] for entry in vec.throttle_snapshot().values()} == {0}

    @pytest.mark.parametrize("edge, locked", [(0, True), (1, False)])
    def test_window_expires_strictly_past_its_length(
        self, scalar_oracle, edge, locked
    ):
        """The limit-th failure at exactly ``window_start + WINDOW``
        still counts in the window; one second later it starts anew."""
        steps = (
            [(0, False)] * (self.LIMIT - 1)
            + [(self.WINDOW + edge, False), (0, True)]
        )
        _vec, codes = self.run(scalar_oracle, steps)
        assert codes[-1] == ([3] * 40 if locked else [0] * 40)

    def test_login_at_exactly_locked_until_is_unlocked(self, scalar_oracle):
        steps = (
            [(0, False)] * self.LIMIT
            + [(self.LOCKOUT - 1, True), (1, True)]
        )
        _vec, codes = self.run(scalar_oracle, steps)
        assert codes[-2] == [3] * 40
        assert codes[-1] == [0] * 40

    def test_frozen_row_inside_a_vector_window(self, scalar_oracle):
        def freeze(provider):
            # User 5 holds a throttle entry when it is frozen.
            provider.attempt_login(
                benign_local(5), WRONG, IPv4Address(0x53000005), LoginMethod.IMAP
            )
            for user in (3, 4, 5):
                assert provider.support_freeze(benign_local(user))

        own = [user != 4 for user in range(40)]
        steps = [(60, False), (60, own)]
        vec, codes = self.run(scalar_oracle, steps, setup=freeze)
        frozen = RESULT_CODES[LoginResult.ACCOUNT_FROZEN]
        for window in codes:
            assert window[3] == window[4] == window[5] == frozen
        # Frozen rows never reach the failure count.
        throttle = vec.throttle_snapshot()
        assert FIRST + 3 not in throttle
        assert throttle[FIRST + 5] == (1, START, 0)

    def test_limit_of_one_locks_on_every_failure(self, scalar_oracle):
        def limit_one(provider):
            provider.BRUTE_FORCE_LIMIT = 1

        own = [user % 2 == 0 for user in range(40)]
        steps = [(60, own), (60, True), (self.LOCKOUT, True)]
        _vec, codes = self.run(scalar_oracle, steps, setup=limit_one)
        assert codes[0] == [0 if user % 2 == 0 else 1 for user in range(40)]
        assert codes[1] == [0 if user % 2 == 0 else 3 for user in range(40)]
        assert codes[2] == [0] * 40


class TestTelemetrySift:
    def test_dump_contains_only_monitored_accounts(self):
        provider = make_provider()
        run_batched(provider, attempts_from(MIXED_SPEC))
        dump = provider.collect_login_dump()
        assert dump, "monitored successes must surface in the dump"
        assert all(e.local_part.startswith("monitored.") for e in dump)

    def test_ground_truth_sees_every_success(self):
        provider = make_provider()
        codes = run_batched(provider, attempts_from(MIXED_SPEC))
        events = provider.telemetry.all_events_ground_truth()
        assert len(events) == codes.count(0)


class TestHotRowEquivalence:
    def test_promotion_and_review_agree_between_engines(self):
        """Drive one row across the suspicion threshold both ways."""
        threshold = EmailProvider.SUSPICION_DISTINCT_IPS
        spec = [
            ("bg00000000", benign_password(0), 0x21000000 + i, i)
            for i in range(threshold + 20)
        ]
        attempts = attempts_from(spec)
        scalar = make_provider()
        scalar_codes = run_scalar(scalar, attempts)
        batched = make_provider()
        # Repeated rows route through the shared decision core, so the
        # promotion, the RNG draws and any freeze land identically.
        batched_codes = run_batched(batched, attempts)
        assert batched_codes == scalar_codes
        assert world_state(batched) == world_state(scalar)
        assert batched.ip_window_promotions == scalar.ip_window_promotions == 1

    def test_pruned_hot_row_in_a_vector_window_replays(self, scalar_oracle):
        """A hot row whose exact count fell below the threshold still
        keeps its ring: its success replays through the decision core
        instead of landing in the shared log."""
        threshold = EmailProvider.SUSPICION_DISTINCT_IPS

        def world():
            provider = make_provider()
            for i in range(threshold):
                provider.attempt_login(
                    benign_local(0), benign_password(0),
                    IPv4Address(0x21000000 + i), LoginMethod.IMAP,
                )
            provider._clock.advance(EmailProvider.SUSPICION_WINDOW + 1)
            provider.attempt_login(
                benign_local(0), benign_password(0),
                IPv4Address(0x21000000), LoginMethod.IMAP,
            )
            assert FIRST in provider._ip_hot and provider._ip_distinct[FIRST] == 1
            users = list(range(36))
            batch = row_batch(users, [True] * 36, [0x24000000 + u for u in users])
            return provider, list(provider.attempt_logins(batch).results)

        vec, vec_codes = world()
        assert vec.batch_engine_stats()["scalar_replayed"] == 1
        with scalar_oracle():
            oracle, oracle_codes = world()
        assert vec_codes == oracle_codes == [0] * 36
        assert world_state(vec) == world_state(oracle)
        assert vec.login_window_snapshot()[FIRST]["hot"]


if HAVE_HYPOTHESIS:

    #: Provider constants small enough that a few windows reach locks,
    #: expired windows, promotions to hot and RNG-drawn freezes.
    SMALL = {
        "BRUTE_FORCE_LIMIT": 2,
        "BRUTE_FORCE_WINDOW": 30,
        "BRUTE_FORCE_LOCKOUT": 50,
        "SUSPICION_DISTINCT_IPS": 3,
        "SUSPICION_WINDOW": 100,
        "FREEZE_PROBABILITY": 0.3,
        "FORCED_RESET_PROBABILITY": 0.1,
    }
    #: Clock steps before a window or an eviction: inside the
    #: brute-force window, at and past its length, at and past the
    #: lockout's, past the suspicion window.
    STEPS = (0, 1, 29, 30, 31, 49, 50, 51, 120)

    def small_provider():
        provider = make_provider()
        for name, value in SMALL.items():
            setattr(provider, name, value)
        return provider

    #: (benign user or 40+i for monitored.i, good password, source IP);
    #: users lean on a few rows so their state carries across windows.
    _EVENTS = st.lists(
        st.tuples(
            st.one_of(st.integers(0, 3), st.integers(0, 45)),
            st.booleans(),
            st.integers(0, 5),
        ),
        min_size=1,
        max_size=10,
    )
    #: Windows: (clock step, row batch if possible, events, then one of
    #: nothing, a freeze, a reset or an eviction).
    _WINDOWS = st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.booleans(),
            _EVENTS,
            st.one_of(
                st.none(),
                st.tuples(st.just("freeze"), st.integers(0, 45)),
                st.tuples(st.just("reset"), st.integers(0, 45), st.booleans()),
                st.tuples(st.just("evict"), st.sampled_from(STEPS)),
            ),
        ),
        min_size=2,
        max_size=8,
    )

    def local_of(user):
        return benign_local(user) if user < 40 else f"monitored.{user - 40}"

    def window_batches(scalar, events, as_rows):
        """One window as the scalar attempts and the equivalent batch.

        Good events claim the account's current password; a row batch
        (benign users only) claims the derived one, which a reset row
        no longer matches.
        """
        methods = tuple(LoginMethod)
        attempts = []
        for user, good, ip in events:
            local = local_of(user)
            if as_rows:
                password = own_or_wrong(user + FIRST, good)
            else:
                password = scalar.account(local).password if good else WRONG
            attempts.append(
                (local, password, IPv4Address(0x22000000 + ip), methods[user % 5])
            )
        if as_rows:
            return attempts, row_batch(
                [u for u, _, _ in events], [g for _, g, _ in events],
                [0x22000000 + ip for _, _, ip in events],
                [user % 5 for user, _, _ in events],
            )
        return attempts, LoginBatch.from_attempts(attempts)

    class TestHypothesisEquivalence:
        """Several windows per example, with freezes, resets and
        evictions between them, so vector windows start from throttle
        entries, locks, frozen and hot rows."""

        @settings(max_examples=50, deadline=None)
        @given(windows=_WINDOWS)
        def test_batched_equals_scalar_on_generated_streams(self, windows):
            scalar = small_provider()
            batched = small_provider()
            # Force the vectorized path even for tiny generated
            # windows so hypothesis exercises the interesting engine.
            floor = batch_mod.VECTOR_MIN_EVENTS
            batch_mod.VECTOR_MIN_EVENTS = 1
            try:
                for step, rows, events, between in windows:
                    as_rows = rows and all(u < 40 for u, _, _ in events)
                    attempts, batch = window_batches(scalar, events, as_rows)
                    for provider in (scalar, batched):
                        provider._clock.advance(step)
                    codes = run_scalar(scalar, attempts)
                    assert list(batched.attempt_logins(batch).results) == codes
                    if between is None:
                        pass
                    elif between[0] == "freeze":
                        local = local_of(between[1])
                        assert scalar.support_freeze(local) == batched.support_freeze(local)
                    elif between[0] == "reset":
                        local = local_of(between[1])
                        password = benign_password(between[1]) if between[2] else "Reset!9z"
                        assert scalar.support_reset(local, password) == (
                            batched.support_reset(local, password)
                        )
                    else:
                        for provider in (scalar, batched):
                            provider._clock.advance(between[1])
                        assert scalar.evict_expired() == batched.evict_expired()
                    assert world_state(batched) == world_state(scalar)
            finally:
                batch_mod.VECTOR_MIN_EVENTS = floor
            assert batched.batch_engine_stats()["fallback_events"] == 0
            assert batched._rng.random() == scalar._rng.random()

        @settings(max_examples=15, deadline=None)
        @given(events=_EVENTS, ghosts=st.lists(st.integers(0, 11), min_size=1, max_size=3))
        def test_unknown_keys_take_the_serial_path(self, events, ghosts):
            scalar = small_provider()
            batched = small_provider()
            attempts, _batch = window_batches(scalar, events, False)
            for i, ghost in enumerate(ghosts):
                attempts.insert(
                    ghost % (len(attempts) + 1),
                    (f"nobody{i}", WRONG, IPv4Address(0x22000000), LoginMethod.IMAP),
                )
            codes = run_scalar(scalar, attempts)
            assert run_batched(batched, attempts) == codes
            assert batched.batch_engine_stats()["fallback_events"] == len(attempts)
            assert world_state(batched) == world_state(scalar)
