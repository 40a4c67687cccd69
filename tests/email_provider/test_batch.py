"""Batch login engine: decision-for-decision equivalence with the
provider's per-event path and with the engine's scalar oracle, plus
checks that the vectorized path actually runs."""

import numpy as np
import pytest

from repro.email_provider import batch as batch_mod
from repro.email_provider.accounts import benign_local, benign_password
from repro.email_provider.batch import LoginBatch
from repro.email_provider.provider import (
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
        "throttle": dict(provider._throttle),
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

    def test_second_window_routes_throttled_rows_rare(self):
        """A clean failure leaves a throttle entry; the next window's
        membership probe must see it and route the row rare."""
        spec = [
            (f"bg{i:08d}", "stuffed-wrong-guess", 0x51000000 + i, i)
            for i in range(36)
        ]
        provider = make_provider()
        run_batched(provider, attempts_from(spec))
        run_batched(provider, attempts_from(spec))
        stats = provider.batch_engine_stats()
        assert stats["vector_failed"] == 36
        assert stats["scalar_replayed"] == 36
        # Scalar replay accumulated the second failure per row.
        assert all(
            entry[0] == 2 for entry in provider._throttle.values()
        )

    def test_eviction_invalidates_the_sorted_key_cache(self):
        spec = [
            (f"bg{i:08d}", "stuffed-wrong-guess", 0x51000000 + i, i)
            for i in range(36)
        ]
        provider = make_provider()
        run_batched(provider, attempts_from(spec))
        engine = provider._batch_engine
        assert engine._throttle_rev == provider._throttle_rev
        assert list(engine._throttle_keys) == sorted(provider._throttle)
        provider._clock.advance(8 * 3600)  # past window + lockout
        provider.evict_expired()
        assert not provider._throttle
        assert engine._throttle_rev != provider._throttle_rev
        # A fresh window probes the rebuilt (empty) key set cleanly.
        ok_spec = [
            (f"bg{i:08d}", benign_password(i), 0x52000000 + i, i)
            for i in range(36)
        ]
        codes = run_batched(provider, attempts_from(ok_spec))
        assert set(codes) == {RESULT_CODES[LoginResult.SUCCESS]}


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


if HAVE_HYPOTHESIS:

    @st.composite
    def attempt_streams(draw):
        n = draw(st.integers(min_value=1, max_value=80))
        spec = []
        for _ in range(n):
            u = draw(st.integers(min_value=0, max_value=41))
            key = f"bg{u:08d}" if u < 40 else f"nobody{u}"
            good = draw(st.booleans())
            password = benign_password(u) if good else "not-the-password"
            ip = draw(st.integers(min_value=1, max_value=12)) + 0x22000000
            method = draw(st.integers(min_value=0, max_value=4))
            spec.append((key, password, ip, method))
        return spec

    class TestHypothesisEquivalence:
        @settings(max_examples=40, deadline=None)
        @given(spec=attempt_streams())
        def test_batched_equals_scalar_on_generated_streams(self, spec):
            attempts = attempts_from(spec)
            scalar = make_provider()
            scalar_codes = run_scalar(scalar, attempts)
            # Force the vectorized path even for tiny generated
            # batches so hypothesis exercises the interesting engine.
            floor = batch_mod.VECTOR_MIN_EVENTS
            batch_mod.VECTOR_MIN_EVENTS = 1
            try:
                batched = make_provider()
                batched_codes = run_batched(batched, attempts)
            finally:
                batch_mod.VECTOR_MIN_EVENTS = floor
            assert batched_codes == scalar_codes
            assert world_state(batched) == world_state(scalar)
