"""Tests for identity pool burn semantics (Section 4.3.1)."""

import contextlib
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.identity.generator import IdentityFactory
from repro.identity.passwords import PasswordClass
from repro.identity.pool import (
    BurnedIdentityError,
    IdentityPool,
    IdentityState,
    UnknownIdentityError,
)
from repro.perf import caching as _perf
from repro.util.rngtree import RngTree


@pytest.fixture
def pool_with_identities():
    factory = IdentityFactory(RngTree(9))
    pool = IdentityPool()
    identities = [factory.create(PasswordClass.HARD) for _ in range(3)]
    identities += [factory.create(PasswordClass.EASY) for _ in range(2)]
    for identity in identities:
        pool.add(identity)
    return pool, identities


class TestLifecycle:
    def test_checkout_then_burn(self, pool_with_identities):
        pool, identities = pool_with_identities
        identity = pool.checkout(identities[0].identity_id, "site.test")
        assert pool.state(identity.identity_id) is IdentityState.CHECKED_OUT
        pool.burn(identity.identity_id)
        assert pool.state(identity.identity_id) is IdentityState.BURNED
        assert pool.site_for(identity.identity_id) == "site.test"

    def test_release_returns_to_pool(self, pool_with_identities):
        pool, identities = pool_with_identities
        identity = pool.checkout(identities[0].identity_id, "site.test")
        pool.release(identity.identity_id)
        assert pool.state(identity.identity_id) is IdentityState.AVAILABLE
        assert pool.site_for(identity.identity_id) is None

    def test_burned_identity_never_reusable(self, pool_with_identities):
        pool, identities = pool_with_identities
        pool.checkout(identities[0].identity_id, "a.test")
        pool.burn(identities[0].identity_id)
        with pytest.raises(BurnedIdentityError):
            pool.checkout(identities[0].identity_id, "b.test")

    def test_burn_is_idempotent(self, pool_with_identities):
        pool, identities = pool_with_identities
        pool.checkout(identities[0].identity_id, "a.test")
        pool.burn(identities[0].identity_id)
        pool.burn(identities[0].identity_id)
        assert pool.site_for(identities[0].identity_id) == "a.test"

    def test_burn_without_checkout_rejected(self, pool_with_identities):
        pool, identities = pool_with_identities
        with pytest.raises(BurnedIdentityError):
            pool.burn(identities[0].identity_id)

    def test_release_without_checkout_rejected(self, pool_with_identities):
        pool, identities = pool_with_identities
        with pytest.raises(BurnedIdentityError):
            pool.release(identities[0].identity_id)

    def test_unknown_identity(self, pool_with_identities):
        pool, _ = pool_with_identities
        with pytest.raises(UnknownIdentityError):
            pool.state(9999)

    def test_duplicate_add_rejected(self, pool_with_identities):
        pool, identities = pool_with_identities
        with pytest.raises(ValueError):
            pool.add(identities[0])


class TestCheckoutAny:
    def test_checkout_any_lowest_id(self, pool_with_identities):
        pool, identities = pool_with_identities
        assert pool.checkout_any("s.test").identity_id == identities[0].identity_id

    def test_checkout_any_filters_by_class(self, pool_with_identities):
        pool, _ = pool_with_identities
        identity = pool.checkout_any("s.test", PasswordClass.EASY)
        assert identity.password_class is PasswordClass.EASY

    def test_checkout_any_exhausted_returns_none(self, pool_with_identities):
        pool, identities = pool_with_identities
        for _ in range(len(identities)):
            pool.checkout_any("s.test")
        assert pool.checkout_any("s.test") is None


class TestControlAndQueries:
    def test_control_accounts_not_checkoutable(self):
        factory = IdentityFactory(RngTree(1))
        pool = IdentityPool()
        control = factory.create(PasswordClass.HARD)
        pool.add_control(control)
        assert pool.state(control.identity_id) is IdentityState.CONTROL
        assert pool.checkout_any("s.test") is None

    def test_identity_for_email(self, pool_with_identities):
        pool, identities = pool_with_identities
        found = pool.identity_for_email(identities[1].email_address.upper())
        assert found is identities[1]
        assert pool.identity_for_email("nobody@nowhere.test") is None

    def test_one_to_one_site_mapping(self, pool_with_identities):
        pool, identities = pool_with_identities
        for index, identity in enumerate(identities):
            pool.checkout(identity.identity_id, f"site{index}.test")
            pool.burn(identity.identity_id)
        sites = [site for _identity, site in pool.burned_identities()]
        assert len(sites) == len(set(sites)) == len(identities)

    def test_identities_for_site(self, pool_with_identities):
        pool, identities = pool_with_identities
        for identity in identities[:2]:
            pool.checkout(identity.identity_id, "shared.test")
            pool.burn(identity.identity_id)
        assert len(pool.identities_for_site("SHARED.test")) == 2

    def test_count_by_state(self, pool_with_identities):
        pool, identities = pool_with_identities
        pool.checkout(identities[0].identity_id, "s.test")
        counts = pool.count_by_state()
        assert counts[IdentityState.CHECKED_OUT] == 1
        assert counts[IdentityState.AVAILABLE] == len(identities) - 1


@given(st.lists(st.sampled_from(["checkout", "burn", "release"]), max_size=30))
def test_state_machine_never_corrupts(operations):
    """Property: arbitrary operation sequences keep the pool consistent."""
    factory = IdentityFactory(RngTree(3))
    pool = IdentityPool()
    identity = factory.create(PasswordClass.HARD)
    pool.add(identity)
    for operation in operations:
        state = pool.state(identity.identity_id)
        try:
            if operation == "checkout":
                pool.checkout(identity.identity_id, "s.test")
            elif operation == "burn":
                pool.burn(identity.identity_id)
            else:
                pool.release(identity.identity_id)
        except BurnedIdentityError:
            # Invalid transitions must not change state.
            assert pool.state(identity.identity_id) is state
    final = pool.state(identity.identity_id)
    if final is IdentityState.BURNED:
        assert pool.site_for(identity.identity_id) == "s.test"


# -- the available-id heaps against the sorted-scan oracle -------------------


@contextlib.contextmanager
def perf_layer(enabled):
    """The perf layer switched on or off for one block; restored after."""
    was_enabled = _perf.enabled()
    _perf.set_enabled(enabled)
    try:
        yield
    finally:
        _perf.set_enabled(was_enabled)


_TEMPLATES = {
    password_class: IdentityFactory(RngTree(5)).create(password_class)
    for password_class in PasswordClass
}


def _identity(identity_id, password_class):
    return dataclasses.replace(
        _TEMPLATES[password_class], identity_id=identity_id, email_local=f"id{identity_id}"
    )


_IDS = st.integers(0, 7)
_TARGET_STATE = {
    "checkout": IdentityState.AVAILABLE,
    "burn": IdentityState.CHECKED_OUT,
    "release": IdentityState.CHECKED_OUT,
}


def _draw_operation(data, states):
    """One operation; an id operation targets a legal id half the time."""
    name = data.draw(
        st.sampled_from(["add", "add_control", "checkout", "checkout_any", "burn", "release"])
    )
    if name == "checkout_any":
        return name, data.draw(st.sampled_from([*PasswordClass, None]))
    if name in ("add", "add_control"):
        return name, data.draw(_IDS), data.draw(st.sampled_from(PasswordClass))
    legal = [i for i, state in states.items() if state is _TARGET_STATE[name]]
    return name, data.draw(st.sampled_from(legal) | _IDS if legal else _IDS)


def _apply(pool, operation):
    """Run one operation; its returned id, or the type of what it raised."""
    name, *args = operation
    try:
        if name in ("add", "add_control"):
            getattr(pool, name)(_identity(*args))
            return None
        if name == "checkout":
            return pool.checkout(args[0], "s.test").identity_id
        if name == "checkout_any":
            identity = pool.checkout_any("s.test", args[0])
            return None if identity is None else identity.identity_id
        getattr(pool, name)(args[0])
        return None
    except (BurnedIdentityError, UnknownIdentityError, ValueError) as error:
        return type(error)


def _states(pool):
    states = {}
    for identity_id in range(8):
        try:
            states[identity_id] = pool.state(identity_id)
        except UnknownIdentityError:
            states[identity_id] = None
    return states


@given(st.data())
def test_heaps_match_the_sorted_scan(data):
    """Property: with the caches on, every operation answers as the scan does."""
    heaps, scan = IdentityPool(), IdentityPool()

    def step(operation):
        with perf_layer(True):
            fast = _apply(heaps, operation)
        with perf_layer(False):
            slow = _apply(scan, operation)
        assert fast == slow, operation
        assert _states(heaps) == _states(scan), operation

    # Start from up to eight identities added in any id order and class mix.
    for identity_id in data.draw(st.permutations(range(8)))[: data.draw(st.integers(0, 8))]:
        step(("add", identity_id, data.draw(st.sampled_from(PasswordClass))))
    for _ in range(data.draw(st.integers(0, 40))):
        step(_draw_operation(data, _states(scan)))


class TestAvailableHeaps:
    def test_released_id_below_the_heap_top_comes_back_first(self):
        pool = IdentityPool()
        for identity_id in (1, 2, 3):
            pool.add(_identity(identity_id, PasswordClass.HARD))
        with perf_layer(True):
            assert pool.checkout_any("a.test", PasswordClass.HARD).identity_id == 1
            # Pops 1 off the heap and leaves the checked-out 2 on top.
            assert pool.checkout_any("b.test").identity_id == 2
            pool.release(1)
            assert pool.checkout_any("c.test", PasswordClass.HARD).identity_id == 1
            assert pool.checkout_any("d.test").identity_id == 3
            assert pool.checkout_any("e.test") is None

    def test_no_class_takes_the_smallest_head_across_classes(self):
        pool = IdentityPool()
        pool.add(_identity(4, PasswordClass.HARD))
        pool.add(_identity(2, PasswordClass.EASY))
        pool.add(_identity(1, PasswordClass.HARD))
        pool.checkout(1, "a.test")
        with perf_layer(True):
            assert pool.checkout_any("b.test").identity_id == 2
            assert pool.checkout_any("c.test").identity_id == 4
            assert pool.checkout_any("d.test", PasswordClass.EASY) is None

    def test_caches_on_never_fall_back_to_the_scan(self, pool_with_identities, monkeypatch):
        pool, identities = pool_with_identities

        def no_scan(password_class):
            raise AssertionError("checkout_any fell back to the sorted scan")

        monkeypatch.setattr(pool, "_scan_available", no_scan)
        with perf_layer(True):
            for password_class in (PasswordClass.EASY, PasswordClass.HARD, None):
                assert pool.checkout_any("s.test", password_class) is not None
            pool.release(identities[0].identity_id)
            assert pool.checkout_any("s.test").identity_id == identities[0].identity_id

    def test_caches_off_answer_by_the_scan(self, pool_with_identities, monkeypatch):
        pool, identities = pool_with_identities
        scanned = []
        scan = pool._scan_available

        def counting_scan(password_class):
            scanned.append(password_class)
            return scan(password_class)

        monkeypatch.setattr(pool, "_scan_available", counting_scan)
        with perf_layer(False):
            assert pool.checkout_any("s.test").identity_id == identities[0].identity_id
        assert scanned == [None]
