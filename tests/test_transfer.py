import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmparareal.propagators import make_macro
from mmparareal.systems import builtin_brusselator, builtin_quadratic, builtin_toy
from mmparareal.transfer import TransferSet, transfer_for

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@pytest.fixture(scope="module")
def toy_tset():
    return transfer_for(builtin_toy(1e-3))


@pytest.fixture(scope="module")
def brus_tset():
    return transfer_for(builtin_brusselator(1e-3))


class TestRestrictComplement:
    def test_restrict_takes_slow_part(self, toy_tset):
        u = np.array([3.5, 1.0, 2.0])
        assert np.array_equal(toy_tset.restrict(u), np.array([3.5]))

    def test_restrict_after_lift_is_identity(self, toy_tset):
        x = np.array([0.7])
        assert np.array_equal(toy_tset.restrict(toy_tset.lift(x)), x)

    def test_restrict_returns_a_copy(self, toy_tset):
        u = np.array([3.5, 1.0, 2.0])
        r = toy_tset.restrict(u)
        r[0] = -1.0
        assert u[0] == 3.5


class TestLift:
    def test_toy_unit_state(self, toy_tset):
        assert np.allclose(
            toy_tset.lift(np.array([1.0])), [1.0, -1.0, 3.0], atol=1e-14
        )

    def test_zero_maps_to_zero(self, toy_tset):
        assert np.array_equal(toy_tset.lift(np.array([0.0])), np.zeros(3))

    def test_quadratic_lift(self):
        tset = transfer_for(builtin_quadratic(1.0, 1e-3))
        assert np.array_equal(tset.lift(np.array([2.0])), np.array([2.0, 4.0]))


class TestMatch:
    def test_slow_replaced_fast_kept(self, toy_tset):
        got = toy_tset.match(np.array([5.0]), np.array([3.0, 7.0, 9.0]))
        assert np.array_equal(got, np.array([5.0, 7.0, 9.0]))

    def test_match_restrict_is_identity(self, toy_tset):
        u = np.array([0.3, -1.0, 4.0])
        assert np.array_equal(toy_tset.match(toy_tset.restrict(u), u), u)

    def test_idempotent(self, toy_tset):
        x, v = np.array([5.0]), np.array([3.0, 7.0, 9.0])
        once = toy_tset.match(x, v)
        assert np.array_equal(toy_tset.match(x, once), once)

    def test_brusselator_two_slow_components(self, brus_tset):
        got = brus_tset.match(np.array([1.5, 2.5]), np.array([0.0, 0.0, 4.0]))
        assert np.array_equal(got, np.array([1.5, 2.5, 4.0]))


@pytest.mark.parametrize(
    "system, macro_kinds",
    [
        (builtin_toy(1e-2), ("exact", "euler", "rk4")),
        (builtin_quadratic(1.0, 1e-3), ("euler", "rk4")),
        (builtin_brusselator(1e-3), ("euler", "rk4")),
    ],
    ids=["toy", "quadratic", "brusselator"],
)
def test_row_maps_equal_stacked_single_states(system, macro_kinds):
    # The engine applies the maps and the macro step to whole rows; each row
    # of the result must be bitwise the map of that state alone.
    rng = np.random.default_rng(31)
    tset = transfer_for(system)
    n, s = 7, system.slow_dim

    def stacked(f, *rows):
        return np.array([f(*states) for states in zip(*rows)])

    x = rng.uniform(0.2, 2.0, (n, s))
    on_manifold = stacked(tset.lift, x)
    off_manifold = on_manifold + rng.normal(0.0, 0.5, on_manifold.shape)
    assert np.array_equal(tset.lift(x), on_manifold)
    new_x = rng.uniform(0.2, 2.0, (n, s))
    macros = [make_macro(system, 0.1, kind) for kind in macro_kinds]
    for u in (on_manifold, off_manifold):
        assert np.array_equal(tset.restrict(u), stacked(tset.restrict, u))
        assert np.array_equal(tset.match(new_x, u), stacked(tset.match, new_x, u))
        slow = tset.restrict(u)
        for macro in macros:
            assert np.array_equal(macro.step(slow), stacked(macro.step, slow))


class TestUnsupportedSystem:
    def test_transfer_for_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            transfer_for(object())


@settings(max_examples=50, deadline=None)
@given(x=finite, fast=st.tuples(finite, finite), v=st.tuples(finite, finite, finite))
def test_identities_hold_bitwise(x, fast, v):
    tset = TransferSet(slow_dim=1, lift=lambda s: np.concatenate([s, np.zeros(2)]))
    xs = np.array([x])
    u = np.array([x, *fast])
    vv = np.array(v)
    assert np.array_equal(tset.restrict(tset.lift(xs)), xs)
    assert np.array_equal(tset.match(tset.restrict(u), u), u)
    assert np.array_equal(tset.restrict(tset.match(xs, vv)), xs)
    assert np.array_equal(tset.match(xs, vv)[1:], vv[1:])


@settings(max_examples=50, deadline=None)
@given(
    x=finite, y=finite,
    u=st.tuples(finite, finite, finite), v=st.tuples(finite, finite, finite),
)
def test_match_is_nonexpansive(toy_tset, x, y, u, v):
    uu, vv = np.array(u), np.array(v)
    lhs = np.linalg.norm(toy_tset.match(np.array([x]), uu) - toy_tset.match(np.array([y]), vv))
    rhs = abs(x - y) + np.linalg.norm(uu - vv)
    assert lhs <= rhs + 1e-12 * (1.0 + rhs)
