import dataclasses
import math
import warnings

import numpy as np
import pytest

from mmparareal.linalg import mat_exp
from mmparareal.propagators import (
    DEFAULT_MACRO_SUBSTEP,
    DEFAULT_SUBSTEP,
    EulerMicro,
    ExactLinearMacro,
    NonFiniteStateError,
    RK4Macro,
    _require_finite,
    make_macro,
    make_micro,
    micro_reference_trajectory,
)
from mmparareal.systems import builtin_brusselator, builtin_quadratic, builtin_toy

U0 = np.array([1.0, 0.0, 0.0])


class TestExactMicro:
    def test_matches_integrated_matrix_exponential(self, rk4_matrix_oracle):
        # Independent route to exp(B dt): integrate P' = B P with RK4 on
        # substeps of size epsilon/100, fine enough to resolve the fast block.
        epsilon, dt = 1e-2, 0.1
        system = builtin_toy(epsilon)
        prop = make_micro(system, dt, kind="exact")
        oracle = rk4_matrix_oracle(system.b_matrix(), dt, round(dt / (epsilon / 100)))
        got, want = prop.step(U0), oracle @ U0
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_phi_is_cached_and_reused(self):
        prop = make_micro(builtin_toy(1e-2), 0.1, kind="exact")
        first = prop.phi
        prop.step(U0)
        assert prop.phi is first

    def test_rejects_nonlinear_system(self):
        with pytest.raises(ValueError):
            make_micro(builtin_quadratic(1.0, 1e-3), 0.1, kind="exact")


class TestEulerMicro:
    def test_single_substep_is_one_euler_update(self):
        system = builtin_toy(1e-2)
        prop = EulerMicro(system, dt=1e-3, substep=1e-3)
        u = np.array([1.0, 0.2, -0.1])
        assert np.array_equal(prop.step(u), u + 1e-3 * system.micro_rhs(u))

    def test_substeps_compose(self):
        system = builtin_toy(1e-2)
        one_big = EulerMicro(system, dt=2e-3, substep=1e-3)
        two_small = micro_reference_trajectory(
            EulerMicro(system, dt=1e-3, substep=1e-3), U0, 2
        )
        assert np.array_equal(one_big.step(U0), two_small[-1])

    def test_converges_to_exact_step(self):
        system = builtin_toy(1e-2)
        exact = make_micro(system, 0.1, kind="exact").step(U0)
        coarse = EulerMicro(system, 0.1, substep=1e-5).step(U0)
        fine = EulerMicro(system, 0.1, substep=5e-6).step(U0)
        err_c = np.linalg.norm(coarse - exact)
        err_f = np.linalg.norm(fine - exact)
        # first-order method: halving the substep halves the error
        assert err_f == pytest.approx(err_c / 2, rel=0.1)

    def test_nonlinear_rhs_receives_epsilon(self):
        system = builtin_quadratic(1.0, 1e-3)
        prop = EulerMicro(system, dt=1e-4, substep=1e-4)
        u = np.array([2.0, 0.0])
        assert np.array_equal(
            prop.step(u), u + 1e-4 * np.asarray(system.micro_rhs(u, 1e-3))
        )

    def test_noninteger_substep_ratio_rejected(self):
        with pytest.raises(ValueError):
            EulerMicro(builtin_toy(1e-2), dt=0.1, substep=0.03)

    def test_substep_larger_than_dt_rejected(self):
        with pytest.raises(ValueError):
            EulerMicro(builtin_toy(1e-2), dt=0.01, substep=0.02)

    def test_nonpositive_substep_rejected(self):
        with pytest.raises(ValueError):
            EulerMicro(builtin_toy(1e-2), dt=0.1, substep=-0.1)

    @pytest.mark.parametrize(
        "system, substep, limit",
        [
            (builtin_toy(1e-4), 0.05, 4.0e-4),
            (builtin_quadratic(1.0, 1e-3), 1e-2, 2e-3),
            (builtin_brusselator(1e-3), 1e-2, 2e-3),
        ],
        ids=["toy", "quadratic", "brusselator"],
    )
    def test_unstable_substep_raises_without_warning(self, system, substep, limit):
        # substep far above the stability limit of the fast block (h / eps
        # = 10 for the nonlinear systems): rejected before any stepping,
        # with the largest stable substep named and no warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="stable substeps are below") as info:
                EulerMicro(system, dt=10.0, substep=substep)
        named = float(str(info.value).rsplit(" ", 1)[1])
        assert named == pytest.approx(limit, rel=0.01)

    @pytest.mark.parametrize(
        "system, ratio",
        [(builtin_toy(1e-3), 4.016), (builtin_quadratic(1.0, 1e-3), 2.0)],
        ids=["toy", "quadratic"],
    )
    def test_stability_limit_is_sharp(self, system, ratio):
        # Explicit Euler is stable for |1 + h lam| < 1: the toy's fastest
        # mode allows h < 4.016 eps, the nonlinear fast block h < 2 eps.
        eps = system.epsilon
        EulerMicro(system, dt=0.999 * ratio * eps, substep=0.999 * ratio * eps)
        with pytest.raises(ValueError):
            EulerMicro(system, dt=1.001 * ratio * eps, substep=1.001 * ratio * eps)

    def test_blow_up_past_stability_check_raises_without_warning(self):
        # A substep the guard admits: from u0 = (-2, 4) the quadratic's slow
        # model dx/dt = -x - x^2 blows up at t = ln 2, so the fine
        # trajectory overflows in interval 8, with the error as the only
        # signal.
        prop = EulerMicro(builtin_quadratic(1.0, 1e-3), dt=0.1, substep=1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = micro_reference_trajectory(prop, np.array([-2.0, 4.0]), 7)
            assert np.all(np.isfinite(traj))
            with pytest.raises(NonFiniteStateError):
                prop.step(traj[-1])

    @pytest.mark.parametrize(
        "system",
        [builtin_quadratic(1.0, 1e-3), builtin_brusselator(1e-3)],
        ids=["quadratic", "brusselator"],
    )
    def test_nonlinear_step_is_bitwise_the_array_recurrence(self, system):
        # The reference is the array loop u <- u + h * rhs(u), evaluated
        # with numpy; the propagator must reproduce it bit for bit, on and
        # off the slow manifold.
        prop = EulerMicro(system, 0.1, 1e-4)
        rng = np.random.default_rng(7)
        on_manifold = [
            system.lift_map(x) for x in rng.uniform(0.2, 2.0, (3, system.slow_dim))
        ]
        off_manifold = list(rng.uniform(0.2, 3.0, (3, system.dim)))
        for u0 in on_manifold + off_manifold:
            u = u0
            for _ in range(prop.n_sub):
                u = u + prop.h * np.asarray(system.micro_rhs(u, system.epsilon))
            assert np.array_equal(prop.step(u0), u)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_linear_step_is_bitwise_the_array_recurrence(self, epsilon):
        # The in-place loop must reproduce numpy's allocating recurrence
        # u <- u + h * (B @ u) bit for bit, on and off the slow manifold.
        # The oracle uses the same BLAS matrix-vector product, so this
        # holds on any host.
        system = builtin_toy(epsilon)
        prop = EulerMicro(system, 0.1, 1e-4)
        b = system.b_matrix()
        for u0 in _seeded_states(system, 6, seed=11):
            u = u0
            for _ in range(prop.n_sub):
                u = u + prop.h * (b @ u)
            assert np.array_equal(prop.step(u0), u)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)], ids=["grid", "grid-row"])
    def test_linear_grid_slots_are_bitwise_the_array_recurrence(self, shape):
        # Slot e of a 3-member grid state is stepped exactly as member e's
        # own recurrence, on (E, d) and (n, E, d) states alike.
        members = tuple(builtin_toy(e) for e in GRID_EPS)
        prop = EulerMicro(members, 0.1, 1e-4)
        states = _seeded_states(members[0], math.prod(shape[:-1]), seed=3)
        states = states.reshape(shape)
        got = prop.step(states)
        for index in np.ndindex(shape[:-1]):
            b = members[index[-1]].b_matrix()
            u = states[index]
            for _ in range(prop.n_sub):
                u = u + prop.h * (b @ u)
            assert np.array_equal(got[index], u)

    @pytest.mark.parametrize("grid", [False, True], ids=["plain", "grid"])
    def test_linear_overflow_raises_without_warning(self, grid):
        # B u overflows on the first substep and the state turns to inf
        # and NaN; the error must be the only signal.
        system = builtin_toy(1e-2)
        prop = EulerMicro((system, builtin_toy(1e-3)) if grid else system, 0.1, 1e-4)
        u = np.full((2, 3) if grid else 3, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError):
                prop.step(u)


GRID_EPS = (1e-2, 3e-3, 1e-3)


def _seeded_states(system, n, seed):
    """n states, alternately on and off the slow manifold."""
    rng = np.random.default_rng(seed)
    on = system.lift_map(rng.uniform(0.2, 2.0, (n, system.slow_dim)))
    off = rng.uniform(0.2, 3.0, (n, system.dim))
    return np.where((np.arange(n) % 2 == 0)[:, None], on, off)


ROW_KERNELS = {
    "toy-exact": (builtin_toy(1e-3), "exact"),
    "toy-euler": (builtin_toy(1e-3), "euler"),
    "quadratic-euler": (builtin_quadratic(1.0, 1e-3), "euler"),
    "brusselator-euler": (builtin_brusselator(1e-3), "euler"),
}


class TestRowStep:
    @pytest.mark.parametrize("n", [1, 7, 25, 100])
    @pytest.mark.parametrize("kernel", list(ROW_KERNELS))
    def test_row_step_equals_stacked_state_steps(self, kernel, n):
        system, kind = ROW_KERNELS[kernel]
        prop = make_micro(system, 1e-3, kind=kind, substep=1e-5)
        states = _seeded_states(system, n, seed=n)
        want = np.stack([prop.step(u) for u in states])
        got = prop.step(states)
        assert got.shape == states.shape
        assert np.array_equal(got, want)

    def test_empty_slab(self):
        system, kind = ROW_KERNELS["quadratic-euler"]
        prop = make_micro(system, 1e-3, kind=kind, substep=1e-5)
        assert prop.step(np.empty((0, 2))).shape == (0, 2)

    def test_row_with_one_blow_up_raises_without_warning(self):
        # Row 13 starts at x = -50 on the slow manifold; the slow model
        # dx/dt = -x - x^2 blows up from there at t = ln(50/49) < dt.
        system = builtin_quadratic(1.0, 1e-3)
        prop = EulerMicro(system, dt=0.1, substep=1e-5)
        states = system.lift_map(np.linspace(0.2, 2.0, 25)[:, None])
        states[13] = system.lift_map(np.array([-50.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(prop.step(np.delete(states, 13, axis=0))))
            with pytest.raises(NonFiniteStateError):
                prop.step(states)


class TestStepLeavesInput:
    @pytest.mark.parametrize("shape", ["state", "row", "grid-row"])
    @pytest.mark.parametrize("kernel", list(ROW_KERNELS))
    def test_input_bytes_unchanged(self, kernel, shape):
        # The engine steps views of its lattice rows, so a step must never
        # write its argument, nor the array it is a view of.
        system, kind = ROW_KERNELS[kernel]
        row_shape = (5, len(GRID_EPS)) if shape == "grid-row" else (5,)
        states = _seeded_states(system, math.prod(row_shape), seed=9)
        lattice = np.stack([states, states]).reshape(2, *row_shape, system.dim)
        if shape == "grid-row":
            system = tuple(dataclasses.replace(system, epsilon=e) for e in GRID_EPS)
        prop = make_micro(system, 1e-3, kind=kind, substep=1e-5)
        before = lattice.tobytes()
        arg = lattice[1, 0] if shape == "state" else lattice[1]
        assert not np.array_equal(prop.step(arg), arg)
        assert lattice.tobytes() == before


class TestMacroPropagators:
    def test_exact_growth_factor(self):
        prop = make_macro(builtin_toy(1e-2), 0.1, kind="exact")
        assert prop.rho == pytest.approx(math.exp(-0.1), rel=1e-13)
        assert prop.step(np.array([1.0]))[0] == pytest.approx(0.9048374180359595)

    def test_exact_is_linear_in_x(self):
        prop = ExactLinearMacro(builtin_toy(1e-2), 0.1)
        assert prop.step(np.array([0.0]))[0] == 0.0
        assert prop.step(np.array([2.0]))[0] == 2.0 * prop.rho

    def test_euler_toy_step(self):
        prop = make_macro(builtin_toy(1e-2), 0.1, kind="euler")
        assert prop.step(np.array([1.0]))[0] == pytest.approx(0.9, rel=1e-12)

    def test_euler_quadratic_step(self):
        prop = make_macro(builtin_quadratic(1.0, 1e-3), 0.1, kind="euler")
        # X + dt (-lam X - X^2) = 2 + 0.1 * (-2 - 4)
        assert prop.step(np.array([2.0]))[0] == pytest.approx(1.4, rel=1e-12)

    def test_exact_rejects_nonlinear_system(self):
        with pytest.raises(ValueError):
            make_macro(builtin_quadratic(1.0, 1e-3), 0.1, kind="exact")

    @pytest.mark.parametrize(
        "system, x0",
        [
            (builtin_quadratic(1.0, 1e-3), [-1e160]),
            (builtin_brusselator(1e-3), [1e160, 1e160]),
        ],
        ids=["quadratic", "brusselator"],
    )
    def test_euler_blow_up_raises_without_warning(self, system, x0):
        # x * x overflows inside the macro right-hand side; the error must
        # be the only signal.
        prop = make_macro(system, 0.1, kind="euler")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError):
                prop.step(np.array(x0))


def _quadratic_closed_form(x0, t, lam=1.0):
    """Solution of dX/dt = -lam X - X^2 from X(0) = x0."""
    decay = math.exp(-lam * t)
    return lam * x0 * decay / (lam + x0 * (1.0 - decay))


def _compose(prop, x0, n):
    """n steps of prop from the scalar x0."""
    x = np.array([x0])
    for _ in range(n):
        x = prop.step(x)
    return x[0]


class TestRK4Macro:
    def test_quadratic_matches_closed_form(self):
        prop = RK4Macro(builtin_quadratic(1.0, 1e-3), 1e-3)
        for x0 in (0.5, 1.0, 2.0):
            want = _quadratic_closed_form(x0, 0.1)
            assert abs(_compose(prop, x0, 100) - want) <= 1e-12 * abs(want)

    def test_fourth_order(self):
        system = builtin_quadratic(1.0, 1e-3)
        want = _quadratic_closed_form(2.0, 1.0)
        coarse = abs(_compose(RK4Macro(system, 0.005), 2.0, 200) - want)
        fine = abs(_compose(RK4Macro(system, 0.0025), 2.0, 400) - want)
        assert coarse / fine == pytest.approx(16.0, rel=0.1)

    def test_toy_agrees_with_exact_macro(self):
        system = builtin_toy(1e-2)
        x = np.array([1.3])
        got = make_macro(system, 0.1, kind="rk4").step(x)
        want = ExactLinearMacro(system, 0.1).step(x)
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])

    def test_substeps_cover_dt(self):
        prop = RK4Macro(builtin_toy(1e-2), 0.07)
        assert prop.n_sub == 14
        assert prop.h * prop.n_sub == pytest.approx(0.07, rel=1e-15)

    @pytest.mark.parametrize(
        "system", [builtin_toy(1e-2), builtin_quadratic(1.0, 1e-3)]
    )
    def test_accepted_for_linear_and_nonlinear(self, system):
        prop = make_macro(system, 0.1, kind="rk4")
        assert isinstance(prop, RK4Macro)
        assert prop.h == pytest.approx(DEFAULT_MACRO_SUBSTEP, rel=1e-9)

    def test_blow_up_raises(self):
        # From X0 = -10 the quadratic macro model blows up at t = ln(10/9).
        prop = RK4Macro(builtin_quadratic(1.0, 1e-3), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError):
                prop.step(np.array([-10.0]))


# Steps that check their endpoint, each with a finite state it accepts.
CHECKED_STEPS = [
    (make_micro(builtin_toy(1e-2), 0.1, kind="exact"), [1.0, 0.2, -0.1]),
    (make_macro(builtin_brusselator(1e-2), 0.1, kind="euler"), [1.0, 2.0]),
    (make_macro(builtin_brusselator(1e-2), 0.1, kind="rk4"), [1.0, 2.0]),
]
CHECKED_IDS = ["exact-micro", "euler-macro", "rk4-macro"]
NONFINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


class TestFinitenessCheck:
    @NONFINITE
    @pytest.mark.parametrize("prop, state", CHECKED_STEPS, ids=CHECKED_IDS)
    def test_nonfinite_component_raises(self, prop, state, value):
        for i in range(len(state)):
            u = np.array(state)
            u[i] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteStateError):
                    prop.step(u)

    @NONFINITE
    @pytest.mark.parametrize("prop, state", CHECKED_STEPS, ids=CHECKED_IDS)
    def test_nonfinite_row_of_batch_raises(self, prop, state, value):
        rows = np.array([state, state])
        assert np.all(np.isfinite(prop.step(rows)))
        rows[1][0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError):
                prop.step(rows)

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_finite_state_passes_through(self, shape):
        u = np.arange(6.0)[: math.prod(shape)].reshape(shape)
        assert _require_finite(u, "test") is u


class TestFactories:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            make_micro(builtin_toy(1e-2), 0.1, kind="rk7")
        with pytest.raises(ValueError):
            make_macro(builtin_toy(1e-2), 0.1, kind="rk7")

    def test_euler_micro_default_substep(self):
        prop = make_micro(builtin_toy(1e-2), 0.1, kind="euler")
        assert prop.h == pytest.approx(DEFAULT_SUBSTEP, rel=1e-9)


class TestReferenceTrajectory:
    def test_zero_steps_returns_initial_state(self):
        prop = make_micro(builtin_toy(1e-2), 0.1, kind="exact")
        traj = micro_reference_trajectory(prop, U0, 0)
        assert traj.shape == (1, 3)
        assert np.array_equal(traj[0], U0)

    def test_negative_steps_rejected(self):
        prop = make_micro(builtin_toy(1e-2), 0.1, kind="exact")
        with pytest.raises(ValueError):
            micro_reference_trajectory(prop, U0, -1)

    def test_semigroup_property(self):
        system = builtin_toy(1e-2)
        traj = micro_reference_trajectory(make_micro(system, 0.1, "exact"), U0, 10)
        direct = mat_exp(system.b_matrix() * 1.0) @ U0
        assert np.linalg.norm(traj[-1] - direct) <= 1e-9 * np.linalg.norm(direct)

    def test_slow_component_tracks_reduced_flow(self):
        # After the boundary layer the slow variable follows exp(macro_rate t)
        # up to an O(epsilon) relative deviation.
        traj = micro_reference_trajectory(
            make_micro(builtin_toy(1e-2), 0.1, "exact"), U0, 100
        )
        ratio = traj[-1][0] / math.exp(-10.0)
        assert 0.8 <= ratio <= 1.25
