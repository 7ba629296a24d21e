import dataclasses
import math
import pickle
import warnings
from functools import partial

import numpy as np
import pytest

from mmparareal import systems
from mmparareal.linalg import mat_exp
from mmparareal.propagators import (
    DEFAULT_MACRO_SUBSTEP,
    DEFAULT_SUBSTEP,
    EulerMicro,
    ExactLinearMacro,
    NonFiniteStateError,
    RK4Macro,
    _called_loop,
    _loop_for,
    _require_finite,
    make_macro,
    make_micro,
    micro_reference_trajectory,
)
from mmparareal.systems import (
    NonlinearFastSlowSystem,
    builtin_brusselator,
    builtin_quadratic,
    builtin_toy,
)

U0 = np.array([1.0, 0.0, 0.0])


# A four-component system, a state dimension no built-in has: two slow
# components and two fast ones relaxing onto y1 = x1 x2, y2 = x1 + x2.
def _four_micro_rhs(u, epsilon):
    x1, x2, y1, y2 = u
    return (
        -x1 + 0.5 * y1,
        -0.5 * x2 - 0.25 * y2 * x1,
        (x1 * x2 - y1) / epsilon,
        (x1 + x2 - y2) / epsilon - y1 * x2,
    )


def _four_macro_rhs(x):
    x1, x2 = x
    return (-x1 + 0.5 * x1 * x2, -0.5 * x2 - 0.25 * (x1 + x2) * x1)


def _four_lift(x):
    x1, x2 = x[..., :1], x[..., 1:2]
    return np.concatenate([x, x1 * x2, x1 + x2], axis=-1)


def four_component(epsilon):
    return NonlinearFastSlowSystem(
        slow_dim=2,
        fast_dim=2,
        micro_rhs=_four_micro_rhs,
        macro_rhs=_four_macro_rhs,
        lift_map=_four_lift,
        epsilon=epsilon,
    )


def _euler_recurrence(system, h, n_sub, u):
    """numpy's allocating recurrence u <- u + h * micro_rhs(u), the oracle
    of the nonlinear Euler loop."""
    for _ in range(n_sub):
        u = u + h * np.asarray(system.micro_rhs(u, system.epsilon))
    return u


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
        assert np.array_equal(prop.step(u), u + 1e-3 * (system.b_matrix() @ u))

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
        [builtin_quadratic(1.0, 1e-3), builtin_brusselator(1e-3), four_component(1e-3)],
        ids=["quadratic", "brusselator", "four-component"],
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
            want = _euler_recurrence(system, prop.h, prop.n_sub, u0)
            assert np.array_equal(prop.step(u0), want)

    @pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["grid", "grid-row"])
    @pytest.mark.parametrize(
        "build",
        [partial(builtin_quadratic, 1.0), builtin_brusselator, four_component],
        ids=["quadratic", "brusselator", "four-component"],
    )
    def test_nonlinear_grid_slots_are_bitwise_the_array_recurrence(
        self, build, shape
    ):
        # Slot e of a 3-member grid state is stepped exactly as member e's
        # own recurrence, at its epsilon, on (E, d) and (n, E, d) states.
        members = tuple(build(e) for e in GRID_EPS)
        prop = EulerMicro(members, 0.1, 1e-4)
        states = _seeded_states(members[0], math.prod(shape), seed=5)
        states = states.reshape(*shape, members[0].dim)
        got = prop.step(states)
        assert got.shape == states.shape
        for index in np.ndindex(shape):
            member = members[index[-1]]
            want = _euler_recurrence(member, prop.h, prop.n_sub, states[index])
            assert np.array_equal(got[index], want)

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
    "four-component-euler": (four_component(1e-3), "euler"),
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

    @pytest.mark.parametrize("n", [0, 2], ids=["state", "row"])
    def test_division_by_zero_raises_without_warning(self, n):
        # As for the macro steps: 1.0 / 0.0 raises on floats and gives inf
        # on columns, with numpy's divide warning silenced.
        system = NonlinearFastSlowSystem(
            slow_dim=1,
            fast_dim=1,
            micro_rhs=lambda u, eps: (1.0 / (u[0] - 0.5), -u[1] / eps),
            macro_rhs=lambda x: (-x[0],),
            lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
            epsilon=1e-3,
        )
        prop = EulerMicro(system, dt=1e-3, substep=1e-5)
        u = np.array([[0.5, 0.0], [1.0, 0.0]])[: n or 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError, match="Euler micro step"):
                prop.step(u if n else u[0])


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


# The macro rhs of each system under the array contract the macro
# propagators stepped before they took tuples of components: a
# (..., slow_dim) array in and out, acting on the last axis.
def _quadratic_macro_array(x, lam=1.0):
    x0 = x[..., :1]
    return -lam * x0 - x0 * x0


def _brusselator_macro_array(x):
    a, b = systems.BRUSSELATOR_A, systems.BRUSSELATOR_B
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([a - (b + 1.0) * x1 + x1 * x1 * x2, b * x1 - x1 * x1 * x2], axis=-1)


def _four_macro_array(x):
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([-x1 + 0.5 * x1 * x2, -0.5 * x2 - 0.25 * (x1 + x2) * x1], axis=-1)


def _toy_macro_array(x):
    return builtin_toy(1e-2).macro_rate() * np.asarray(x, dtype=float)


MACRO_SYSTEMS = {
    "quadratic": (builtin_quadratic(1.0, 1e-3), _quadratic_macro_array),
    "brusselator": (builtin_brusselator(1e-3), _brusselator_macro_array),
    "toy": (builtin_toy(1e-2), _toy_macro_array),
    "four-component": (four_component(1e-3), _four_macro_array),
}


def _euler_macro_oracle(prop, rhs, x):
    """The array recurrence of the Euler macro step."""
    return x + prop.dt * rhs(x)


def _rk4_macro_oracle(prop, rhs, x):
    """The array recurrence of the RK4 macro step."""
    h = prop.h
    for _ in range(prop.n_sub):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


MACRO_ORACLES = {"euler": _euler_macro_oracle, "rk4": _rk4_macro_oracle}


class TestMacroComponentSteps:
    """The macro steps run on the Python floats of one state and on the
    component columns of a row or grid, bitwise the array recurrence."""

    @pytest.mark.parametrize(
        "shape", [(), (0,), (1,), (7,), (len(GRID_EPS),), (7, len(GRID_EPS))],
        ids=["state", "row-0", "row-1", "row-7", "grid-row", "grid"],
    )
    @pytest.mark.parametrize("kind", list(MACRO_ORACLES))
    @pytest.mark.parametrize("name", list(MACRO_SYSTEMS))
    def test_bitwise_the_array_recurrence(self, name, kind, shape):
        system, array_rhs = MACRO_SYSTEMS[name]
        prop = make_macro(system, 0.1, kind)
        rng = np.random.default_rng(len(shape) + sum(shape))
        x = rng.uniform(0.2, 2.0, (*shape, system.slow_dim))
        before = x.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = prop.step(x)
        want = MACRO_ORACLES[kind](prop, array_rhs, x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before

    def test_a_sweep_is_bitwise_the_array_recurrence(self):
        # 2c's corrected sweep feeds each endpoint back in, 100 times over.
        system, array_rhs = MACRO_SYSTEMS["brusselator"]
        for kind, oracle in MACRO_ORACLES.items():
            prop = make_macro(system, 0.1, kind)
            got = want = np.array([1.0, 2.0])
            for _ in range(100):
                got, want = prop.step(got), oracle(prop, array_rhs, want)
                assert got.tobytes() == want.tobytes(), kind

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["state", "row", "grid"])
    @pytest.mark.parametrize(
        "kind, context", [("euler", "Euler macro step"), ("rk4", "RK4 macro step")]
    )
    @pytest.mark.parametrize(
        "system, x0",
        [
            (builtin_quadratic(1.0, 1e-3), [-1e160]),
            (builtin_brusselator(1e-3), [1e160, 1e160]),
        ],
        ids=["quadratic", "brusselator"],
    )
    def test_blow_up_raises_without_warning(self, system, x0, kind, context, shape):
        # On floats x * x overflows to inf with no exception; on columns
        # numpy's overflow warning is silenced. The error is the only signal.
        x = np.broadcast_to(np.array(x0), (*shape, len(x0))).copy()
        if shape:
            x.reshape(-1, len(x0))[0] = 1.0
        prop = make_macro(system, 0.1, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError, match=context):
                prop.step(x)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["state", "row", "grid"])
    @pytest.mark.parametrize(
        "kind, context", [("euler", "Euler macro step"), ("rk4", "RK4 macro step")]
    )
    def test_division_by_zero_raises_without_warning(self, kind, context, shape):
        # On floats 1.0 / 0.0 raises ZeroDivisionError; on columns it gives
        # inf, with numpy's divide warning silenced. Both end in the error.
        system = NonlinearFastSlowSystem(
            slow_dim=1,
            fast_dim=1,
            micro_rhs=lambda u, eps: (-u[0], -u[1] / eps),
            macro_rhs=lambda x: (1.0 / (x[0] - 0.5),),
            lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
            epsilon=1e-3,
        )
        x = np.ones((*shape, 1))
        x.reshape(-1)[0] = 0.5
        prop = make_macro(system, 0.1, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError, match=context):
                prop.step(x)


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

    @pytest.mark.parametrize("kind", ["exact", "euler"])
    def test_grid_start_gives_each_members_trajectory(self, kind):
        # An (E, d) start of a grid propagator: slot e of every step is
        # member e's own trajectory, bit for bit.
        members = tuple(builtin_toy(eps) for eps in (1e-1, 1e-2, 1e-3))
        starts = np.array([U0, [0.5, -1.0, 2.0], [-0.3, 0.2, 0.1]])
        traj = micro_reference_trajectory(
            make_micro(members, 0.1, kind, substep=1e-4), starts, 5
        )
        assert traj.shape == (6, 3, 3)
        for e, member in enumerate(members):
            own = micro_reference_trajectory(
                make_micro(member, 0.1, kind, substep=1e-4), starts[e], 5
            )
            assert traj[:, e].tobytes() == own.tobytes(), e

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


# Right-hand sides of the user's, each with a body unlike the built-ins':
# a branch, a local named h, a state component assigned, no unpack of u,
# no source. Each is called, by the pair CALLED.
def _rhs_with_branch(u, epsilon):
    x, y = u
    if epsilon > 1.0:
        y = 0.0
    return (-x, -y / epsilon)


def _rhs_with_loop_name(u, epsilon):
    x, y = u
    h = x * y
    return (-h, -y / epsilon)


def _rhs_assigning_state(u, epsilon):
    x, y = u
    x = 2.0 * x
    return (-x, -y / epsilon)


def _rhs_indexing(u, epsilon):
    return (-u[0], -u[1] / epsilon)


def _rhs_returning_state(u, epsilon):
    # Its second derivative is its first component itself, on a row the
    # input column, so a column loop that writes the stack in place while
    # a derivative still refers to it fails it.
    x, y = u
    return (-x - y, x)


def _rhs_constant(u, epsilon):
    x, y = u
    return (1.0, -y / epsilon)


def _sourceless_rhs():
    namespace = {}
    exec("def rhs(u, epsilon):\n    x, y = u\n    return (-x, -y / epsilon)\n",
         namespace)
    return namespace["rhs"]


class _CountingRhs:
    """A wrapper installed over a propagator's rhs, as a tracer does."""

    def __init__(self, rhs):
        self.rhs, self.calls = rhs, 0

    def __call__(self, u, epsilon):
        self.calls += 1
        return self.rhs(u, epsilon)


def _lambda_rhs(build):
    """build with its micro_rhs behind a lambda, a callable of the user's."""
    def make(epsilon):
        system = build(epsilon)
        rhs = system.micro_rhs
        return dataclasses.replace(system, micro_rhs=lambda u, e: rhs(u, e))

    return make


class _UnhashableRhs(_CountingRhs):
    """A user's callable that defines __eq__ and so has no hash."""

    def __eq__(self, other):
        return self is other


class _CountingPartial(partial):
    """A partial subclass of the user's that counts its calls."""

    calls = 0

    def __call__(self, *args):
        self.calls += 1
        return super().__call__(*args)


# The Euler loops of any rhs not in systems.EULER_LOOPS.
CALLED = (_called_loop, _called_loop)
# A system of each rhs in systems.EULER_LOOPS, so that the tests below run
# on every registered loop; a loop registered without one fails them.
BUILDERS = {
    systems._quadratic_micro_rhs: partial(builtin_quadratic, 1.0),
    systems._brusselator_micro_rhs: builtin_brusselator,
}
# A state of each that overflows within two substeps.
BLOW_UPS = {
    systems._quadratic_micro_rhs: [1e200, 0.0],
    systems._brusselator_micro_rhs: [1e60, 1e60, 3.0],
}
REGISTERED = pytest.mark.parametrize(
    "func", list(systems.EULER_LOOPS), ids=lambda f: f.__name__.split("_")[1]
)
STATE_SHAPES = pytest.mark.parametrize(
    "shape, grid",
    [((), False), ((5,), False), ((), True), ((5,), True)],
    ids=["state", "row", "grid", "grid-row"],
)


def _shaped_states(system, shape, grid, seed=13):
    first = system[0] if grid else system
    shape = (*shape, len(system)) if grid else shape
    states = _seeded_states(first, math.prod(shape), seed)
    return states.reshape(*shape, first.dim)


def _system(build, grid):
    return tuple(build(e) for e in GRID_EPS) if grid else build(1e-3)


class TestRegisteredLoops:
    """The built-in rhs are stepped by their loops of systems.EULER_LOOPS;
    any other rhs is called once per substep, with bitwise the same
    endpoints."""

    @REGISTERED
    def test_builtin_takes_its_registered_loop(self, func):
        # The registered loops give the called loop's numbers, only faster,
        # so a built-in that stops resolving to them shows only here. Every
        # entry is a pair: a loop on floats and one on component columns.
        system = BUILDERS[func](1e-3)
        rhs = EulerMicro(system, 0.1, 1e-4).rhs
        bound = rhs.args if isinstance(rhs, partial) else ()
        loops = systems.EULER_LOOPS[func]
        assert len(loops) == 2 and all(map(callable, loops))
        assert _loop_for(rhs) == (loops, bound)

    @REGISTERED
    @pytest.mark.parametrize(
        "shape, members",
        [((7,), None), ((5,), GRID_EPS), ((1,), None), ((0,), None),
         ((), GRID_EPS[:1]), ((1,), GRID_EPS[:1])],
        ids=["row", "grid-row", "1-row", "0-row", "one-member-state",
             "one-member-slab"],
    )
    def test_column_loop_is_bitwise_the_float_loop(
        self, func, shape, members, monkeypatch
    ):
        # A row or grid row is stepped by one call of the column loop, on
        # its tuple of d columns; each state ends bitwise where the float
        # loop takes it alone, a grid slot with its member's epsilon. One
        # state, as a 1-row slab or a one-member grid's (1, d) state or
        # (1, 1, d) slab, is stepped on the float loop, never the column one.
        float_loop, column_loop = systems.EULER_LOOPS[func]
        stacks = []

        def spy(*args):
            stacks.append(np.shape(args[-2]))
            return column_loop(*args)

        monkeypatch.setitem(systems.EULER_LOOPS, func, (float_loop, spy))
        grid = members is not None
        build = BUILDERS[func]
        system = tuple(build(e) for e in members) if grid else build(1e-3)
        prop = EulerMicro(system, 0.1, 1e-4)
        states = _shaped_states(system, shape, grid)
        bound = _loop_for(prop.rhs)[1]
        got = prop.step(states)
        one_state = math.prod(states.shape[:-1]) == 1
        assert stacks == ([] if one_state else [(states.shape[-1], *states.shape[:-1])])
        assert got.shape == states.shape and got.flags.c_contiguous
        for index in np.ndindex(states.shape[:-1]):
            member = system[index[-1]] if grid else system
            want = float_loop(
                *bound, prop.h, prop.n_sub, states[index].tolist(), member.epsilon
            )
            assert got[index].tobytes() == np.array(want).tobytes()
        if grid and len(system) == 1:
            plain = EulerMicro(system[0], 0.1, 1e-4).step(states.reshape(-1))
            assert got.tobytes() == plain.tobytes()

    @REGISTERED
    @pytest.mark.parametrize(
        "slab", [slice(2, 3), slice(0, 4), slice(None, None, 2)],
        ids=["1-row", "4-rows", "strided"],
    )
    @pytest.mark.parametrize("grid", [False, True], ids=["plain", "grid"])
    def test_column_loop_leaves_the_lattice_unwritten(self, func, slab, grid):
        # The column loop steps its stack in place, so the stack must be a
        # copy even where the moved axes of a lattice-row view are already
        # C-contiguous, as they are for a 1-row slab.
        system = _system(BUILDERS[func], grid)
        prop = EulerMicro(system, 0.1, 1e-4)
        row = _shaped_states(system, (5,), grid)
        lattice = np.stack([row, row, row])
        before = lattice.tobytes()
        got = prop.step(lattice[1, slab])
        assert lattice.tobytes() == before
        assert not np.array_equal(got, lattice[1, slab])

    @STATE_SHAPES
    @REGISTERED
    def test_lambda_rhs_is_called_bitwise(self, func, shape, grid):
        build = BUILDERS[func]
        system = _system(build, grid)
        called = EulerMicro(_system(_lambda_rhs(build), grid), 0.1, 1e-4)
        assert _loop_for(called.rhs)[0] == CALLED
        states = _shaped_states(system, shape, grid)
        registered = EulerMicro(system, 0.1, 1e-4)
        assert np.array_equal(called.step(states), registered.step(states))

    @STATE_SHAPES
    @REGISTERED
    def test_wrapped_rhs_is_called_every_substep_bitwise(self, func, shape, grid):
        # A wrapper over prop.rhs, such as a tracer's call counter, sees
        # every substep: the instance is called, by the pair CALLED.
        system = _system(BUILDERS[func], grid)
        states = _shaped_states(system, shape, grid)
        wrapped = EulerMicro(system, 0.1, 1e-4)
        wrapped.rhs = _CountingRhs(wrapped.rhs)
        got = wrapped.step(states)
        assert wrapped.rhs.calls == wrapped.n_sub
        assert np.array_equal(got, EulerMicro(system, 0.1, 1e-4).step(states))

    @STATE_SHAPES
    def test_four_component_is_called_bitwise(self, shape, grid):
        # A user's module-level rhs is called, and each state of a row or
        # grid slot ends bitwise as its own array recurrence.
        system = _system(four_component, grid)
        prop = EulerMicro(system, 0.1, 1e-4)
        assert _loop_for(prop.rhs)[0] == CALLED
        states = _shaped_states(system, shape, grid)
        got = prop.step(states)
        for index in np.ndindex(states.shape[:-1]):
            member = system[index[-1]] if grid else system
            want = _euler_recurrence(member, prop.h, prop.n_sub, states[index])
            assert np.array_equal(got[index], want)

    @pytest.mark.parametrize("shape", [(), (5,)], ids=["state", "row"])
    @pytest.mark.parametrize(
        "func",
        [_rhs_with_branch, _rhs_with_loop_name, _rhs_assigning_state,
         _rhs_indexing, _rhs_returning_state, _rhs_constant, _sourceless_rhs()],
        ids=["branch", "loop-name", "assigns-state", "indexing", "returns-state",
             "constant", "no-source"],
    )
    def test_other_bodies_are_called_bitwise(self, func, shape):
        system = dataclasses.replace(builtin_quadratic(1.0, 1e-3), micro_rhs=func)
        prop = EulerMicro(system, 0.1, 1e-4)
        assert _loop_for(prop.rhs) == (CALLED, (func,))
        states = _shaped_states(system, shape, False)
        got = prop.step(states)
        for index in np.ndindex(shape):
            want = _euler_recurrence(system, prop.h, prop.n_sub, states[index])
            assert np.array_equal(got[index], want)

    def test_copy_of_a_registered_rhs_is_called_bitwise(self):
        # EULER_LOOPS is keyed by the function object: a copy with the same
        # code and globals is a user's function, and is called.
        rhs = systems._brusselator_micro_rhs
        copy = type(rhs)(rhs.__code__, rhs.__globals__)
        system = builtin_brusselator(1e-3)
        called = EulerMicro(dataclasses.replace(system, micro_rhs=copy), 0.1, 1e-4)
        assert _loop_for(called.rhs)[0] == CALLED
        states = _shaped_states(system, (5,), False)
        registered = EulerMicro(system, 0.1, 1e-4)
        assert np.array_equal(called.step(states), registered.step(states))

    def test_partial_subclass_is_called_every_substep_bitwise(self):
        # Only a plain partial is looked through: a subclass may change the
        # call, so it is called, as any callable of the user's.
        system = builtin_quadratic(1.0, 1e-3)
        rhs = _CountingPartial(systems._quadratic_micro_rhs, 1.0)
        called = EulerMicro(dataclasses.replace(system, micro_rhs=rhs), 0.1, 1e-4)
        assert _loop_for(called.rhs) == (CALLED, (rhs,))
        state = _shaped_states(system, (), False)
        before = rhs.calls
        got = called.step(state)
        assert rhs.calls - before == called.n_sub
        assert np.array_equal(got, EulerMicro(system, 0.1, 1e-4).step(state))

    def test_unhashable_rhs_is_called_bitwise(self):
        system = builtin_brusselator(1e-3)
        called = EulerMicro(
            dataclasses.replace(system, micro_rhs=_UnhashableRhs(system.micro_rhs)),
            0.1, 1e-4,
        )
        assert _loop_for(called.rhs)[0] == CALLED
        states = _shaped_states(system, (5,), False)
        registered = EulerMicro(system, 0.1, 1e-4)
        assert np.array_equal(called.step(states), registered.step(states))

    @STATE_SHAPES
    @REGISTERED
    def test_registered_blow_up_raises_without_warning(self, func, shape, grid):
        # The quadratic's x * x and the Brusselator's x1 * x1 * x2 overflow
        # to inf within two substeps, and inf - inf gives NaN: on floats and
        # on columns alike, the error is the only signal.
        system = _system(BUILDERS[func], grid)
        prop = EulerMicro(system, 0.1, 1e-4)
        shape = _shaped_states(system, shape, grid).shape
        states = np.broadcast_to(BLOW_UPS[func], shape).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError):
                prop.step(states)

    @pytest.mark.parametrize(
        "build", [*BUILDERS.values(), four_component],
        ids=["quadratic", "brusselator", "four-component"],
    )
    def test_pickle_round_trip_steps_bitwise(self, build):
        # Pool workers receive a propagator by pickle: a registered pair
        # or the called one.
        system = _system(build, True)
        prop = EulerMicro(system, 0.1, 1e-4)
        copy = pickle.loads(pickle.dumps(prop))
        states = _shaped_states(system, (5,), True)
        assert np.array_equal(copy.step(states), prop.step(states))
