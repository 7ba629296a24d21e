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
        "system, u0, substep",
        [
            (builtin_toy(1e-4), [1.0, 0.0, 0.0], 0.05),
            (builtin_quadratic(1.0, 1e-3), [1.0, 0.5], 1e-2),
            (builtin_brusselator(1e-3), [1.0, 2.0, 2.5], 1e-2),
        ],
        ids=["toy", "quadratic", "brusselator"],
    )
    def test_unstable_substep_raises_without_warning(self, system, u0, substep):
        # substep far above the 2 eps / lambda stability limit of the fast
        # block (h / eps = 10 for the nonlinear systems): the fast component
        # overflows. The error must be the only signal, with no overflow
        # warning on the way.
        prop = EulerMicro(system, dt=10.0, substep=substep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError):
                prop.step(np.array(u0))

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
        assert prop.kind == "rk4"
        assert prop.h == pytest.approx(DEFAULT_MACRO_SUBSTEP, rel=1e-9)

    def test_blow_up_raises(self):
        # From X0 = -10 the quadratic macro model blows up at t = ln(10/9).
        prop = RK4Macro(builtin_quadratic(1.0, 1e-3), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError):
                prop.step(np.array([-10.0]))


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
