import math

import numpy as np
import pytest

from mmparareal.systems import (
    LinearFastSlowSystem,
    NonlinearFastSlowSystem,
    builtin_brusselator,
    builtin_quadratic,
    builtin_toy,
)


class TestMacroRate:
    def test_toy_rate_is_minus_one(self):
        assert abs(builtin_toy(1e-3).macro_rate() + 1.0) <= 1e-14

    def test_decoupled_slow_equation(self):
        sys = LinearFastSlowSystem(
            alpha=-0.7, p=[0.0, 0.0], q=[1.0, 2.0], A=np.eye(2), epsilon=1e-2
        )
        assert sys.macro_rate() == -0.7

    def test_scalar_formula(self):
        sys = LinearFastSlowSystem(alpha=0.0, p=[1.0], q=[1.0], A=[[2.0]], epsilon=1e-2)
        assert abs(sys.macro_rate() - 0.5) <= 1e-15

    def test_rate_is_computed_once_and_drives_the_macro_rhs(self):
        sys = builtin_toy(1e-3)
        assert sys.macro_rate() is sys.macro_rate()
        assert sys.macro_rate() == float(sys.alpha + sys.p @ sys.a_inv_q)
        assert sys.macro_rhs((2.0,)) == (sys.macro_rate() * 2.0,)


class TestSlowManifoldOffset:
    def test_lifted_states_have_zero_offset(self):
        from mmparareal.transfer import transfer_for

        sys = builtin_toy(1e-2)
        tset = transfer_for(sys)
        for x in (-2.0, 0.0, 1.0, 3.5):
            offset = sys.slow_manifold_offset(tset.lift(np.array([x])))
            assert np.array_equal(offset, np.zeros(2))

    def test_unit_slow_state(self):
        offset = builtin_toy(1e-2).slow_manifold_offset(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(offset, [1.0, -3.0], rtol=0, atol=1e-14)

    def test_zero_slow_component(self):
        y0 = np.array([0.4, -1.2])
        offset = builtin_toy(1e-2).slow_manifold_offset(np.concatenate([[0.0], y0]))
        assert np.array_equal(offset, y0)


class TestBoundaryLayerTime:
    def test_toy_value(self):
        # (2 eps / lam_minus) ln(1/eps) at eps=1e-2, lam_minus=1/3.
        got = builtin_toy(1e-2).boundary_layer_time()
        assert math.isclose(got, 0.27631021115928556, rel_tol=1e-12)

    def test_epsilon_one_gives_zero(self):
        assert builtin_toy(1.0).boundary_layer_time() == 0.0

    def test_unit_log_case(self):
        eps = math.exp(-1.0)
        sys = LinearFastSlowSystem(alpha=0.0, p=[1.0], q=[1.0], A=[[2.0]], epsilon=eps)
        assert math.isclose(sys.boundary_layer_time(), eps, rel_tol=1e-14)


class TestBuiltinToy:
    def test_fast_matrix_eigenvalues(self):
        from mmparareal.linalg import eigenvalues

        vals = eigenvalues(builtin_toy(1e-3).A)
        assert np.allclose(np.sort(vals.real), [1.0 / 3.0, 0.5], atol=1e-15)

    def test_dimensions(self):
        sys = builtin_toy(1e-3)
        assert (sys.slow_dim, sys.fast_dim, sys.dim) == (1, 2, 3)

    def test_a_inv_q(self):
        assert np.allclose(builtin_toy(1e-3).a_inv_q, [-1.0, 3.0], atol=1e-14)

    def test_micro_rhs_matches_blocks(self):
        sys = builtin_toy(1e-2)
        u = np.array([1.0, 0.5, -0.5])
        du = sys.b_matrix() @ u
        assert math.isclose(du[0], -0.5 * 1.0 - 0.25 * (0.5 - 0.5))
        expected_fast = (sys.q * u[0] - sys.A @ u[1:]) / sys.epsilon
        assert np.allclose(du[1:], expected_fast, rtol=1e-14)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            builtin_toy(0.0)

    def test_rejects_unstable_fast_matrix(self):
        with pytest.raises(ValueError):
            LinearFastSlowSystem(
                alpha=0.0, p=[1.0], q=[1.0], A=[[-1.0]], epsilon=1e-2
            )


class TestQuadratic:
    def test_macro_fixed_point_at_origin(self):
        sys = builtin_quadratic(1.0, 1e-3)
        assert np.array_equal(sys.macro_rhs(np.array([0.0])), np.array([0.0]))

    def test_micro_rhs_on_manifold(self):
        sys = builtin_quadratic(1.0, 1e-3)
        du = sys.micro_rhs(np.array([1.0, 1.0]), sys.epsilon)
        assert np.allclose(du, [-2.0, 0.0], atol=1e-15)

    def test_lift(self):
        sys = builtin_quadratic(1.0, 1e-3)
        assert np.array_equal(sys.lift_map(np.array([2.0])), np.array([2.0, 4.0]))

    def test_dimensions(self):
        sys = builtin_quadratic(1.0, 1e-3)
        assert (sys.slow_dim, sys.fast_dim) == (1, 1)


class TestBrusselator:
    def test_macro_fixed_point(self):
        sys = builtin_brusselator(1e-3)
        assert np.allclose(sys.macro_rhs(np.array([1.0, 3.0])), [0.0, 0.0], atol=1e-15)

    def test_fast_rhs_vanishes_at_base_level(self):
        sys = builtin_brusselator(1e-3)
        du = sys.micro_rhs(np.array([0.0, 2.0, 3.0]), sys.epsilon)
        assert du[2] == 0.0

    def test_dimensions(self):
        sys = builtin_brusselator(1e-3)
        assert (sys.slow_dim, sys.fast_dim) == (2, 1)

    def test_lift_sets_base_level(self):
        sys = builtin_brusselator(1e-3)
        assert np.array_equal(
            sys.lift_map(np.array([0.5, 2.0])), np.array([0.5, 2.0, 3.0])
        )


@pytest.mark.parametrize(
    "build",
    [builtin_toy, lambda e: builtin_quadratic(1.0, e), builtin_brusselator],
    ids=["toy", "quadratic", "brusselator"],
)
@pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.inf, math.nan])
def test_epsilon_must_be_positive_and_finite(build, epsilon):
    with pytest.raises(ValueError, match="positive and finite"):
        build(epsilon)


class TestNonlinearValidation:
    def test_lift_must_be_section_of_restriction(self):
        with pytest.raises(ValueError):
            NonlinearFastSlowSystem(
                slow_dim=1,
                fast_dim=1,
                micro_rhs=lambda u, eps: np.zeros(2),
                macro_rhs=lambda x: (0.0 * x[0],),
                lift_map=lambda x: np.array([x[0] + 1.0, 0.0]),
                epsilon=1e-3,
            )

    def test_micro_rhs_must_return_one_value_per_component(self):
        # On the tuple state the Euler propagator passes, u + u concatenates.
        with pytest.raises(ValueError, match="micro_rhs must map a tuple of 2 floats"):
            NonlinearFastSlowSystem(
                slow_dim=1,
                fast_dim=1,
                micro_rhs=lambda u, eps: u + u,
                macro_rhs=lambda x: (0.0 * x[0],),
                lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
                epsilon=1e-3,
            )

    @pytest.mark.parametrize(
        "micro_rhs",
        [
            lambda u, eps: (-u[0], (math.exp(u[0]) - u[1]) / eps),
            lambda u, eps: (-u[0], (float(u[0]) - u[1]) / eps),
            lambda u, eps: (-u[0], (u[0] if u[0] > 0 else -u[0]) - u[1]),
        ],
        ids=["math.exp", "float", "branch"],
    )
    def test_per_state_micro_rhs_is_rejected(self, micro_rhs):
        # Each works on a tuple of floats but not on the component columns
        # of a row, as the Euler propagator passes them.
        with pytest.raises(ValueError, match="micro_rhs"):
            NonlinearFastSlowSystem(
                slow_dim=1,
                fast_dim=1,
                micro_rhs=micro_rhs,
                macro_rhs=lambda x: (-x[0],),
                lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
                epsilon=1e-3,
            )

    def test_micro_rhs_with_constant_component_is_accepted(self):
        system = NonlinearFastSlowSystem(
            slow_dim=1,
            fast_dim=1,
            micro_rhs=lambda u, eps: (1.0, -u[1] / eps),
            macro_rhs=lambda x: (1.0,),
            lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
            epsilon=1e-3,
        )
        assert system.dim == 2

    @pytest.mark.parametrize(
        "macro_rhs",
        [
            lambda x: -x[..., :1],
            lambda x: (-x[..., 0],),
            lambda x: (-math.exp(x[0]),),
            lambda x: (x[0] if x[0] > 0 else -x[0],),
        ],
        ids=["array", "ellipsis", "math.exp", "branch"],
    )
    def test_per_state_macro_rhs_is_rejected(self, macro_rhs):
        # The first two take a slow-state array, as lift_map does, and fail
        # on the tuple of floats of one state; the last two work on floats
        # but not on the component columns of a row.
        with pytest.raises(ValueError, match="macro_rhs"):
            NonlinearFastSlowSystem(
                slow_dim=1,
                fast_dim=1,
                micro_rhs=lambda u, eps: np.zeros(2),
                macro_rhs=macro_rhs,
                lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
                epsilon=1e-3,
            )

    def test_per_state_lift_map_is_rejected(self):
        with pytest.raises(ValueError, match="lift_map"):
            NonlinearFastSlowSystem(
                slow_dim=1,
                fast_dim=1,
                micro_rhs=lambda u, eps: np.zeros(2),
                macro_rhs=lambda x: (-x[0],),
                lift_map=lambda x: np.array([x[0], 0.0]),
                epsilon=1e-3,
            )

    @pytest.mark.parametrize(
        "name, micro_rhs, macro_rhs",
        [
            (
                "micro_rhs",
                lambda u, eps: np.array([np.inf, 0.0]),
                lambda x: (0.0 * x[0],),
            ),
            (
                "macro_rhs",
                lambda u, eps: (0.0 * u[0], 0.0 * u[1]),
                lambda x: (math.inf * x[0],),
            ),
            (
                "macro_rhs",
                lambda u, eps: (0.0 * u[0], 0.0 * u[1]),
                lambda x: (1.0 / (x[0] - 1.0),),
            ),
        ],
        ids=["micro_rhs", "macro_rhs", "macro_rhs-division-by-zero"],
    )
    def test_rhs_must_be_finite_on_probe(self, name, micro_rhs, macro_rhs):
        with pytest.raises(ValueError, match=f"{name} returned non-finite values"):
            NonlinearFastSlowSystem(
                slow_dim=1,
                fast_dim=1,
                micro_rhs=micro_rhs,
                macro_rhs=macro_rhs,
                lift_map=lambda x: np.concatenate([x, np.zeros_like(x)], axis=-1),
                epsilon=1e-3,
            )
