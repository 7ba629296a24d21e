import numpy as np
import pytest

from mmparareal import linalg
from mmparareal.linalg import ExpOverflowError, SingularMatrixError
from mmparareal.propagators import make_micro
from mmparareal.systems import LinearFastSlowSystem

TOY_A = np.array([[0.5, 0.5], [0.0, 1.0 / 3.0]])


class TestSolve:
    def test_toy_fast_matrix(self):
        # Hand elimination: (1/3) y2 = 1 -> y2 = 3; (1/2)(y1 + 3) = 1 -> y1 = -1.
        w = linalg.solve(TOY_A, np.array([1.0, 1.0]))
        assert np.allclose(w, [-1.0, 3.0], rtol=0, atol=1e-14)

    def test_identity(self):
        v = np.array([3.0, -2.0, 0.5])
        assert np.array_equal(linalg.solve(np.eye(3), v), v)

    def test_diagonal(self):
        w = linalg.solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(w, [1.0, 1.0], rtol=0, atol=1e-15)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_near_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularMatrixError):
            linalg.solve(a, np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve(TOY_A, np.array([1.0, 1.0, 1.0]))

    def test_non_square(self):
        with pytest.raises(ValueError):
            linalg.solve(np.ones((2, 3)), np.ones(2))

    def test_non_finite_entries(self):
        with pytest.raises(ValueError):
            linalg.solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


class TestInverse:
    def test_toy_fast_matrix(self):
        inv = linalg.inverse(TOY_A)
        assert np.allclose(inv, [[2.0, -3.0], [0.0, 3.0]], rtol=0, atol=1e-14)
        # Direct multiplication oracle.
        assert np.allclose(TOY_A @ inv, np.eye(2), rtol=0, atol=1e-15)

    def test_identity(self):
        assert np.allclose(linalg.inverse(np.eye(4)), np.eye(4), rtol=0, atol=0)

    def test_diagonal(self):
        inv = linalg.inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), rtol=0, atol=1e-16)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.zeros((3, 3)))


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(linalg.mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        e = linalg.mat_exp(np.diag([-1.0, -2.0]))
        expected = np.diag([np.exp(-1.0), np.exp(-2.0)])
        assert np.allclose(e, expected, rtol=1e-15, atol=1e-17)

    def test_toy_generator_vs_integration_oracle(self, rk4_matrix_oracle):
        from mmparareal.systems import builtin_toy

        eps, dt = 1e-2, 0.1
        b = builtin_toy(eps).b_matrix()
        got = linalg.mat_exp(b * dt)
        oracle = rk4_matrix_oracle(b, dt, round(dt / (eps / 100.0)))
        rel = np.linalg.norm(got - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-8

    def test_overflow_raises(self):
        with np.errstate(over="ignore"):
            with pytest.raises(ExpOverflowError):
                linalg.mat_exp(np.array([[1e6, 0.0], [0.0, 1e6]]))


class TestEigenvalues:
    def test_toy_triangular(self):
        vals = linalg.eigenvalues(TOY_A)
        assert np.allclose(np.sort(vals.real), [1.0 / 3.0, 0.5], rtol=0, atol=1e-15)
        assert np.allclose(vals.imag, 0.0, atol=1e-15)

    def test_identity(self):
        assert np.allclose(linalg.eigenvalues(np.eye(2)), [1.0, 1.0], atol=0)

    def test_rotation_generator(self):
        vals = linalg.eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0j, 1.0j], atol=1e-15)

    def test_euler_stability_guard_past_sixteen_components(self):
        # The Euler micro propagator's stability guard takes the eigenvalues
        # of the full 17x17 B of a system with 16 fast components.
        system = LinearFastSlowSystem(
            alpha=-1.0, p=np.full(16, 0.1), q=np.ones(16), A=np.eye(16),
            epsilon=1e-2,
        )
        prop = make_micro(system, 0.01, kind="euler", substep=1e-3)
        row = np.random.default_rng(3).uniform(-1.0, 1.0, (4, system.dim))
        got = prop.step(row)
        assert got.tobytes() == np.stack([prop.step(u) for u in row]).tobytes()
