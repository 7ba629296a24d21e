import numpy as np
import pytest

from mmparareal.engine import (
    AlgorithmVariant,
    InconsistentRowError,
    PararealConfig,
    classic_parareal,
    init_sweep,
    parareal_iteration,
    run,
)
from mmparareal.systems import builtin_brusselator, builtin_quadratic, builtin_toy

U0 = np.array([1.0, 0.0, 0.0])


def toy_config(variant, kmax, epsilon=1e-2, **kw):
    kw.setdefault("dt", 0.1)
    return PararealConfig(
        system=builtin_toy(epsilon),
        t_final=10.0,
        n_iterations=kmax,
        variant=variant,
        u0=U0,
        **kw,
    )


class TestConfigValidation:
    def test_dt_must_divide_t_final(self):
        with pytest.raises(ValueError):
            toy_config(AlgorithmVariant.MATCHING, 2, dt=0.3)

    def test_u0_shape_checked(self):
        with pytest.raises(ValueError):
            PararealConfig(
                system=builtin_toy(1e-2),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.MATCHING,
                u0=np.array([1.0, 0.0]),
            )

    def test_u0_must_be_finite(self):
        with pytest.raises(ValueError):
            PararealConfig(
                system=builtin_toy(1e-2),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.MATCHING,
                u0=np.array([1.0, np.nan, 0.0]),
            )

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            toy_config(AlgorithmVariant.MATCHING, -1)

    def test_dae_variant_requires_linear_system(self):
        with pytest.raises(ValueError):
            PararealConfig(
                system=builtin_quadratic(1.0, 1e-3),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.DAE_COARSE,
                u0=np.array([1.0, 1.0]),
            )

    def test_variant_accepts_plain_integers(self):
        cfg = toy_config(2, 1)
        assert cfg.variant is AlgorithmVariant.MATCHING


class TestInitSweep:
    def test_slow_lattice_is_coarse_orbit(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert r.x[0][1][0] == pytest.approx(0.9048374180359595, rel=1e-12)
        assert r.x[0][2][0] == pytest.approx(np.exp(-0.2), rel=1e-12)

    def test_full_states_are_lifted(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert np.allclose(
            r.u[0][1], [0.904837, -0.904837, 2.714512], atol=1e-6
        )

    def test_initial_state_is_not_lifted(self):
        # u0 = (1, 0, 0) sits off the slow manifold; slot [0][0] must keep it.
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert np.array_equal(r.u[0][0], U0)

    def test_euler_coarse_orbit(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2, macro_kind="euler"))
        assert r.x[0][1][0] == pytest.approx(0.9, rel=1e-12)

    def test_unfilled_rows_are_nan(self):
        r = init_sweep(toy_config(AlgorithmVariant.LIFTING, 2))
        assert r.rows_filled == 1
        assert np.all(np.isnan(r.u[1]))


class TestIterationStructure:
    def test_iterating_unfilled_row_raises(self):
        r = init_sweep(toy_config(AlgorithmVariant.MATCHING, 3))
        with pytest.raises(InconsistentRowError):
            parareal_iteration(r, 1)

    def test_iterating_past_allocation_raises(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 1))
        with pytest.raises(ValueError):
            parareal_iteration(r, 1)

    def test_row_zero_is_variant_independent(self):
        rows = [
            run(toy_config(v, 0)).u[0]
            for v in (
                AlgorithmVariant.LIFTING,
                AlgorithmVariant.MATCHING,
                AlgorithmVariant.DAE_COARSE,
            )
        ]
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[2])

    def test_zero_iteration_run(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 0))
        assert r.rows_filled == 1
        assert r.u.shape == (1, 101, 3)
        assert r.reference is not None

    def test_reference_can_be_skipped(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 1, with_reference=False))
        assert r.reference is None
        assert r.rows_filled == 2


class TestFirstCorrection:
    def test_matching_first_interval_equals_fine_step(self):
        # On the first interval the coarse terms cancel, so the corrected
        # state is the fine endpoint itself.
        r = run(toy_config(AlgorithmVariant.MATCHING, 1))
        want = r.micro_prop.step(U0)
        assert np.allclose(r.u[1][1], want, rtol=1e-13, atol=0)

    def test_dae_first_interval_equals_fine_step(self):
        r = run(toy_config(AlgorithmVariant.DAE_COARSE, 1))
        want = r.micro_prop.step(U0)
        assert np.allclose(r.u[1][1], want, rtol=1e-13, atol=0)

    def test_lifting_rows_stay_on_manifold(self):
        system = builtin_toy(1e-2)
        r = run(toy_config(AlgorithmVariant.LIFTING, 3))
        for k in range(4):
            for n in range(1, 101):
                offset = system.slow_manifold_offset(r.u[k][n])
                assert np.array_equal(offset, np.zeros(2))


class TestFiniteStepConvergence:
    def test_matching_row_n_equals_reference(self):
        # After as many corrections as intervals, every endpoint reproduces
        # the sequential fine trajectory.
        cfg = PararealConfig(
            system=builtin_toy(1e-2),
            t_final=10.0,
            dt=0.5,
            n_iterations=20,
            variant=AlgorithmVariant.MATCHING,
            u0=U0,
        )
        r = run(cfg)
        gap = np.linalg.norm(r.u[20] - r.reference)
        assert gap <= 1e-11 * np.linalg.norm(r.reference)


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("variant", list(AlgorithmVariant), ids=lambda v: v.name)
    def test_lattices_identical_with_two_workers(self, variant, workers):
        # N = 10 intervals, so 3 workers cut uneven 4/3/3 slabs.
        cfg = PararealConfig(
            system=builtin_toy(1e-2),
            t_final=1.0,
            dt=0.1,
            n_iterations=2,
            variant=variant,
            u0=U0,
        )
        r1 = run(cfg, workers=1)
        r2 = run(cfg, workers=workers)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.x, r2.x)

    @pytest.mark.parametrize(
        "system, u0, variant",
        [
            (builtin_quadratic(1.0, 1e-2), [1.0, 0.0], AlgorithmVariant.LIFTING),
            (builtin_brusselator(1e-2), [1.0, 1.0, 3.0], AlgorithmVariant.MATCHING),
        ],
        ids=["quadratic-LIFTING", "brusselator-MATCHING"],
    )
    def test_nonlinear_euler_lattices_identical_with_two_workers(
        self, system, u0, variant
    ):
        # The nonlinear Euler micro propagator, with its float-loop kernel,
        # pickled into the pool.
        cfg = PararealConfig(
            system=system,
            t_final=1.0,
            dt=0.1,
            n_iterations=2,
            variant=variant,
            u0=np.array(u0),
            micro_kind="euler",
            macro_kind="euler",
            substep=1e-3,
        )
        r1 = run(cfg, workers=1)
        r2 = run(cfg, workers=2)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.x, r2.x)

    def test_task_timings_recorded_per_iteration(self):
        r = run(toy_config(AlgorithmVariant.MATCHING, 2))
        assert len(r.timings.fine_wall) == 2
        assert len(r.timings.fine_task_seconds) == 2
        assert all(t > 0 for t in r.timings.fine_task_seconds)


class TestClassicParareal:
    def test_identical_propagators_give_zero_error(self):
        table = classic_parareal(0.9, 0.9, 1.0, n_steps=8, k_max=3)
        assert np.all(table == 0.0)

    def test_row_zero_is_coarse_orbit(self):
        table = classic_parareal(0.9, 0.8, 1.0, n_steps=5, k_max=2)
        coarse, fine = 1.0, 1.0
        for n in range(1, 6):
            coarse, fine = 0.8 * coarse, 0.9 * fine
            assert table[0][n] == abs(coarse - fine)

    def test_converges_in_finite_steps(self):
        table = classic_parareal(0.9, 0.8, 1.0, n_steps=4, k_max=4)
        assert np.all(table[4] <= 1e-15)

    def test_errors_start_at_zero(self):
        table = classic_parareal(0.9, 0.8, 2.0, n_steps=3, k_max=2)
        assert np.all(table[:, 0] == 0.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            classic_parareal(0.9, 0.8, 1.0, n_steps=0, k_max=2)
        with pytest.raises(ValueError):
            classic_parareal(0.9, 0.8, 1.0, n_steps=5, k_max=-1)
