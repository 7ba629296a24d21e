from functools import partial

import numpy as np
import pytest

from mmparareal import linalg
from mmparareal.analysis import (
    TOY_U0,
    TooFewPointsError,
    compute_errors,
    experiment_table,
    fit_slope,
    format_ideal_speedup,
    grid_tables,
    lemma_diagnostics,
    sharpness_witness,
)
from mmparareal.engine import AlgorithmVariant, PararealConfig, run
from mmparareal.propagators import ExactLinearMicro, micro_reference_trajectory
from mmparareal.systems import LinearFastSlowSystem, builtin_quadratic, builtin_toy
from mmparareal.verification import LEMMA_EPS


class TestFitSlope:
    def test_two_point_line(self):
        fit = fit_slope([1e-3, 1e-4], [1e-6, 1e-8])
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_constant_values(self):
        fit = fit_slope([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_power_law(self):
        xs = np.logspace(-5, -1, 9)
        fit = fit_slope(xs, 2.7 * xs**1.5)
        assert fit.slope == pytest.approx(1.5, abs=1e-10)
        assert np.exp(fit.intercept) == pytest.approx(2.7, rel=1e-10)

    def test_floor_excludes_points(self):
        fit = fit_slope([1.0, 2.0, 4.0], [1e-14, 1.0, 4.0], floor=1e-13)
        assert fit.n_points == 2
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_zero_floor_keeps_tiny_values(self):
        fit = fit_slope([1.0, 2.0], [1e-18, 2e-18], floor=0.0)
        assert fit.n_points == 2
        assert fit.slope == pytest.approx(1.0, abs=1e-10)

    def test_too_few_points_above_floor(self):
        with pytest.raises(TooFewPointsError):
            fit_slope([1.0, 2.0, 4.0], [1e-14, 1e-14, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([1.0, 2.0], [1.0])

    def test_nonpositive_abscissa_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([0.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
            ([1.0, np.inf, 2.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
        ],
        ids=["nan-x", "inf-x", "inf-y", "nan-y"],
    )
    def test_non_finite_point_rejected(self, xs, ys):
        # Rejected up front: not a LAPACK error, a RuntimeWarning, a nan
        # slope or a point silently dropped by the floor.
        with pytest.raises(ValueError, match="must be finite"):
            fit_slope(xs, ys)


@pytest.fixture(scope="module")
def matching_run():
    return run(
        PararealConfig(
            system=builtin_toy(1e-2),
            t_final=10.0,
            dt=0.1,
            n_iterations=3,
            variant=AlgorithmVariant.MATCHING,
            u0=TOY_U0,
        )
    )


class TestComputeErrors:
    def test_requires_reference(self):
        r = run(
            PararealConfig(
                system=builtin_toy(1e-2),
                t_final=1.0,
                dt=0.1,
                n_iterations=1,
                variant=AlgorithmVariant.MATCHING,
                u0=TOY_U0,
                with_reference=False,
            )
        )
        with pytest.raises(ValueError):
            compute_errors(r)

    def test_vanishing_reference_rejected(self):
        # From u0 = 0 the reference stays at 0, so no relative error exists.
        r = run(
            PararealConfig(
                system=builtin_toy(1e-2),
                t_final=1.0,
                dt=0.1,
                n_iterations=1,
                variant=AlgorithmVariant.MATCHING,
                u0=np.zeros(3),
            )
        )
        with pytest.raises(ValueError, match="reference vanishes at the final time"):
            compute_errors(r)

    def test_errors_vanish_at_initial_time(self, matching_run):
        table = compute_errors(matching_run)
        assert np.all(table.abs_micro[:, 0] == 0.0)
        assert np.all(table.abs_macro[:, 0] == 0.0)

    def test_slow_error_bounded_by_full_error(self, matching_run):
        # E = restrict(e) entrywise, so |E| <= ||e|| everywhere.
        table = compute_errors(matching_run)
        assert np.all(table.abs_macro <= table.abs_micro + 1e-300)

    def test_relative_scaling(self, matching_run):
        table = compute_errors(matching_run)
        assert np.allclose(
            table.rel_micro * table.micro_denominator, table.abs_micro
        )
        assert table.micro_denominator == pytest.approx(
            np.linalg.norm(matching_run.reference[-1])
        )

    def test_metadata_copied(self, matching_run):
        table = compute_errors(matching_run, system_id="toy")
        assert table.system == "toy"
        assert table.variant == 2
        assert table.coarse == "exact" and table.fine == "exact"
        assert table.epsilon == 1e-2
        assert table.n_intervals == 100
        assert table.rel_micro.shape == (4, 101)


class TestExperimentTable:
    def test_errors_decrease_with_iteration(self):
        table = experiment_table(
            builtin_toy(1e-3), "toy", AlgorithmVariant.MATCHING,
            coarse="exact", fine="exact", dt=0.1, t_final=10.0, kmax=3,
            u0=TOY_U0,
        )
        finals = [table.rel_micro[k, -1] for k in range(4)]
        assert all(b < a for a, b in zip(finals, finals[1:]))


# Each case: (system builder, epsilon grid, experiment_table arguments).
GRID_CASES = {
    "toy-exact": (
        builtin_toy, [1e-3, 1e-4, 1e-2],
        dict(coarse="exact", fine="exact", dt=0.1, t_final=10.0, kmax=3,
             u0=TOY_U0),
    ),
    "quadratic-euler-rk4": (
        partial(builtin_quadratic, 1.0), [1e-3, 3e-3, 1e-2],
        dict(coarse="rk4", fine="euler", dt=0.1, t_final=1.0, kmax=2,
             u0=[1.0, 0.0], substep=1e-4),
    ),
}


def grid_run(case):
    builder, epsilons, args = GRID_CASES[case]
    return run(PararealConfig(
        system=builder(1.0), t_final=args["t_final"], dt=args["dt"],
        n_iterations=args["kmax"], variant=AlgorithmVariant.MATCHING,
        u0=args["u0"], micro_kind=args["fine"], macro_kind=args["coarse"],
        substep=args.get("substep"), epsilons=epsilons,
    ))


class TestGridErrors:
    @pytest.mark.parametrize("case", GRID_CASES)
    def test_member_tables_equal_experiment_table(self, case):
        builder, epsilons, args = GRID_CASES[case]
        grid = grid_run(case)
        for i, eps in enumerate(epsilons):
            table = compute_errors(grid, case, member=i)
            want = experiment_table(
                builder(eps), case,
                AlgorithmVariant.MATCHING, **args,
            )
            assert table.epsilon == eps
            for name in ("abs_macro", "abs_micro", "rel_macro", "rel_micro"):
                assert getattr(table, name).tobytes() == getattr(want, name).tobytes()
            assert table.macro_denominator == want.macro_denominator
            assert table.micro_denominator == want.micro_denominator

    def test_grid_run_needs_a_member_index(self):
        with pytest.raises(ValueError):
            compute_errors(grid_run("toy-exact"))


class TestEpsilonRate:
    """A rate in epsilon fitted as the README gives it: fit_slope over the
    final-time relative errors of one grid run's tables, with dt above every
    member's boundary-layer time."""

    TOY_GRID = [1e-5, 1e-4, 1e-3]

    @pytest.mark.parametrize(
        "variant, k, which",
        [
            (AlgorithmVariant.LIFTING, 1, "macro"),
            (AlgorithmVariant.MATCHING, 2, "micro"),
            (AlgorithmVariant.DAE_COARSE, 1, "macro"),
        ],
        ids=["lifting-macro-k1", "matching-micro-k2", "dae-macro-k1"],
    )
    def test_toy_exact_rate_is_second_order(self, variant, k, which):
        config = PararealConfig(
            system=builtin_toy(self.TOY_GRID[0]), t_final=10.0, dt=0.1,
            n_iterations=k, variant=variant, u0=TOY_U0, epsilons=self.TOY_GRID,
        )
        assert all(m.boundary_layer_time() < config.dt for m in config.members)
        tables = grid_tables(config)
        finals = [getattr(t, f"rel_{which}")[k, -1] for t in tables]
        fit = fit_slope(self.TOY_GRID, finals)
        assert fit.n_points == len(self.TOY_GRID)
        assert fit.slope == pytest.approx(2.0, abs=0.3)

    def test_quadratic_matching_micro_rate_at_k2(self):
        _, epsilons, args = GRID_CASES["quadratic-euler-rk4"]
        grid = grid_run("quadratic-euler-rk4")
        tables = [compute_errors(grid, member=i) for i in range(len(epsilons))]
        fit = fit_slope(epsilons, [t.rel_micro[args["kmax"], -1] for t in tables])
        assert fit.n_points == len(epsilons)
        assert fit.slope == pytest.approx(2.0, abs=0.3)


def per_epsilon_lemma_ratios(system_builder, u0, eps_values):
    """The closeness-bound ratios computed one epsilon at a time, with the
    per-state trajectory and transient loops: the reference the grid
    computation is pinned to."""
    ratios = {name: [] for name in ("x_dev", "z_layer_dev", "z_tail")}
    n_grid, h = 1000, 10.0 / 1000
    times = h * np.arange(n_grid + 1)
    for eps in eps_values:
        system = system_builder(eps)
        x0 = u0[0]
        z0 = u0[1:] - system.a_inv_q * u0[0]
        denom = eps * (abs(x0) + np.linalg.norm(z0))
        traj = micro_reference_trajectory(ExactLinearMicro(system, h), u0, n_grid)
        x = traj[:, 0]
        z = traj[:, 1:] - np.outer(x, system.a_inv_q)
        decay_step = linalg.mat_exp(-system.A * (h / eps))
        z_layer = np.empty_like(z)
        w = z0.copy()
        z_layer[0] = w
        for j in range(n_grid):
            w = decay_step @ w
            z_layer[j + 1] = w
        tail = times >= system.boundary_layer_time()
        ratios["x_dev"].append(
            np.max(np.abs(x - x0 * np.exp(system.macro_rate() * times))) / denom
        )
        ratios["z_layer_dev"].append(
            np.max(np.linalg.norm(z - z_layer, axis=1)) / denom
        )
        ratios["z_tail"].append(np.max(np.linalg.norm(z[tail], axis=1)) / denom)
    return {name: np.array(r) for name, r in ratios.items()}


class TestLemmaDiagnostics:
    EPS_GRID = [1e-5, 1e-4, 1e-3, 1e-2]

    @pytest.mark.parametrize(
        "eps_values", [LEMMA_EPS, [1e-4, 1e-3, 0.5]], ids=["lemma-eps", "wide"]
    )
    @pytest.mark.parametrize(
        "system_builder, u0",
        [(builtin_toy, TOY_U0), (sharpness_witness, np.array([1.0, 0.0]))],
        ids=["toy", "witness"],
    )
    def test_grid_ratios_are_the_per_epsilon_ones(
        self, system_builder, u0, eps_values
    ):
        diag = lemma_diagnostics(system_builder, u0, eps_values)
        want = per_epsilon_lemma_ratios(system_builder, u0, eps_values)
        assert diag.ratios.keys() == want.keys()
        for name, ratios in want.items():
            assert diag.ratios[name].tobytes() == ratios.tobytes(), name
            assert diag.variation[name] == np.max(ratios) / np.min(ratios)
        assert diag.ok == all(v <= 10.0 for v in diag.variation.values())

    def test_toy_ratios_stable_across_epsilon(self):
        diag = lemma_diagnostics(builtin_toy, TOY_U0, self.EPS_GRID)
        assert diag.ok
        for family in ("x_dev", "z_layer_dev", "z_tail"):
            assert diag.variation[family] <= 10.0

    def test_witness_tail_ratio_bounded_below(self):
        # On dx/dt = -x, dy/dt = (x - y)/eps the slaved offset is eps x to
        # leading order, so the normalized tail ratio cannot collapse to 0.
        diag = lemma_diagnostics(
            sharpness_witness, np.array([1.0, 0.0]), self.EPS_GRID
        )
        assert np.all(diag.ratios["z_tail"] >= 0.1)

    def test_trivial_initial_condition_rejected(self):
        with pytest.raises(ValueError):
            lemma_diagnostics(builtin_toy, np.zeros(3), [1e-3])

    def test_nonlinear_system_rejected(self):
        with pytest.raises(TypeError):
            lemma_diagnostics(
                lambda eps: builtin_quadratic(1.0, eps),
                np.array([1.0, 1.0]),
                [1e-3],
            )

    def test_epsilon_without_tail_samples_rejected(self):
        # A fast block relaxing at rate 0.01/eps: at eps = 0.3 the boundary
        # layer outlasts the sampled interval [0, 10].
        def slow_layer(eps):
            return LinearFastSlowSystem(
                alpha=-1.0, p=[0.0], q=[1.0], A=[[0.01]], epsilon=eps
            )

        with pytest.raises(ValueError, match="boundary layer"):
            lemma_diagnostics(slow_layer, np.array([1.0, 0.0]), [1e-3, 0.3])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lemma_diagnostics(builtin_toy, TOY_U0, [])


class TestSpeedup:
    def test_format_truncates_to_one_decimal(self):
        assert format_ideal_speedup(100 / 6) == "16.6"
        assert format_ideal_speedup(1.0) == "1.0"
        assert format_ideal_speedup(0.99) == "0.9"
        assert format_ideal_speedup(25.0) == "25.0"
