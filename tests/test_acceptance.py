"""End-to-end acceptance suite.

One test per stated requirement; each records a single [PASS]/[FAIL] line
with the measured numbers at the stated tolerance (printed in the terminal
summary), then asserts. Heavy sweeps are shared through module fixtures.
"""

import math
from functools import partial

import numpy as np
import pytest
from conftest import record_criterion, rk4_matrix

from mmparareal import engine, verification
from mmparareal.analysis import compute_errors, experiment_table, fit_slope
from mmparareal.cli import main
from mmparareal.engine import AlgorithmVariant, PararealConfig, classic_parareal
from mmparareal.propagators import ExactLinearMicro
from mmparareal.systems import (
    builtin_brusselator,
    builtin_quadratic,
    builtin_toy,
)

TOY_U0 = np.array([1.0, 0.0, 0.0])
EPS_GRID = [1e-5, 3e-5, 1e-4, 3e-4, 1e-3]
# Fit floor for the Brusselator RK4-coarse micro errors: about 5x above
# their rounding level and 6x below the smallest error fitted (see 14b).
BRUSSELATOR_FIT_FLOOR = 3e-14


def _toy_table(variant, eps, kmax, coarse="exact", dt=0.1):
    return experiment_table(
        builtin_toy(eps), "toy", variant, coarse, "exact", dt, 10.0, kmax,
        TOY_U0,
    )


@pytest.fixture(scope="module")
def exact_runs_k6():
    """K=6 exact-propagator toy runs, one per variant, for the structural
    identity criteria."""
    out = {}
    for variant in (1, 2, 3):
        out[variant] = engine.run(
            PararealConfig(
                system=builtin_toy(1e-3),
                t_final=10.0,
                dt=0.1,
                n_iterations=6,
                variant=variant,
                u0=TOY_U0,
            )
        )
    return out


@pytest.fixture(scope="module")
def lifting_tables():
    return {eps: _toy_table(1, eps, kmax=2) for eps in EPS_GRID}


@pytest.fixture(scope="module")
def matching_tables():
    return {eps: _toy_table(2, eps, kmax=4) for eps in EPS_GRID}


@pytest.fixture(scope="module")
def dae_tables():
    return {eps: _toy_table(3, eps, kmax=3) for eps in EPS_GRID}


@pytest.fixture(scope="module")
def dt_tables():
    return {
        dt: _toy_table(2, 1e-5, kmax=3, dt=dt)
        for dt in (0.2, 0.1, 0.05, 0.025)
    }


@pytest.fixture(scope="module")
def plateau_tables():
    return {
        eps: _toy_table(1, eps, kmax=8, coarse="euler")
        for eps in (1e-5, 1e-4, 1e-3)
    }


NONLINEAR_EPS = (1e-4, 1e-3)


def _nonlinear_runs(build, u0, coarse, references=None):
    """K=4 MATCHING runs with Euler fine substeps of 1e-5, one per epsilon
    in NONLINEAR_EPS; build(eps) builds the model.

    The reference depends on the fine propagator alone, not on the coarse
    one, so runs given the references of runs that share their fine
    propagator attach those instead of recomputing them.
    """
    runs = {}
    for eps in NONLINEAR_EPS:
        runs[eps] = engine.run(
            PararealConfig(
                system=build(eps), t_final=10.0, dt=0.1, n_iterations=4,
                variant=AlgorithmVariant.MATCHING, u0=u0,
                micro_kind="euler", macro_kind=coarse, substep=1e-5,
                with_reference=references is None,
            )
        )
        if references is not None:
            runs[eps].reference = references[eps]
    return runs


def _tables(runs, system_id):
    return {eps: compute_errors(run, system_id) for eps, run in runs.items()}


def _references(runs):
    return {eps: run.reference for eps, run in runs.items()}


_quadratic = partial(builtin_quadratic, 1.0)
QUADRATIC_U0 = np.array([1.0, 0.0])
BRUSSELATOR_U0 = np.array([1.0, 1.0, 3.0])


@pytest.fixture(scope="module")
def quadratic_runs():
    return _nonlinear_runs(_quadratic, QUADRATIC_U0, "euler")


@pytest.fixture(scope="module")
def quadratic_tables(quadratic_runs):
    return _tables(quadratic_runs, "quadratic")


@pytest.fixture(scope="module")
def quadratic_rk4_tables(quadratic_runs):
    """quadratic_tables with the coarse step resolving the macro model."""
    runs = _nonlinear_runs(
        _quadratic, QUADRATIC_U0, "rk4", _references(quadratic_runs)
    )
    return _tables(runs, "quadratic")


@pytest.fixture(scope="module")
def brusselator_runs():
    return _nonlinear_runs(builtin_brusselator, BRUSSELATOR_U0, "euler")


@pytest.fixture(scope="module")
def brusselator_tables(brusselator_runs):
    return _tables(brusselator_runs, "brusselator")


@pytest.fixture(scope="module")
def brusselator_rk4_tables(brusselator_runs):
    """brusselator_tables with the coarse step resolving the macro model."""
    runs = _nonlinear_runs(
        builtin_brusselator, BRUSSELATOR_U0, "rk4", _references(brusselator_runs)
    )
    return _tables(runs, "brusselator")


@pytest.fixture(scope="module")
def worker_runs():
    """N=100 Euler-fine matching runs at 1, 2 and 4 workers.

    Wall-clock is taken as the minimum over interleaved repeats, the usual
    noise reduction for timing comparisons; lattices come from the first
    repeat of each worker count.
    """

    def one(workers):
        return engine.run(
            PararealConfig(
                system=builtin_toy(1e-3),
                t_final=10.0,
                dt=0.1,
                n_iterations=2,
                variant=AlgorithmVariant.MATCHING,
                u0=TOY_U0,
                micro_kind="euler",
                substep=2e-5,
                with_reference=False,
            ),
            workers=workers,
        )

    runs, walls = {}, {w: math.inf for w in (1, 2, 4)}
    for rep in range(3):
        for w in (1, 2, 4):
            r = one(w)
            runs.setdefault(w, r)
            walls[w] = min(walls[w], sum(r.timings.fine_wall))
    return runs, walls


def test_criterion_01_effective_macro_rate():
    rate = builtin_toy(1e-3).macro_rate()
    gap = abs(rate + 1.0)
    ok = gap <= 1e-14
    record_criterion(
        "criterion 01 effective macro rate",
        ok,
        f"macro_rate = {rate!r}, |rate+1| = {gap:.2e} (tol 1e-14)",
    )
    assert ok


def test_criterion_02_exact_micro_vs_integration_oracle():
    worst = 0.0
    for eps in (1e-2, 1e-3):
        system = builtin_toy(eps)
        phi = ExactLinearMicro(system, 0.1).phi
        oracle = rk4_matrix(system.b_matrix(), 0.1, round(0.1 / (eps / 100)))
        worst = max(
            worst, np.linalg.norm(phi - oracle) / np.linalg.norm(oracle)
        )
    ok = worst <= 1e-8
    record_criterion(
        "criterion 02 exact micro vs RK4 oracle",
        ok,
        f"worst relative gap {worst:.2e} over eps in {{1e-2, 1e-3}} "
        "(tol 1e-8, RK4 substep eps/100)",
    )
    assert ok


def test_criterion_03_lattice_consistency(exact_runs_k6):
    worst = max(
        verification._consistency_violation(exact_runs_k6[1]),
        verification._consistency_violation(exact_runs_k6[2]),
    )
    ok = worst <= 1e-13
    record_criterion(
        "criterion 03 lattice consistency",
        ok,
        f"max |X - restrict(u)| / (1+|X|) = {worst:.2e} over variants 1-2, "
        "K=6 (tol 1e-13)",
    )
    assert ok


def test_criterion_04_local_exactness(exact_runs_k6):
    worst = max(
        verification._exactness_defect(exact_runs_k6[2]),
        verification._exactness_defect(exact_runs_k6[3]),
    )
    ok = worst <= 1e-12
    record_criterion(
        "criterion 04 local exactness",
        ok,
        f"max scaled defect {worst:.2e} over variants 2-3, p <= k <= 6 "
        "(tol 1e-12)",
    )
    assert ok


def test_criterion_05_macro_error_recursion(exact_runs_k6):
    worst = max(
        verification._recursion_defect(exact_runs_k6[1]),
        verification._recursion_defect(exact_runs_k6[2]),
    )
    ok = worst <= 1e-10
    record_criterion(
        "criterion 05 macro error recursion",
        ok,
        f"max |closed form - lattice| = {worst:.2e} over variants 1-2, "
        "k <= 5, n <= 100 (tol 1e-10 absolute)",
    )
    assert ok


def test_criterion_06_lifting_variant_rates(lifting_tables):
    eps = np.array(EPS_GRID)
    macro = {
        k: fit_slope(
            eps, [lifting_tables[e].final_relative(k, "macro") for e in EPS_GRID]
        ).slope
        for k in (1, 2)
    }
    micro = {
        k: fit_slope(
            eps, [lifting_tables[e].final_relative(k, "micro") for e in EPS_GRID]
        ).slope
        for k in (0, 1, 2)
    }
    overlap = max(
        abs(
            lifting_tables[e].final_relative(1, "macro")
            - lifting_tables[e].final_relative(2, "macro")
        )
        / lifting_tables[e].final_relative(1, "macro")
        for e in EPS_GRID
    )
    ok = (
        all(abs(macro[k] - 2.0) <= 0.3 for k in macro)
        and all(abs(micro[k] - 1.0) <= 0.3 for k in micro)
        and overlap <= 0.05
    )
    record_criterion(
        "criterion 06 lifting variant rates",
        ok,
        f"macro slopes k=1,2: {macro[1]:.3f}, {macro[2]:.3f} (need 2+-0.3); "
        f"micro slopes k=0..2: {micro[0]:.3f}, {micro[1]:.3f}, {micro[2]:.3f} "
        f"(need 1+-0.3); worst k1/k2 macro overlap gap {100 * overlap:.2f}% "
        "(need <= 5%)",
    )
    assert ok


def test_criterion_07_matching_variant_rates(matching_tables):
    eps = np.array(EPS_GRID)
    macro, micro = {}, {}
    for k in range(5):
        macro[k] = fit_slope(
            eps, [matching_tables[e].final_relative(k, "macro") for e in EPS_GRID]
        ).slope
        micro[k] = fit_slope(
            eps, [matching_tables[e].final_relative(k, "micro") for e in EPS_GRID]
        ).slope
    ok = all(
        abs(macro[k] - (1 + math.ceil(k / 2))) <= 0.3
        and abs(micro[k] - (1 + k // 2)) <= 0.3
        for k in range(5)
    )
    record_criterion(
        "criterion 07 matching variant rates",
        ok,
        "macro slopes k=0..4: "
        + ", ".join(f"{macro[k]:.3f}" for k in range(5))
        + " (need 1+ceil(k/2) +-0.3); micro slopes: "
        + ", ".join(f"{micro[k]:.3f}" for k in range(5))
        + " (need 1+floor(k/2) +-0.3)",
    )
    assert ok


def test_criterion_08_dae_coarse_variant_rates(dae_tables):
    eps = np.array(EPS_GRID)
    macro, micro = {}, {}
    for k in range(4):
        macro[k] = fit_slope(
            eps, [dae_tables[e].final_relative(k, "macro") for e in EPS_GRID]
        ).slope
        micro[k] = fit_slope(
            eps, [dae_tables[e].final_relative(k, "micro") for e in EPS_GRID]
        ).slope
    ok = all(
        abs(macro[k] - (k + 1)) <= 0.3 and abs(micro[k] - (k + 1)) <= 0.3
        for k in range(4)
    )
    record_criterion(
        "criterion 08 dae-coarse variant rates",
        ok,
        "macro slopes k=0..3: "
        + ", ".join(f"{macro[k]:.3f}" for k in range(4))
        + "; micro slopes: "
        + ", ".join(f"{micro[k]:.3f}" for k in range(4))
        + " (need k+1 +-0.3)",
    )
    assert ok


def test_criterion_09_step_size_dependence(dt_tables):
    """Matching with exact propagators: macro error ~ eps (eps/dt)^ceil(k/2).

    The lattice obeys the closed-form recursion of criterion 05,
    E^{k+1}_n = sum_{p<n} rho^{n-p-1} (row0(Phi) e^k_p - rho E^k_p) with
    rho = exp(-dt). Per interval, the lifted part of e^k contributes
    O(eps dt + eps^2) E^k and the off-manifold part w^k contributes
    O(eps) w^k; summing the powers of rho multiplies both by about 1/dt, so
    E^{k+1} ~ eps E^k + (eps/dt) w^k. Matching sets w^{k+1} ~ E^{k+1} - E^k
    with no sum over intervals, so one factor eps/dt is gained every two
    iterations: E^k ~ eps (eps/dt)^ceil(k/2). The eps-exponent 1+ceil(k/2)
    is criterion 07's; the slope against 1/dt is ceil(k/2) = 1, 1, 2.

    The source paper (arXiv 1204.5926) is held here as its abstract only
    (PAPER.md), which states no dt exponent, so the law rests on the
    derivation above. Over dt in {0.2, 0.1, 0.05, 0.025} and eps in
    {1e-5, 3e-5, 1e-4}, the ratio err / [eps (eps/dt)^ceil(k/2)] varies by
    a factor of at most 1.19 for each k = 0..4 (medians 4.5, 55, 9.6, 121,
    13).
    """
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    slopes = {}
    for k in (1, 2, 3):
        errs = [dt_tables[dt].final_relative(k, "macro") for dt in dts]
        slopes[k] = fit_slope(1.0 / dts, errs).slope
    ok = all(abs(slopes[k] - math.ceil(k / 2)) <= 0.3 for k in (1, 2, 3))
    record_criterion(
        "criterion 09 step-size dependence",
        ok,
        "macro slopes vs 1/dt for k=1,2,3 at eps=1e-5: "
        + ", ".join(f"{slopes[k]:.3f}" for k in (1, 2, 3))
        + " (need ceil(k/2) +-0.3 = 1, 1, 2, from the law "
        "eps (eps/dt)^ceil(k/2))",
    )
    assert ok


def test_criterion_10_euler_coarse_plateau(plateau_tables):
    eps_list = [1e-5, 1e-4, 1e-3]
    ratios = {
        e: plateau_tables[e].final_relative(8, "micro")
        / plateau_tables[e].final_relative(5, "micro")
        for e in eps_list
    }
    macro_slope = fit_slope(
        np.array(eps_list),
        [plateau_tables[e].final_relative(8, "macro") for e in eps_list],
    ).slope
    micro_slope = fit_slope(
        np.array(eps_list),
        [plateau_tables[e].final_relative(8, "micro") for e in eps_list],
    ).slope
    ok = (
        all(0.5 <= ratios[e] <= 2.0 for e in eps_list)
        and abs(macro_slope - 2.0) <= 0.3
        and abs(micro_slope - 1.0) <= 0.3
    )
    record_criterion(
        "criterion 10 euler-coarse plateau",
        ok,
        "micro error(k=8)/error(k=5): "
        + ", ".join(f"{ratios[e]:.3f}" for e in eps_list)
        + f" (need within [0.5, 2]); plateau slopes macro {macro_slope:.3f} "
        f"(need 2+-0.3), micro {micro_slope:.3f} (need 1+-0.3)",
    )
    assert ok


def test_criterion_11_matching_euler_coarse_floor():
    mins = {}
    for eps in (1e-4, 1e-3):
        table = _toy_table(2, eps, kmax=30, coarse="euler")
        mins[eps] = min(
            table.final_relative(k, "micro") for k in range(31)
        )
    ok = all(v <= 1e-10 for v in mins.values())
    record_criterion(
        "criterion 11 matching euler-coarse floor",
        ok,
        "min relative micro error over k <= 30: "
        + ", ".join(f"{mins[e]:.2e}" for e in (1e-4, 1e-3))
        + " (need <= 1e-10)",
    )
    assert ok


def test_criterion_12_scalar_parareal_baseline():
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    max_errs = {k: [] for k in (1, 2, 3)}
    for dt in dts:
        table = classic_parareal(
            math.exp(-dt), 1.0 - dt, 1.0, round(10.0 / dt), 3
        )
        for k in (1, 2, 3):
            max_errs[k].append(float(table[k].max()))
    slopes = {
        k: fit_slope(dts, max_errs[k], floor=0.0).slope for k in (1, 2, 3)
    }
    ok = all(abs(slopes[k] - (k + 1)) <= 0.3 for k in (1, 2, 3))
    record_criterion(
        "criterion 12 scalar parareal baseline",
        ok,
        "slopes of max_n error vs dt for k=1,2,3: "
        + ", ".join(f"{slopes[k]:.3f}" for k in (1, 2, 3))
        + " (need k+1 +-0.3)",
    )
    assert ok


def test_criterion_13a_quadratic_errors_decrease(quadratic_tables):
    finals = {
        eps: [quadratic_tables[eps].final_relative(k, "micro") for k in range(5)]
        for eps in (1e-4, 1e-3)
    }
    ok = all(
        all(b < a for a, b in zip(seq, seq[1:])) for seq in finals.values()
    )
    record_criterion(
        "criterion 13a quadratic errors decrease",
        ok,
        "final-time relative micro errors k=0..4, eps=1e-4: "
        + ", ".join(f"{v:.2e}" for v in finals[1e-4])
        + "; eps=1e-3: "
        + ", ".join(f"{v:.2e}" for v in finals[1e-3])
        + " (need strictly decreasing)",
    )
    assert ok


def test_criterion_13b_quadratic_order_grows(quadratic_rk4_tables):
    eps = np.array([1e-4, 1e-3])
    slopes = {
        k: fit_slope(
            eps,
            [quadratic_rk4_tables[e].final_relative(k, "micro") for e in eps],
        ).slope
        for k in (0, 2)
    }
    gain = slopes[2] - slopes[0]
    ok = gain >= 0.7
    record_criterion(
        "criterion 13b quadratic order grows",
        ok,
        f"micro eps-slopes k=0: {slopes[0]:.3f}, k=2: {slopes[2]:.3f}, "
        f"gain {gain:.3f} (need >= 0.7); matching, Euler fine, RK4 coarse "
        "resolving the macro model, so only the eps-modeling error remains",
    )
    assert ok


def test_criterion_14a_brusselator_errors_decrease(brusselator_tables):
    sups = {
        eps: [
            float(np.max(brusselator_tables[eps].rel_micro[k]))
            for k in range(5)
        ]
        for eps in (1e-4, 1e-3)
    }
    sups_macro = {
        eps: [
            float(np.max(brusselator_tables[eps].rel_macro[k]))
            for k in range(5)
        ]
        for eps in (1e-4, 1e-3)
    }
    ok = all(
        all(seq[k + 1] < seq[k] for k in range(1, 4))
        for table in (sups, sups_macro)
        for seq in table.values()
    )
    record_criterion(
        "criterion 14a brusselator errors decrease",
        ok,
        "sup-over-time relative micro errors k=1..4, eps=1e-4: "
        + ", ".join(f"{v:.2e}" for v in sups[1e-4][1:])
        + "; eps=1e-3: "
        + ", ".join(f"{v:.2e}" for v in sups[1e-3][1:])
        + " (need monotone decrease, macro likewise)",
    )
    assert ok


def test_criterion_14b_brusselator_order_grows(brusselator_rk4_tables):
    """The lift's fast value y = B does not depend on the slow state, so
    matching gains a factor eps per iteration: micro error ~ eps^(k+1).

    At k=3, eps=1e-4 that is about 2e-13, under fit_slope's default floor
    of 1e-12, so the fit floor is set from the rounding level of this
    fixture instead. Measured at eps=1e-4, micro errors for k=3 and k=4
    (k=4 is at rounding level), by RK4 coarse substeps per dt:
       5 substeps: 1.740e-13, 2.265e-15
      20 substeps: 1.786e-13, 6.205e-15   (this fixture)
     200 substeps: 1.816e-13, 3.445e-15
    The k=3 error does not depend on the coarse substep, so it is the
    modeling error; BRUSSELATOR_FIT_FLOOR = 3e-14 lies about 5x above the
    largest rounding-level error and 6x below the smallest k=3 error.
    """
    eps = np.array([1e-4, 1e-3])
    slopes = {
        k: fit_slope(
            eps,
            [brusselator_rk4_tables[e].final_relative(k, "micro") for e in eps],
            floor=BRUSSELATOR_FIT_FLOOR,
        ).slope
        for k in (1, 3)
    }
    gain = slopes[3] - slopes[1]
    ok = gain >= 1.0
    record_criterion(
        "criterion 14b brusselator order grows",
        ok,
        f"micro eps-slopes k=1: {slopes[1]:.3f}, k=3: {slopes[3]:.3f}, "
        f"gain {gain:.3f} (need >= 1.0); matching, Euler fine, RK4 coarse "
        f"resolving the macro model, fit floor {BRUSSELATOR_FIT_FLOOR:g}",
    )
    assert ok


def test_criterion_15_closeness_bound_ratios():
    diag = verification._toy_lemma_report()
    witness = verification._witness_lemma_report()
    tail_floor = float(np.min(witness.ratios["z_tail"]))
    ok = diag.ok and tail_floor >= 0.1
    record_criterion(
        "criterion 15 closeness bound ratios",
        ok,
        "ratio-family variation over eps in [1e-5, 1e-2]: "
        + ", ".join(
            f"{name} {diag.variation[name]:.2f}"
            for name in ("x_dev", "z_layer_dev", "z_tail")
        )
        + f" (need < 10); witness z_tail ratio >= {tail_floor:.3f} "
        "(floor 0.1)",
    )
    assert ok


def test_criterion_16a_worker_count_invariance(worker_runs):
    runs, _ = worker_runs
    same = verification._lattices_identical([runs[w] for w in (1, 2, 4)])
    record_criterion(
        "criterion 16a worker-count invariance",
        same,
        "lattices bit-identical across workers {1, 2, 4} "
        f"on the N=100 Euler-fine run: {same}",
    )
    assert same


def test_criterion_16b_fine_stage_scales(worker_runs):
    _, walls = worker_runs
    ok = walls[4] < walls[1]
    record_criterion(
        "criterion 16b fine stage scales",
        ok,
        f"fine-stage wall (min of 3) 1 worker {walls[1]:.3f} s vs 4 workers "
        f"{walls[4]:.3f} s (need strictly less); discriminative only with "
        ">= 4 CPUs, near parity on fewer",
    )
    assert ok


def test_criterion_16c_ideal_speedup_printed(capsys):
    code = main(["speedup", "--kmax", "6", "--fine", "exact", "--workers", "1"])
    out = capsys.readouterr().out
    ok = code == 0 and "ideal speed-up N/K = 16.6" in out
    record_criterion(
        "criterion 16c ideal speed-up printed",
        ok,
        "speedup report for N=100, K=6 prints 'ideal speed-up N/K = 16.6': "
        f"{ok}",
    )
    assert ok
