"""Error measurement, convergence-order estimation, and bound diagnostics.

Errors are always measured against the sequential fine trajectory, so they
vanish identically when the iteration reproduces the fine solver, and they
coincide with errors against the exact solution whenever the fine propagator
is exact. Relative errors divide by the reference magnitude at the final
time for every n.

Convergence orders are read off as least-squares slopes in log-log space,
with a configurable floor that drops points sitting at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import engine, linalg
from .engine import AlgorithmVariant, PararealConfig, PararealRun
from .propagators import ExactLinearMicro, micro_reference_trajectory
from .systems import LinearFastSlowSystem, builtin_toy

# Relative errors below this are treated as machine-precision noise.
DEFAULT_FLOOR = 1e-12

TOY_U0 = np.array([1.0, 0.0, 0.0])


class TooFewPointsError(Exception):
    """Fewer than two points above the floor; no slope can be fitted."""


@dataclass(eq=False)
class ErrorTable:
    """Per-(k, n) error lattice for one run, plus provenance metadata."""

    system: str
    variant: int
    coarse: str
    fine: str
    epsilon: float
    dt: float
    t_final: float
    n_intervals: int
    n_iterations: int
    abs_macro: np.ndarray   # (K+1, N+1) |x[k][n] - restrict(ref[n])|
    abs_micro: np.ndarray   # (K+1, N+1) ||u[k][n] - ref[n]||
    rel_macro: np.ndarray
    rel_micro: np.ndarray
    macro_denominator: float
    micro_denominator: float

    def final_relative(self, k: int, which: str) -> float:
        if which == "macro":
            return float(self.rel_macro[k, -1])
        if which == "micro":
            return float(self.rel_micro[k, -1])
        raise ValueError(f"which must be 'macro' or 'micro', got {which!r}")


def compute_errors(run: PararealRun, system_id: str = "") -> ErrorTable:
    """Error lattices of a completed run against its reference trajectory."""
    if run.reference is None:
        raise ValueError("run has no reference trajectory")
    config = run.config
    s = config.system.slow_dim
    ref = run.reference
    ref_slow = ref[:, :s]

    e = run.u - ref[None, :, :]
    big_e = run.x - ref_slow[None, :, :]
    abs_micro = np.linalg.norm(e, axis=2)
    abs_macro = np.linalg.norm(big_e, axis=2)

    macro_denom = float(np.linalg.norm(ref_slow[-1]))
    micro_denom = float(np.linalg.norm(ref[-1]))
    if macro_denom == 0.0 or micro_denom == 0.0:
        raise ValueError("reference vanishes at the final time")

    eps = float(getattr(config.system, "epsilon", math.nan))
    return ErrorTable(
        system=system_id,
        variant=int(config.variant),
        coarse=config.macro_kind,
        fine=config.micro_kind,
        epsilon=eps,
        dt=config.dt,
        t_final=config.t_final,
        n_intervals=config.n_intervals,
        n_iterations=config.n_iterations,
        abs_macro=abs_macro,
        abs_micro=abs_micro,
        rel_macro=abs_macro / macro_denom,
        rel_micro=abs_micro / micro_denom,
        macro_denominator=macro_denom,
        micro_denominator=micro_denom,
    )


@dataclass(eq=False)
class SlopeFit:
    xs: np.ndarray
    ys: np.ndarray
    slope: float
    intercept: float
    n_points: int
    floor: float


def fit_slope(xs, ys, floor: float = DEFAULT_FLOOR) -> SlopeFit:
    """Least-squares line through (ln x, ln y), keeping only y > floor."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if np.any(xs <= 0):
        raise ValueError("abscissas must be positive")
    keep = ys > floor
    if np.count_nonzero(keep) < 2:
        raise TooFewPointsError(
            f"only {np.count_nonzero(keep)} point(s) above floor {floor:g}"
        )
    xs_used, ys_used = xs[keep], ys[keep]
    slope, intercept = np.polyfit(np.log(xs_used), np.log(ys_used), 1)
    return SlopeFit(
        xs=xs_used,
        ys=ys_used,
        slope=float(slope),
        intercept=float(intercept),
        n_points=int(xs_used.size),
        floor=floor,
    )


def experiment_table(
    system,
    system_id: str,
    variant,
    coarse: str,
    fine: str,
    dt: float,
    t_final: float,
    kmax: int,
    u0,
    substep: Optional[float] = None,
    workers: int = 1,
) -> ErrorTable:
    """Run one configuration end to end and tabulate its errors."""
    config = PararealConfig(
        system=system,
        t_final=t_final,
        dt=dt,
        n_iterations=kmax,
        variant=variant,
        u0=u0,
        micro_kind=fine,
        macro_kind=coarse,
        substep=substep,
    )
    return compute_errors(engine.run(config, workers=workers), system_id=system_id)


def _check_layer_separation(system, dt: float):
    """The rate statements assume the coupling step clears the fast layer."""
    if isinstance(system, LinearFastSlowSystem):
        t_bl = system.boundary_layer_time()
        if not (dt > t_bl):
            raise ValueError(
                f"dt = {dt:g} does not exceed the boundary layer "
                f"{t_bl:g} at epsilon = {system.epsilon:g}"
            )


def _final_errors(points, k, which, system_builder, u0, **table_args):
    """Final-time relative error at iteration k for each (epsilon, dt)."""
    start = TOY_U0 if u0 is None else u0
    errors = []
    for eps, dt in points:
        system = system_builder(eps)
        _check_layer_separation(system, dt)
        table = experiment_table(system, dt=dt, kmax=k, u0=start, **table_args)
        errors.append(table.final_relative(k, which))
    return np.array(errors)


def epsilon_order(
    variant,
    coarse: str,
    k: int,
    eps_values,
    dt: float = 0.1,
    t_final: float = 10.0,
    which: str = "macro",
    fine: str = "exact",
    substep: Optional[float] = None,
    system_builder: Callable[[float], object] = builtin_toy,
    system_id: str = "toy",
    u0=None,
    floor: float = DEFAULT_FLOOR,
) -> SlopeFit:
    """Slope of the final-time relative error at iteration k versus epsilon."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = _final_errors(
        [(eps, dt) for eps in eps_values], k, which, system_builder, u0,
        system_id=system_id, variant=variant, coarse=coarse, fine=fine,
        t_final=t_final, substep=substep,
    )
    return fit_slope(eps_values, errors, floor=floor)


def dt_order(
    k: int,
    dt_values,
    epsilon: float = 1e-5,
    variant=AlgorithmVariant.MATCHING,
    coarse: str = "exact",
    fine: str = "exact",
    t_final: float = 10.0,
    which: str = "macro",
    substep: Optional[float] = None,
    system_builder: Callable[[float], object] = builtin_toy,
    system_id: str = "toy",
    u0=None,
    floor: float = DEFAULT_FLOOR,
) -> SlopeFit:
    """Slope of the final-time error at iteration k versus 1/dt at fixed
    epsilon (positive for errors shrinking with dt)."""
    dt_values = np.asarray(dt_values, dtype=float)
    errors = _final_errors(
        [(epsilon, dt) for dt in dt_values], k, which, system_builder, u0,
        system_id=system_id, variant=variant, coarse=coarse, fine=fine,
        t_final=t_final, substep=substep,
    )
    return fit_slope(1.0 / dt_values, errors, floor=floor)


# Families whose factor-10 stability across epsilon is asserted; the two
# supremum families below are reported but informational.
LEMMA_FAMILIES = ("x_dev", "z_layer_dev", "z_tail")
ALL_FAMILIES = ("x_dev", "z_layer_dev", "z_tail", "x_sup", "y_tail_sup")


@dataclass(eq=False)
class LemmaDiagnostics:
    eps_values: np.ndarray
    ratios: dict            # family -> array over eps_values
    variation: dict         # family -> max/min over the flagged eps range
    flagged_eps: np.ndarray
    flag_factor: float
    ok: bool


def lemma_diagnostics(
    system_builder: Callable[[float], LinearFastSlowSystem],
    u0,
    eps_values,
    t_final: float = 10.0,
    n_grid: int = 1000,
    flag_factor: float = 10.0,
    eps_exclude_above: Optional[float] = None,
) -> LemmaDiagnostics:
    """Normalized left/right ratios of the slow-fast closeness bounds.

    For each epsilon, with z = y - (A^-1 q) x and exact trajectories sampled
    on a uniform grid of n_grid intervals:

      x_dev        sup |x - x0 e^(lam t)|            / (eps (|x0| + ||z0||))
      z_layer_dev  sup ||z - e^(-A t/eps) z0||       / (eps (|x0| + ||z0||))
      z_tail       sup_{t >= t_layer} ||z||          / (eps (|x0| + ||z0||))
      x_sup        sup |x|                           / (|x0| + eps ||y0||)
      y_tail_sup   sup_{t >= t_layer} ||y||          / (|x0| + eps ||y0||)

    The bounds hold with epsilon-independent constants, so each ratio family
    should stay within a modest band across the sweep; the flag trips when a
    family in LEMMA_FAMILIES varies by more than flag_factor. Ratios at
    eps >= eps_exclude_above are reported but not flagged (the statements
    only claim a constant below some epsilon threshold).
    """
    eps_values = np.asarray(eps_values, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    ratios = {name: np.empty(eps_values.size) for name in ALL_FAMILIES}

    for i, eps in enumerate(eps_values):
        system = system_builder(eps)
        if not isinstance(system, LinearFastSlowSystem):
            raise TypeError("lemma diagnostics need the linear model")
        x0 = u0[0]
        y0 = u0[1:]
        z0 = system.slow_manifold_offset(u0)
        lemma_denom = eps * (abs(x0) + np.linalg.norm(z0))
        cor_denom = abs(x0) + eps * np.linalg.norm(y0)
        if lemma_denom == 0.0 or cor_denom == 0.0:
            raise ValueError("trivial initial condition, ratios undefined")

        h = t_final / n_grid
        times = h * np.arange(n_grid + 1)
        traj = micro_reference_trajectory(
            ExactLinearMicro(system, h), u0, n_grid
        )

        x = traj[:, 0]
        z = traj[:, 1:] - np.outer(x, system.a_inv_q)

        # Fast transient e^(-A t/eps) z0 accumulated with the same grid step.
        decay_step = linalg.mat_exp(-system.A * (h / eps))
        z_layer = np.empty_like(z)
        w = z0.copy()
        z_layer[0] = w
        for j in range(n_grid):
            w = decay_step @ w
            z_layer[j + 1] = w

        lam = system.macro_rate()
        tail = times >= system.boundary_layer_time()

        ratios["x_dev"][i] = np.max(np.abs(x - x0 * np.exp(lam * times))) / lemma_denom
        ratios["z_layer_dev"][i] = (
            np.max(np.linalg.norm(z - z_layer, axis=1)) / lemma_denom
        )
        ratios["z_tail"][i] = (
            np.max(np.linalg.norm(z[tail], axis=1)) / lemma_denom
        )
        ratios["x_sup"][i] = np.max(np.abs(x)) / cor_denom
        ratios["y_tail_sup"][i] = (
            np.max(np.linalg.norm(traj[tail, 1:], axis=1)) / cor_denom
        )

    if eps_exclude_above is None:
        flagged = np.ones(eps_values.size, dtype=bool)
    else:
        flagged = eps_values < eps_exclude_above
    variation = {}
    for name in ALL_FAMILIES:
        vals = ratios[name][flagged]
        if vals.size == 0 or np.min(vals) == 0.0:
            variation[name] = math.inf
        else:
            variation[name] = float(np.max(vals) / np.min(vals))
    ok = all(variation[name] <= flag_factor for name in LEMMA_FAMILIES)

    return LemmaDiagnostics(
        eps_values=eps_values,
        ratios=ratios,
        variation=variation,
        flagged_eps=eps_values[flagged],
        flag_factor=flag_factor,
        ok=ok,
    )


def sharpness_witness(epsilon: float) -> LinearFastSlowSystem:
    """Decoupled scalar pair whose slaved offset is of size epsilon exactly:
    dx/dt = -x, dy/dt = (x - y)/epsilon. After the initial layer,
    z = y - x tracks eps x/(1 - eps), so the z_tail ratio stays near 1/2."""
    return LinearFastSlowSystem(
        alpha=-1.0, p=[0.0], q=[1.0], A=[[1.0]], epsilon=epsilon
    )


@dataclass(eq=False)
class SpeedupReport:
    n_intervals: int
    n_iterations: int
    ideal: Optional[float]          # N/K, None when K = 0
    fine_wall_seconds: float
    fine_task_seconds: float
    measured_ratio: Optional[float]  # summed task time / fine-stage wall time


def speedup_report(run: PararealRun) -> SpeedupReport:
    """Ideal N/K speed-up and the measured fine-stage parallel efficiency.

    The measured ratio compares the summed per-task seconds (what a single
    worker would spend) with the fine-stage wall-clock; it is about 1 for
    one worker and approaches the worker count with perfect scaling.
    """
    config = run.config
    n, k = config.n_intervals, config.n_iterations
    wall = float(sum(run.timings.fine_wall))
    tasks = float(sum(run.timings.fine_task_seconds))
    measured = tasks / wall if (k > 0 and wall > 0) else None
    return SpeedupReport(
        n_intervals=n,
        n_iterations=k,
        ideal=(n / k) if k > 0 else None,
        fine_wall_seconds=wall,
        fine_task_seconds=tasks,
        measured_ratio=measured,
    )


def format_ideal_speedup(ideal: float) -> str:
    """One-decimal truncation: 100/6 prints as 16.6."""
    return f"{math.floor(ideal * 10.0) / 10.0:.1f}"
