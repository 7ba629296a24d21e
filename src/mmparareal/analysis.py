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
from .propagators import _matvec, make_micro, micro_reference_trajectory
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


def compute_errors(
    run: PararealRun, system_id: str = "", member: Optional[int] = None
) -> ErrorTable:
    """Error lattices of a completed run against its reference trajectory;
    for a grid run, those of the member at index ``member``."""
    if run.reference is None:
        raise ValueError("run has no reference trajectory")
    config = run.config
    if (member is None) != (config.members is None):
        raise ValueError("a member index is needed for a grid run, and only then")
    system, u, x, ref = config.system, run.u, run.x, run.reference
    if member is not None:
        system = config.members[member]
        u, x, ref = u[:, :, member], x[:, :, member], ref[:, member]
    s = system.slow_dim
    ref_slow = ref[:, :s]

    e = u - ref[None, :, :]
    big_e = x - ref_slow[None, :, :]
    abs_micro = np.linalg.norm(e, axis=2)
    abs_macro = np.linalg.norm(big_e, axis=2)

    macro_denom = float(np.linalg.norm(ref_slow[-1]))
    micro_denom = float(np.linalg.norm(ref[-1]))
    if macro_denom == 0.0 or micro_denom == 0.0:
        raise ValueError("reference vanishes at the final time")

    return ErrorTable(
        system=system_id,
        variant=int(config.variant),
        coarse=config.macro_kind,
        fine=config.micro_kind,
        epsilon=system.epsilon,
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


def grid_tables(
    config: PararealConfig, system_id: str = "", workers: int = 1, pool=None
) -> list:
    """The error tables of an epsilon grid config, one per member, from one
    engine run; the run's lattices are dropped on return."""
    run = engine.run(config, workers=workers, pool=pool)
    return [
        compute_errors(run, system_id, member=i)
        for i in range(len(config.members))
    ]


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
    u0=None,
    floor: float = DEFAULT_FLOOR,
) -> SlopeFit:
    """Slope of the final-time relative error at iteration k versus epsilon.

    The epsilon values are one grid run whose members are
    dataclasses.replace(system_builder(eps_values[0]), epsilon=e), so the
    builder's systems may differ only in epsilon.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if eps_values.size < 2:
        raise TooFewPointsError(f"{eps_values.size} epsilon value(s), a slope needs 2")
    config = PararealConfig(
        system=system_builder(eps_values[0]), t_final=t_final, dt=dt,
        n_iterations=k, variant=variant, u0=TOY_U0 if u0 is None else u0,
        micro_kind=fine, macro_kind=coarse, substep=substep, epsilons=eps_values,
    )
    for member in config.members:
        _check_layer_separation(member, dt)
    errors = [t.final_relative(k, which) for t in grid_tables(config)]
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
    u0=None,
    floor: float = DEFAULT_FLOOR,
) -> SlopeFit:
    """Slope of the final-time error at iteration k versus 1/dt at fixed
    epsilon (positive for errors shrinking with dt); one run per dt, as N
    changes with dt."""
    dt_values = np.asarray(dt_values, dtype=float)
    system = system_builder(epsilon)
    errors = []
    for dt in dt_values:
        _check_layer_separation(system, dt)
        table = experiment_table(
            system, "", variant, coarse, fine, dt=dt, t_final=t_final,
            kmax=k, u0=TOY_U0 if u0 is None else u0, substep=substep,
        )
        errors.append(table.final_relative(k, which))
    return fit_slope(1.0 / dt_values, errors, floor=floor)


# Closeness-bound trajectories are sampled on LEMMA_N_GRID uniform intervals
# of [0, LEMMA_T_FINAL]. The bounds hold with epsilon-independent constants,
# so the flag trips when a ratio family varies by more than LEMMA_FLAG_FACTOR
# across the epsilon grid.
LEMMA_T_FINAL = 10.0
LEMMA_N_GRID = 1000
LEMMA_FLAG_FACTOR = 10.0


@dataclass(eq=False)
class LemmaDiagnostics:
    ratios: dict            # family -> array over the epsilon grid
    variation: dict         # family -> max/min over the epsilon grid
    ok: bool


def lemma_diagnostics(
    system_builder: Callable[[float], LinearFastSlowSystem], u0, eps_values
) -> LemmaDiagnostics:
    """Normalized left/right ratios of the slow-fast closeness bounds.

    For each epsilon, with z = y - (A^-1 q) x and exact trajectories sampled
    on the uniform grid of LEMMA_N_GRID intervals:

      x_dev        sup |x - x0 e^(lam t)|            / (eps (|x0| + ||z0||))
      z_layer_dev  sup ||z - e^(-A t/eps) z0||       / (eps (|x0| + ||z0||))
      z_tail       sup_{t >= t_layer} ||z||          / (eps (|x0| + ||z0||))

    The epsilons are one grid: one (n_grid+1, E, d) trajectory, and one loop
    stepping the (E, m) fast transients by their stacked decay matrices.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    members = tuple(system_builder(eps) for eps in eps_values)
    if not all(isinstance(m, LinearFastSlowSystem) for m in members):
        raise TypeError("lemma diagnostics need the linear model")
    if not members:
        raise ValueError("no epsilon values")

    h = LEMMA_T_FINAL / LEMMA_N_GRID
    times = h * np.arange(LEMMA_N_GRID + 1)
    traj = micro_reference_trajectory(
        make_micro(members, h), np.tile(u0, (len(members), 1)), LEMMA_N_GRID
    )
    x = traj[..., 0]                                        # (n_grid+1, E)
    z = traj[..., 1:] - x[..., None] * np.stack([m.a_inv_q for m in members])
    x0, z0 = u0[0], z[0]
    # One norm per member: the norms of a whole row are not bitwise theirs.
    denom = np.array(
        [eps * (abs(x0) + np.linalg.norm(w)) for eps, w in zip(eps_values, z0)]
    )
    if np.any(denom == 0.0):
        raise ValueError("trivial initial condition, ratios undefined")
    tail = times[:, None] >= [m.boundary_layer_time() for m in members]
    if not tail[-1].all():
        raise ValueError("an epsilon has no samples after its boundary layer")

    # Fast transient e^(-A t/eps) z0 accumulated with the same grid step.
    decay_step = np.stack(
        [linalg.mat_exp(-m.A * (h / eps)) for eps, m in zip(eps_values, members)]
    )
    z_layer = np.empty_like(z)
    z_layer[0] = w = z0
    for j in range(LEMMA_N_GRID):
        w = _matvec(decay_step, w)
        z_layer[j + 1] = w

    lam = np.array([m.macro_rate() for m in members])
    ratios = {
        "x_dev": np.max(np.abs(x - x0 * np.exp(lam * times[:, None])), axis=0),
        "z_layer_dev": np.max(np.linalg.norm(z - z_layer, axis=-1), axis=0),
        "z_tail": np.max(np.linalg.norm(z, axis=-1), axis=0, where=tail, initial=0.0),
    }
    ratios = {name: r / denom for name, r in ratios.items()}
    variation = {
        name: float(np.max(r) / np.min(r)) if np.min(r) != 0.0 else math.inf
        for name, r in ratios.items()
    }
    ok = all(v <= LEMMA_FLAG_FACTOR for v in variation.values())
    return LemmaDiagnostics(ratios=ratios, variation=variation, ok=ok)


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
    # Summed slab seconds over the fine-stage wall; not a speed-up (below).
    measured_ratio: Optional[float]


def speedup_report(run: PararealRun) -> SpeedupReport:
    """Ideal N/K speed-up and the measured ratio of the fine stage.

    The measured ratio is the summed slab seconds, each timed inside its
    task, over the fine stage's wall time, summed over the iterations. It is
    about 1 for one worker. It is not a speed-up: with more workers than
    CPUs each slab's seconds include the time its process waits for a CPU,
    which inflates the sum, and iteration 0's wall includes forking the
    pool. So it can exceed 1 while the fine stage gets slower; compare the
    fine-stage walls across worker counts for that.
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
