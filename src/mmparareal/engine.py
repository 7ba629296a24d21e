"""Coupled micro-macro time-parallel iteration.

The time horizon [0, T] is cut into N = T/dt intervals. One run keeps two
lattices indexed by iteration k and interval endpoint n:

    x[k][n]  slow state at t_n after k corrections,
    u[k][n]  full state at t_n after k corrections.

Iteration k -> k+1 proceeds in the classic predictor-corrector shape:

  (2a) from row k, advance every interval independently: fine endpoints
       ubar[n+1] = F(u[k][n]) (the only parallel region) and coarse
       predictions xbar[n+1] = C(x[k][n]);
  (2b) jumps j[n+1] = restrict(ubar[n+1]) - xbar[n+1];
  (2c) sequential corrected sweep x[k+1][n+1] = C(x[k+1][n]) + j[n+1];
  (2d) rebuild full states, by variant:
       LIFTING      u[k+1][n+1] = lift(x[k+1][n+1])
       MATCHING     u[k+1][n+1] = match(x[k+1][n+1], ubar[n+1])
       DAE_COARSE   u[k+1][n+1] = ubar[n+1]
                        + lift(C(restrict(u[k+1][n])) - C(restrict(u[k][n])))

The jumps (2b) and the LIFTING and MATCHING rebuilds (2d) are row
operations: the transfer maps and the macro step act on all N intervals at
once. The sweep (2c) and the DAE_COARSE rebuild need the new value at n to
compute n+1, so they stay sequential.

DAE_COARSE is the plain parareal iteration whose coarse propagator is the
composition lift . C . restrict; that identification only holds for the
linear model, so the variant rejects nonlinear systems.

Determinism: the fine stage is a pure map with an ordered gather and every
sweep reduces in ascending n, so lattices are bit-identical for any worker
count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from math import ceil
from typing import Optional

import multiprocessing
import numpy as np

from .propagators import make_macro, make_micro, micro_reference_trajectory
from .systems import NonlinearFastSlowSystem
from .transfer import TransferSet, transfer_for


class AlgorithmVariant(IntEnum):
    LIFTING = 1
    MATCHING = 2
    DAE_COARSE = 3


class InconsistentRowError(Exception):
    """An iteration was requested from a row that is not populated yet."""


@dataclass(eq=False)
class PararealConfig:
    system: object
    t_final: float
    dt: float
    n_iterations: int
    variant: AlgorithmVariant
    u0: np.ndarray
    micro_kind: str = "exact"
    macro_kind: str = "exact"
    substep: Optional[float] = None
    with_reference: bool = True

    def __post_init__(self):
        self.t_final = float(self.t_final)
        self.dt = float(self.dt)
        self.n_iterations = int(self.n_iterations)
        self.variant = AlgorithmVariant(self.variant)
        if not (self.t_final > 0 and self.dt > 0):
            raise ValueError("t_final and dt must be positive")
        ratio = self.t_final / self.dt
        n = round(ratio)
        if n < 1 or abs(ratio - n) > 1e-9 * ratio:
            raise ValueError(f"t_final/dt = {ratio!r} must be a positive integer")
        self.n_intervals = n
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.u0.shape != (self.system.dim,):
            raise ValueError(
                f"u0 must have shape ({self.system.dim},), got {self.u0.shape}"
            )
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("u0 must be finite")
        if self.variant is AlgorithmVariant.DAE_COARSE and isinstance(
            self.system, NonlinearFastSlowSystem
        ):
            raise ValueError(
                "DAE_COARSE is only defined through the linear coarse model"
            )


@dataclass
class RunTimings:
    init_seconds: float = 0.0
    reference_seconds: float = 0.0
    # One entry per iteration.
    fine_wall: list = field(default_factory=list)
    fine_task_seconds: list = field(default_factory=list)
    sweep_wall: list = field(default_factory=list)


@dataclass(eq=False)
class PararealRun:
    config: PararealConfig
    u: np.ndarray              # (K+1, N+1, d)
    x: np.ndarray              # (K+1, N+1, s)
    fine_endpoints: np.ndarray  # (K, N+1, d); slot [k][0] stays NaN
    reference: Optional[np.ndarray]
    timings: RunTimings
    micro_prop: object
    macro_prop: object
    transfer: TransferSet
    rows_filled: int = 1


def _timed_fine_step(prop, u):
    t0 = time.perf_counter()
    v = prop.step(u)
    return v, time.perf_counter() - t0


def init_sweep(config: PararealConfig) -> PararealRun:
    """Row 0: coarse-only sweep of the slow state, lifted to full states.

    u[0][0] is the given initial condition, not its lifted slow part.
    """
    t0 = time.perf_counter()
    system = config.system
    micro = make_micro(system, config.dt, config.micro_kind, config.substep)
    macro = make_macro(system, config.dt, config.macro_kind)
    tset = transfer_for(system)

    k_max, n = config.n_iterations, config.n_intervals
    d, s = system.dim, system.slow_dim
    u = np.full((k_max + 1, n + 1, d), np.nan)
    x = np.full((k_max + 1, n + 1, s), np.nan)
    fine_endpoints = np.full((k_max, n + 1, d), np.nan)

    u[0][0] = config.u0
    x[0][0] = tset.restrict(config.u0)
    for j in range(n):
        x[0][j + 1] = macro.step(x[0][j])
    u[0][1:] = tset.lift(x[0][1:])

    timings = RunTimings(init_seconds=time.perf_counter() - t0)
    return PararealRun(
        config=config,
        u=u,
        x=x,
        fine_endpoints=fine_endpoints,
        reference=None,
        timings=timings,
        micro_prop=micro,
        macro_prop=macro,
        transfer=tset,
    )


def parareal_iteration(run: PararealRun, k: int, workers: int = 1, pool=None):
    """Fill row k+1 from row k (steps 2a-2d above)."""
    config = run.config
    if k >= run.rows_filled:
        raise InconsistentRowError(f"row {k} is not populated yet")
    if k >= config.n_iterations:
        raise ValueError(f"row {k + 1} exceeds configured iterations")
    n = config.n_intervals
    micro, macro, tset = run.micro_prop, run.macro_prop, run.transfer

    # (2a) fine endpoints: pure map over row k, gathered in index order.
    states = [run.u[k][j] for j in range(n)]
    t0 = time.perf_counter()
    if pool is not None and workers > 1:
        chunk = ceil(n / workers)
        results = list(
            pool.map(partial(_timed_fine_step, micro), states, chunksize=chunk)
        )
    else:
        results = [_timed_fine_step(micro, u) for u in states]
    run.timings.fine_wall.append(time.perf_counter() - t0)
    run.timings.fine_task_seconds.append(sum(sec for _, sec in results))
    run.fine_endpoints[k][1:] = [v for v, _ in results]
    ubar = run.fine_endpoints[k]

    t0 = time.perf_counter()
    # (2a, coarse part) and (2b): jumps[j] is the jump on interval j+1.
    jumps = tset.restrict(ubar[1:]) - macro.step(run.x[k][:-1])

    # (2c) corrected sequential sweep, ascending n for determinism.
    run.x[k + 1][0] = tset.restrict(config.u0)
    for j in range(n):
        run.x[k + 1][j + 1] = macro.step(run.x[k + 1][j]) + jumps[j]

    # (2d) rebuild the full states.
    run.u[k + 1][0] = config.u0
    variant = config.variant
    if variant is AlgorithmVariant.LIFTING:
        run.u[k + 1][1:] = tset.lift(run.x[k + 1][1:])
    elif variant is AlgorithmVariant.MATCHING:
        run.u[k + 1][1:] = tset.match(run.x[k + 1][1:], ubar[1:])
    else:  # DAE_COARSE: u[k+1][j+1] needs u[k+1][j], so it is sequential
        for j in range(n):
            delta = macro.step(tset.restrict(run.u[k + 1][j])) - macro.step(
                tset.restrict(run.u[k][j])
            )
            run.u[k + 1][j + 1] = ubar[j + 1] + tset.lift(delta)
    run.timings.sweep_wall.append(time.perf_counter() - t0)

    run.rows_filled = max(run.rows_filled, k + 2)


def run(config: PararealConfig, workers: int = 1) -> PararealRun:
    """Init sweep, reference trajectory, then K correction iterations."""
    r = init_sweep(config)

    if config.with_reference:
        t0 = time.perf_counter()
        r.reference = micro_reference_trajectory(
            r.micro_prop, config.u0, config.n_intervals
        )
        r.timings.reference_seconds = time.perf_counter() - t0

    pool = None
    try:
        if workers > 1 and config.n_iterations > 0:
            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        for k in range(config.n_iterations):
            parareal_iteration(r, k, workers=workers, pool=pool)
    finally:
        if pool is not None:
            pool.shutdown()
    return r


def classic_parareal(
    rho_fine: float, rho_coarse: float, u0: float, n_steps: int, k_max: int
) -> np.ndarray:
    """Plain scalar parareal baseline.

    Runs u[k+1][n+1] = G u[k+1][n] + F u[k][n] - G u[k][n] for the scalar
    linear problem with fine multiplier rho_fine and coarse multiplier
    rho_coarse, and returns |u[k][n] - rho_fine^n u0| with shape
    (k_max+1, n_steps+1).
    """
    if n_steps < 1 or k_max < 0:
        raise ValueError("need n_steps >= 1 and k_max >= 0")
    # Sequential products, so rho_fine = rho_coarse leaves exactly zero error.
    ref = np.empty(n_steps + 1)
    ref[0] = u0
    for j in range(n_steps):
        ref[j + 1] = rho_fine * ref[j]
    u = np.empty((k_max + 1, n_steps + 1))
    u[:, 0] = u0
    for j in range(n_steps):
        u[0][j + 1] = rho_coarse * u[0][j]
    for k in range(k_max):
        for j in range(n_steps):
            u[k + 1][j + 1] = (
                rho_coarse * u[k + 1][j]
                + rho_fine * u[k][j]
                - rho_coarse * u[k][j]
            )
    return np.abs(u - ref)
