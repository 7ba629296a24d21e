"""Coupled micro-macro time-parallel iteration.

The time horizon [0, T] is cut into N = T/dt intervals. One run keeps two
lattices indexed by iteration k and interval endpoint n:

    x[k][n]  slow state at t_n after k corrections,
    u[k][n]  full state at t_n after k corrections.

Iteration k -> k+1 proceeds in the classic predictor-corrector shape:

  (2a) from row k, advance every interval independently: fine endpoints
       ubar[n+1] = F(u[k][n]) (the only parallel region: one task per
       contiguous slab of the row, each slab stepped by one call of the
       micro propagator on its (n, d) row, gathered in slab order) and
       coarse predictions xbar[n+1] = C(x[k][n]);
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

An epsilon grid is one run: PararealConfig(epsilons=...) makes
the members dataclasses.replace(system, epsilon=e), which share the slow
model and the transfer maps, and the lattices get the grid as an axis after
the interval axis, (K+1, N+1, E, d). Only the micro propagator sees epsilon;
every other step acts on the last axis and broadcasts over the grid, so the
sweep (2c) makes N Python steps for all E members at once, and member e's
slice is bitwise the lattice of its own run. The reference is one
sequential trajectory per member; with a pool its tasks run beside the
iterations.

DAE_COARSE is the plain parareal iteration whose coarse propagator is the
composition lift . C . restrict; that identification only holds for the
linear model, so the variant rejects nonlinear systems.

Determinism: the fine stage is a pure map over contiguous slabs (one per
worker, or the whole row without a pool) with an ordered gather, a row step
is bitwise the steps of its states one by one, and every sweep reduces in
ascending n, so lattices are bit-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from typing import Optional

import multiprocessing
import numpy as np

from .propagators import (
    NonFiniteStateError,
    make_macro,
    make_micro,
    micro_reference_trajectory,
    step_count,
)
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
    epsilons: Optional[tuple] = None

    def __post_init__(self):
        self.t_final = float(self.t_final)
        self.dt = float(self.dt)
        self.n_iterations = int(self.n_iterations)
        self.variant = AlgorithmVariant(self.variant)
        if not (self.t_final > 0 and self.dt > 0):
            raise ValueError("t_final and dt must be positive")
        self.n_intervals = step_count(self.t_final, self.dt, "t_final/dt")
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
        # The grid members, or None for a plain run of config.system.
        self.members = None
        if self.epsilons is not None:
            self.epsilons = tuple(float(e) for e in self.epsilons)
            if not self.epsilons:
                raise ValueError("epsilons must not be empty")
            self.members = tuple(
                dataclasses.replace(self.system, epsilon=e) for e in self.epsilons
            )
        # The run's propagators, built here so that an unknown kind, an exact
        # propagator of a nonlinear system, an inexact dt/substep and every
        # member's Euler stiffness guard reject the config before any run.
        self.micro_prop = make_micro(
            self.system if self.members is None else self.members,
            self.dt, self.micro_kind, self.substep,
        )
        self.macro_prop = make_macro(self.system, self.dt, self.macro_kind)


@dataclass
class RunTimings:
    # One entry per iteration.
    fine_wall: list = field(default_factory=list)
    fine_task_seconds: list = field(default_factory=list)
    sweep_wall: list = field(default_factory=list)


@dataclass(eq=False)
class PararealRun:
    config: PararealConfig
    u: np.ndarray              # (K+1, N+1, d), on a grid (K+1, N+1, E, d)
    x: np.ndarray              # (K+1, N+1, s), on a grid (K+1, N+1, E, s)
    reference: Optional[np.ndarray]  # (N+1, d), on a grid (N+1, E, d)
    timings: RunTimings
    micro_prop: object
    macro_prop: object
    transfer: TransferSet
    rows_filled: int = 1


def _fine_slab(prop, states):
    """Fine endpoints of a slab of states, stepped as one row, and the
    slab's seconds."""
    t0 = time.perf_counter()
    ends = prop.step(states)
    return ends, time.perf_counter() - t0


def init_sweep(config: PararealConfig) -> PararealRun:
    """Row 0: coarse-only sweep of the slow state, lifted to full states.

    u[0][0] is the given initial condition, not its lifted slow part.
    """
    system, macro = config.system, config.macro_prop
    tset = transfer_for(system)

    k_max, n = config.n_iterations, config.n_intervals
    grid = () if config.members is None else (len(config.members),)
    u = np.full((k_max + 1, n + 1, *grid, system.dim), np.nan)
    x = np.full((k_max + 1, n + 1, *grid, system.slow_dim), np.nan)

    u[0][0] = config.u0
    x0 = x[0]
    x0[0] = tset.restrict(config.u0)
    for j in range(n):
        x0[j + 1] = macro.step(x0[j])
    u[0][1:] = tset.lift(x0[1:])

    return PararealRun(
        config=config,
        u=u,
        x=x,
        reference=None,
        timings=RunTimings(),
        micro_prop=config.micro_prop,
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

    # A blow-up is re-raised naming where it happened.
    stage = "2a (fine)"
    try:
        # (2a) fine endpoints: pure map over contiguous slabs of row k,
        # gathered in slab order; ubar[j] is the endpoint of interval j+1.
        if pool is None:
            slabs, mapper = [run.u[k][:-1]], map
        else:
            slabs, mapper = np.array_split(run.u[k][:-1], workers), pool.map
        t0 = time.perf_counter()
        results = list(mapper(partial(_fine_slab, micro), slabs))
        run.timings.fine_wall.append(time.perf_counter() - t0)
        run.timings.fine_task_seconds.append(sum(sec for _, sec in results))
        ubar = np.concatenate([ends for ends, _ in results])

        stage = "2b (jumps)"
        t0 = time.perf_counter()
        # (2a, coarse part) and (2b): jumps[j] is the jump on interval j+1.
        jumps = tset.restrict(ubar) - macro.step(run.x[k][:-1])

        stage = "2c (corrected sweep)"
        # (2c) corrected sequential sweep, ascending n for determinism.
        x_new = run.x[k + 1]
        x_new[0] = tset.restrict(config.u0)
        for j in range(n):
            x_new[j + 1] = macro.step(x_new[j]) + jumps[j]

        stage = "2d (rebuild)"
        # (2d) rebuild the full states.
        u_new = run.u[k + 1]
        u_new[0] = config.u0
        variant = config.variant
        if variant is AlgorithmVariant.LIFTING:
            u_new[1:] = tset.lift(x_new[1:])
        elif variant is AlgorithmVariant.MATCHING:
            u_new[1:] = tset.match(x_new[1:], ubar)
        else:  # DAE_COARSE: u[k+1][j+1] needs u[k+1][j], so it is sequential
            old_coarse = macro.step(tset.restrict(run.u[k][:-1]))
            for j in range(n):
                delta = macro.step(tset.restrict(u_new[j])) - old_coarse[j]
                u_new[j + 1] = ubar[j] + tset.lift(delta)
        run.timings.sweep_wall.append(time.perf_counter() - t0)
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(
            f"{exc}; iteration {k}, stage {stage}, dt={config.dt!r}"
        ) from exc
    run.rows_filled = max(run.rows_filled, k + 2)


def _member_reference(prop, u0: np.ndarray, n: int) -> np.ndarray:
    # A pool task pickles the function it runs by name, and a wrapper
    # installed over micro_reference_trajectory (perfbench's tracer installs
    # one) would not pickle; this function looks it up in the worker.
    try:
        return micro_reference_trajectory(prop, u0, n)
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(
            f"{exc}; in the reference, dt={prop.dt!r}"
        ) from exc


def _run_now(func, *args) -> Future:
    """func(*args), called here and now, as a finished Future."""
    future = Future()
    future.set_result(func(*args))
    return future


def run(config: PararealConfig, workers: int = 1, pool=None) -> PararealRun:
    """Init sweep, reference trajectory, then K correction iterations.

    With workers > 1 the run forks its own pool and shuts it down on return,
    unless the caller passes one in pool, which the run uses and leaves
    running. The reference is one sequential trajectory per member, by its
    own micro propagator. It never feeds the iteration, so with a pool it is
    submitted as one task per member before iteration 0 and gathered after
    the last iteration; without one it is stepped first, in this process.
    """
    r = init_sweep(config)

    own_pool = pool is None and workers > 1
    references = []
    try:
        if own_pool:
            pool = worker_pool(workers)
        if config.with_reference:
            props = [r.micro_prop] if config.members is None else [
                make_micro(m, config.dt, config.micro_kind, config.substep)
                for m in config.members
            ]
            submit = _run_now if pool is None else pool.submit
            references = [
                submit(_member_reference, p, config.u0, config.n_intervals)
                for p in props
            ]
        for k in range(config.n_iterations):
            parareal_iteration(r, k, workers=workers, pool=pool)
        if references:
            trajectories = [future.result() for future in references]
            r.reference = (
                trajectories[0] if config.members is None
                else np.stack(trajectories, axis=1)
            )
    finally:
        # After an error, reference tasks still queued do not run.
        for future in references:
            future.cancel()
        if own_pool:
            pool.shutdown(cancel_futures=True)
    return r


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of forked workers; it forks them on its first task, not here."""
    ctx = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


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
