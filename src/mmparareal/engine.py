"""Coupled micro-macro time-parallel iteration.

The time horizon [0, T] is cut into N = T/dt intervals. One run keeps two
lattices indexed by iteration k and interval endpoint n:

    x[k][n]  slow state at t_n after k corrections,
    u[k][n]  full state at t_n after k corrections.

Iteration k -> k+1 proceeds in the classic predictor-corrector shape:

  (2a) from row k, advance every interval independently: fine endpoints
       ubar[n+1] = F(u[k][n]) (the only parallel region: the row is cut
       into contiguous slabs, each stepped by one call of the micro
       propagator on its (n, d) row and gathered in slab order; with a
       pool, the calling process steps slab 0 and the pool's workers the
       others, each slab a concurrent.futures.Future that this process
       completes by driving the pool) and coarse predictions
       xbar[n+1] = C(x[k][n]);
  (2b) jumps j[n+1] = restrict(ubar[n+1]) - xbar[n+1];
  (2c) sequential corrected sweep x[k+1][n+1] = C(x[k+1][n]) + j[n+1];
  (2d) rebuild full states, by variant:
       LIFTING      u[k+1][n+1] = lift(x[k+1][n+1])
       MATCHING     u[k+1][n+1] = match(x[k+1][n+1], ubar[n+1])
       DAE_COARSE   u[k+1][n+1] = ubar[n+1]
                        + lift(C(restrict(u[k+1][n])) - C(restrict(u[k][n])))

F, C and the transfer maps (restrict, lift, match) belong to the
PararealConfig, which builds them once (micro_prop, macro_prop, transfer);
every run of the config steps with them, and a PararealRun holds only what
it computed: the lattices, the reference, the timings and the rows filled.

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

Determinism: the fine stage is a pure map over contiguous slabs (at most
one per worker, with or without a pool) with an ordered gather, a row step
is bitwise the steps of its states one by one, and every sweep reduces in
ascending n, so lattices are bit-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import pickle
import time
from collections import deque
from concurrent.futures import Executor, Future
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from multiprocessing import connection, get_context
from typing import Optional

import numpy as np

from .propagators import (
    NonFiniteStateError,
    make_macro,
    make_micro,
    micro_reference_trajectory,
    orbit,
    step_count,
)
from .systems import NonlinearFastSlowSystem
from .transfer import transfer_for


class AlgorithmVariant(IntEnum):
    LIFTING = 1
    MATCHING = 2
    DAE_COARSE = 3


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
        # numpy cannot represent a float64 lattice past its index type's range.
        if 8 * math.prod(lattice_shapes(self)[0]) > np.iinfo(np.intp).max:
            raise ValueError(
                f"t_final/dt = {self.n_intervals:.3g} intervals and n_iterations"
                f" = {self.n_iterations} make a lattice too large for numpy"
            )
        # What every run of this config steps with: F, C and the transfer
        # maps. Built here so that an unknown kind, an exact propagator of a
        # nonlinear system, an inexact dt/substep and every member's Euler
        # stiffness guard reject the config before any run.
        self.micro_prop = make_micro(
            self.system if self.members is None else self.members,
            self.dt, self.micro_kind, self.substep,
        )
        self.macro_prop = make_macro(self.system, self.dt, self.macro_kind)
        self.transfer = transfer_for(self.system)


def lattice_shapes(config: PararealConfig) -> tuple:
    """The shapes of a run's u and x lattices: (K+1, N+1, d) and
    (K+1, N+1, s), on a grid (K+1, N+1, E, d) and (K+1, N+1, E, s)."""
    grid = () if config.members is None else (len(config.members),)
    lead = (config.n_iterations + 1, config.n_intervals + 1, *grid)
    return (*lead, config.system.dim), (*lead, config.system.slow_dim)


@dataclass
class RunTimings:
    # One entry per iteration.
    fine_wall: list = field(default_factory=list)
    fine_task_seconds: list = field(default_factory=list)
    sweep_wall: list = field(default_factory=list)


@dataclass(eq=False)
class PararealRun:
    """What a run computed; what it steps with is its config's."""

    config: PararealConfig
    u: np.ndarray              # (K+1, N+1, d), on a grid (K+1, N+1, E, d)
    x: np.ndarray              # (K+1, N+1, s), on a grid (K+1, N+1, E, s)
    reference: Optional[np.ndarray] = None  # (N+1, d), on a grid (N+1, E, d)
    timings: RunTimings = field(default_factory=RunTimings)
    rows_filled: int = 1

    @property
    def micro_prop(self):
        # Read by perfbench/tracing.py, which counts a pooled run's fine
        # substeps from it.
        return self.config.micro_prop


def _worker_count(workers) -> int:
    """workers as an int; a ValueError names any value that is not an
    integer >= 1."""
    with suppress(TypeError):
        if operator.index(workers) >= 1:
            return operator.index(workers)
    raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


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
    macro, tset = config.macro_prop, config.transfer
    u, x = (np.full(shape, np.nan) for shape in lattice_shapes(config))

    u[0][0] = config.u0
    x[0][0] = tset.restrict(config.u0)
    try:
        x[0] = orbit(macro.step, x[0][0], config.n_intervals)
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(f"{exc}; init sweep, dt={config.dt!r}") from exc
    u[0][1:] = tset.lift(x[0][1:])

    return PararealRun(config, u, x)


def parareal_iteration(run: PararealRun, *, workers: int = 1, pool=None):
    """Fill the run's next row k+1 from its last row k (steps 2a-2d above).

    The fine stage cuts row k into at most `workers` slabs, one interval or
    more each; with a pool the calling process steps slab 0 and the pool the
    others."""
    workers = _worker_count(workers)
    config = run.config
    k = run.rows_filled - 1
    if k >= config.n_iterations:
        raise ValueError(f"all {config.n_iterations} iterations are filled")
    n = config.n_intervals
    micro, macro, tset = config.micro_prop, config.macro_prop, config.transfer

    # A blow-up is re-raised naming where it happened.
    stage = "2a (fine)"
    try:
        # (2a) fine endpoints: pure map over at most `workers` slabs of row
        # k, one interval or more each, gathered in slab order; ubar[j] is the
        # endpoint of interval j+1. With a pool, slabs 1.. are its tasks
        # while this process steps slab 0.
        slabs = np.array_split(run.u[k][:-1], min(workers, n))
        here = len(slabs) if pool is None else 1
        t0 = time.perf_counter()
        tasks = [pool.submit(_fine_slab, micro, slab) for slab in slabs[here:]]
        results = [_fine_slab(micro, slab) for slab in slabs[:here]]
        results += [task.result() for task in tasks]
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
    run.rows_filled = k + 2


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


def run(config: PararealConfig, workers: int = 1, pool=None) -> PararealRun:
    """Init sweep, K correction iterations and the reference trajectory.

    The fine stage steps at most `workers` slabs of each row, with or
    without a pool; with one, this process steps slab 0 and the pool the
    others. The run uses a caller's pool and leaves it running; without
    one, a run with workers > 1 makes its own worker_pool(workers), which
    ends when the run does. The reference is one sequential trajectory per
    member. It never feeds the iteration, so with a pool it is submitted as
    one task per member before iteration 0 and gathered after the last
    iteration; without one it is stepped after the last iteration, so
    failed iterations never step it.
    """
    workers = _worker_count(workers)
    r = init_sweep(config)

    args = (config.u0, config.n_intervals)
    props, references = [], []
    if config.with_reference:
        props = [config.micro_prop] if config.members is None else [
            make_micro(m, config.dt, config.micro_kind, config.substep)
            for m in config.members
        ]
    own = worker_pool(workers) if pool is None and workers > 1 else nullcontext(pool)
    with own as pool:
        try:
            if pool is not None:
                references = [pool.submit(_member_reference, p, *args) for p in props]
            for _ in range(config.n_iterations):
                parareal_iteration(r, workers=workers, pool=pool)
            if props:
                trajectories = (
                    [_member_reference(p, *args) for p in props] if pool is None
                    else [future.result() for future in references]
                )
                r.reference = (
                    trajectories[0] if config.members is None
                    else np.stack(trajectories, axis=1)
                )
        finally:
            # After an error, reference tasks still queued do not run.
            for future in references:
                future.cancel()
    return r


_FORK = get_context("fork")


class WorkerLostError(RuntimeError):
    """A pool worker exited before it sent back its task's result."""


def _serve(conn):
    """A pool worker: run each (fn, args) received on `conn` and send back
    (True, result) or (False, exception), until it receives None."""
    while (call := conn.recv()) is not None:
        fn, args = call
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # the reply does not pickle
            conn.send((False, exc))


class _Task(Future):
    """A submitted call. Only the calling process completes it, inside
    result() or exception(), which drive the pool until it ends; so a
    timeout other than None raises, and concurrent.futures.wait and
    as_completed would block forever."""

    def __init__(self, pool, fn, args):
        super().__init__()
        self._pool = pool
        try:
            self.call = pickle.dumps((fn, args))
        except Exception as exc:  # raised by result(), not by submit
            self.set_exception(exc)

    def exception(self, timeout=None):
        if timeout is not None:
            raise ValueError("a pool task takes no timeout: only its wait ends it")
        while not self.done():
            self._pool._wait()
        return super().exception()

    def result(self, timeout=None):
        self.exception(timeout)
        return super().result()


class worker_pool(Executor):
    """An executor of up to `workers` (an integer >= 1) forked processes,
    each on its own pipe and running one task at a time; submit(fn, *args)
    returns a concurrent.futures.Future. It starts no thread: a worker is
    forked when a task first needs one, and the calling process hands
    queued tasks to idle workers, first in first out, when it submits a
    task or waits for a result. shutdown(), also on leaving its with block
    normally or after an error, cancels the tasks still queued, waits for
    the running ones and reaps every worker, whatever its arguments: only a
    wait completes a running task. A task submitted after it raises
    RuntimeError."""

    def __init__(self, workers: int):
        self._size, self._queue = _worker_count(workers), deque()
        # By this process's end of each worker's pipe: every worker's
        # process, and each busy worker's task. A worker not busy is idle.
        self._workers, self._busy = {}, {}

    def submit(self, fn, *args) -> _Task:
        if not self._size:
            raise RuntimeError("cannot submit a task to a pool that is shut down")
        task = _Task(self, fn, args)
        if not task.done():
            self._queue.append(task)
            self._dispatch()
        return task

    def _dispatch(self):
        # Every busy worker is forked and at most size are, so a task can
        # start exactly when fewer than size workers are busy.
        while self._queue and len(self._busy) < self._size:
            task = self._queue.popleft()
            if not task.set_running_or_notify_cancel():
                continue
            conn = next((c for c in self._workers if c not in self._busy), None)
            if conn is None:
                conn, theirs = _FORK.Pipe()
                self._workers[conn] = _FORK.Process(target=_serve, args=(theirs,))
                self._workers[conn].start()
                theirs.close()
            self._busy[conn] = task
            with suppress(OSError):  # a worker that exited is found by _wait
                conn.send_bytes(task.call)

    def _wait(self):
        """Wait until a running task ends, take every reply then ready, fail
        the task of a worker that exited without one, and hand out queued
        tasks."""
        sentinels = {self._workers[conn].sentinel: conn for conn in self._busy}
        for ready in connection.wait([*self._busy, *sentinels]):
            conn = sentinels.get(ready, ready)
            if conn not in self._busy:  # its reply and its exit were both ready
                continue
            task = self._busy.pop(conn)
            try:
                # An exited worker's pipe reads as closed, or as empty while
                # a process it forked still holds the worker's end.
                if not conn.poll():
                    raise EOFError
                ok, value = conn.recv()
            except (EOFError, OSError):
                process = self._workers.pop(conn)
                conn.close()
                process.join()
                ok, value = False, WorkerLostError(
                    f"a pool worker exited with code {process.exitcode} "
                    "before it returned its task"
                )
                process.close()
            (task.set_result if ok else task.set_exception)(value)
        self._dispatch()

    def shutdown(self, wait=True, *, cancel_futures=False):
        for task in self._queue:
            task.cancel()
        while self._busy:
            self._wait()
        for conn in self._workers:
            with suppress(OSError):  # the worker exited, say on Ctrl-C
                conn.send(None)
            conn.close()
        for process in self._workers.values():
            process.join()
            process.close()
        # A pool of no workers is one that is shut down.
        self._size, self._workers = 0, {}


def plain_parareal(fine, coarse, row0, k_max: int) -> np.ndarray:
    """Plain parareal from row 0, u[k+1][n+1] = F(u[k][n]) + G(u[k+1][n]) -
    G(u[k][n]) summed in that order, one state at a time in ascending n: the
    (k_max+1, *row0.shape) lattice, every row starting at row0[0]."""
    u = np.empty((k_max + 1, *np.shape(row0)))
    u[0] = row0
    u[:, 0] = u[0][0]
    for k in range(k_max):
        for j in range(len(row0) - 1):
            u[k + 1][j + 1] = fine(u[k][j]) + coarse(u[k + 1][j]) - coarse(u[k][j])
    return u


def classic_parareal(
    rho_fine: float, rho_coarse: float, u0: float, n_steps: int, k_max: int
) -> np.ndarray:
    """Plain scalar parareal baseline: plain_parareal's error table for the
    scalar linear problem with fine multiplier rho_fine and coarse multiplier
    rho_coarse, |u[k][n] - rho_fine^n u0| with shape (k_max+1, n_steps+1).
    """
    if n_steps < 1 or k_max < 0:
        raise ValueError("need n_steps >= 1 and k_max >= 0")
    # Sequential products, so rho_fine = rho_coarse leaves exactly zero error.
    fine, coarse = partial(operator.mul, rho_fine), partial(operator.mul, rho_coarse)
    row0 = orbit(coarse, u0, n_steps)
    return np.abs(plain_parareal(fine, coarse, row0, k_max) - orbit(fine, u0, n_steps))
