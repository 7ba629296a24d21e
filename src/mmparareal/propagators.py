"""Time-advance maps over one coupling interval.

Micro propagators advance the full state u by dt, macro propagators advance
the slow state X by dt. Every step takes one state, shape (d,), or a row of
them, shape (n, d), and maps a row state by state.

A micro propagator can also be built for an epsilon grid: a tuple of E
members of one system that differ only in epsilon. It steps (..., E, d)
arrays, member e's state in slot e of axis -2, bitwise as member e's own
propagator steps it. Only the micro propagators see epsilon; the macro
steps act on the last axis, elementwise over the others.

The nonlinear Euler micro step and the Euler and RK4 macro steps share one
component contract. Each is a step written over the tuple v of a state's
components (the d of u, or the s slow ones of X) that maps v to the
components it ends at and never writes v. _step_components runs it on the
Python floats of one state, of shape (d,), (1, d) or (1, 1, d), and
otherwise on the columns x[..., i] of a row or grid. Floats, because a few
float operations cost less than one numpy call on a state of a few
components; columns, because numpy's per-call cost is then paid once for
the whole row. Every step's operations are those of numpy's array
recurrence, in their order (u + h * micro_rhs(u), x + dt * macro_rhs(x)),
so a row's endpoints are bitwise those of its states stepped one by one.
On floats x / 0.0 and an overflowing ** raise where numpy gives inf, and
_step_components reports them as NonFiniteStateError.

* exact-linear micro: u -> exp(B dt) u with the exponential cached at
  construction (the iteration applies it N*K times); one np.matmul steps a
  row, bitwise equal to phi @ u on each of its states. On a grid the
  members' exponentials are stacked to (E, d, d);
* forward-euler micro: dt/substep explicit Euler substeps of the full
  right-hand side; a substep past explicit Euler's stability limit is
  rejected at construction, for every member of a grid before any step. A
  nonlinear system is stepped by a pair of component loops, in which a
  substep computes the d derivatives and then makes d updates
  ui = ui + h * dui: a float loop, and a column loop; on a grid of E > 1
  members epsilon is their (E,) vector, broadcast against the (..., E)
  columns. The built-in systems have their pair written by hand
  (systems.EULER_LOOPS), computing the rhs inline, without the call. Any
  other rhs is called, micro_rhs(v, epsilon), once per substep, by one
  plain loop on floats and columns alike (_called_loop).
  A linear system keeps the array loop, one interval at a
  time, in two buffers: a copy u of the state and a derivative t. Its rhs
  has the contract rhs(u, out), writing B u into out with no temporary:
  B.dot(u, out) (a BLAS matrix-vector product), on a grid one np.matmul
  by the members' stacked (E, d, d) B. A substep is then rhs(u, t);
  t *= h; u += t, numpy's u + h * (B @ u) bit for bit;
* exact-linear macro: X -> exp(lam dt) X, with exp(lam dt) > 0 cached;
* forward-euler macro: a single explicit Euler step of the slow model,
  Xi = Xi + dt * dXi;
* rk4 macro: classical Runge-Kutta 4 substeps of the slow model, at most
  DEFAULT_MACRO_SUBSTEP long, so the coarse step resolves the macro model
  (linear or nonlinear) and its error is the modeling error alone.

Every step but the exact-linear macro one checks its endpoint, once per
call, with math.isfinite over its floats (u.ravel().tolist() of an array),
a fraction of the cost of np.all(np.isfinite(u)) on a state of a few
components. Overflow inside a step runs on silently, so NonFiniteStateError
is the only signal of a blow-up.

Propagators are immutable after construction, cheap to pickle, and their
step functions are pure, so they can be fanned out across worker processes.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from functools import partial
from itertools import repeat
from operator import add, mul

import numpy as np

from . import linalg
from .systems import EULER_LOOPS, LinearFastSlowSystem, NonlinearFastSlowSystem

# Default Euler substep for the nonlinear benchmarks.
DEFAULT_SUBSTEP = 1e-5

# Longest RK4 substep of the "rk4" macro propagator: 20 substeps per dt=0.1,
# which puts the O(h^4) discretization error far below the O(epsilon)
# modeling error at the benchmark epsilons.
DEFAULT_MACRO_SUBSTEP = 5e-3


def step_count(span: float, step: float, name: str) -> int:
    """span/step as a positive integer, or a ValueError naming the ratio."""
    ratio = span / step
    # round(inf) raises OverflowError; a non-finite ratio is rejected below.
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ValueError(f"{name} = {ratio!r} must be a positive integer")
    return n


class NonFiniteStateError(Exception):
    """A propagation step produced non-finite state values."""


def _require_finite(u: np.ndarray, context: str) -> np.ndarray:
    if not all(map(math.isfinite, u.ravel().tolist())):
        raise NonFiniteStateError(f"non-finite state in {context}")
    return u


def _matvec(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """m @ u over the last axis of u, for a (d, d) m or a stacked (E, d, d)
    one broadcast against (..., E, d) states."""
    return np.matmul(m, u[..., None])[..., 0]


def _stacked(f, system):
    """f(system), or for a tuple of grid members their results stacked."""
    if isinstance(system, tuple):
        return np.stack([f(member) for member in system])
    return f(system)


def _matvec_into(m: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """out = m @ u for a stacked (E, d, d) m and (E, d) states, with no
    temporaries; bitwise _matvec(m, u)."""
    np.matmul(m, u[..., None], out=out[..., None])


def _euler_array_substeps(
    rhs, h: float, n_sub: int, u: np.ndarray, state_ndim: int = 1
) -> np.ndarray:
    # Copied once, since the engine passes views of its lattice rows; the
    # substeps then run in place, state by state, with rhs(u, t) writing
    # into one buffer t: the operations of u + h * rhs(u), in their order.
    u = np.array(u, dtype=float, order="C")
    states = u.reshape(-1, *u.shape[u.ndim - state_ndim:])
    t = np.empty(states.shape[1:])
    multiply, add = np.multiply, np.add
    # A blow-up runs on to inf/NaN for the endpoint check, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for state in states:
            for _ in range(n_sub):
                rhs(state, t)
                multiply(h, t, out=t)
                add(state, t, out=state)
    return u


def _called_loop(rhs, h, n_sub, v, epsilon):
    # The Euler loop that calls rhs, on the d components v of a state,
    # floats or columns: each substep makes every update ui = ui + h * dui
    # once rhs has returned every dui. hs gives each substep's map as many
    # h as it takes.
    hs = repeat(h)
    for _ in range(n_sub):
        v = tuple(map(add, v, map(mul, hs, rhs(v, epsilon))))
    return v


def _loop_for(rhs):
    """The Euler loops for rhs, a pair (float_loop, column_loop), and the
    arguments they take before h. A built-in rhs, or a partial of one with
    positional bound arguments, takes its pair of EULER_LOOPS and the bound
    arguments; any other callable is called, by _called_loop on floats and
    on columns alike."""
    func, bound = rhs, ()
    if type(rhs) is partial and not rhs.keywords:
        func, bound = rhs.func, rhs.args
    # A user's callable class may define __eq__ and so have no hash.
    if isinstance(func, Hashable) and func in EULER_LOOPS:
        return EULER_LOOPS[func], bound
    return (_called_loop, _called_loop), (rhs,)


def _step_components(step, column_step, x: np.ndarray, context: str) -> np.ndarray:
    """x stepped over the tuple of its components (see the module
    docstring): by step on the Python floats of one state, by column_step
    on the columns x[..., i] of more."""
    # A blow-up runs on to inf/NaN, and a non-finite substep leaves a
    # non-finite endpoint. Python float arithmetic never warns, so only the
    # columns need np.errstate.
    if x.size == x.shape[-1]:
        try:
            v = step(tuple(x.ravel().tolist()))
        except (ZeroDivisionError, OverflowError) as err:
            raise NonFiniteStateError(f"non-finite state in {context}") from err
        if not all(map(math.isfinite, v)):
            raise NonFiniteStateError(f"non-finite state in {context}")
        return np.array(v).reshape(x.shape)
    # The columns x[..., i] are those of np.moveaxis(x, -1, 0), taken
    # without the moved view.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = column_step(tuple([x[..., i] for i in range(x.shape[-1])]))
    out = np.empty(x.shape)
    for i, vi in enumerate(v):
        out[..., i] = vi
    return _require_finite(out, context)


class ExactLinearMicro:
    """u -> exp(B dt) u for a linear system or a tuple of grid members."""

    def __init__(self, system, dt: float):
        self.dt = float(dt)
        self.phi = _stacked(lambda m: linalg.mat_exp(m.b_matrix() * self.dt), system)

    def step(self, u: np.ndarray) -> np.ndarray:
        return _require_finite(_matvec(self.phi, u), "exact micro step")


def _stable_substep_limit(system) -> float:
    """Supremum of the explicit Euler substeps h with |1 + h lam| < 1 for
    every decaying mode lam of the fast-slow system.

    A linear system's modes are the eigenvalues of B, and |1 + h lam| < 1
    exactly when h < -2 Re(lam) / |lam|^2. A nonlinear system's fast block
    relaxes at rate 1/epsilon, so its limit is 2 epsilon.
    """
    if isinstance(system, NonlinearFastSlowSystem):
        return 2.0 * system.epsilon
    lam = linalg.eigenvalues(system.b_matrix())
    lam = lam[lam.real < 0]
    return float(np.min(-2.0 * lam.real / np.abs(lam) ** 2, initial=math.inf))


class EulerMicro:
    """Explicit Euler substepping of the full right-hand side, for one
    system or a tuple of grid members."""

    def __init__(self, system, dt: float, substep: float = DEFAULT_SUBSTEP):
        self.dt = float(dt)
        if not (substep > 0):
            raise ValueError("substep must be positive")
        self.n_sub = step_count(self.dt, float(substep), "dt/substep")
        self.h = self.dt / self.n_sub
        grid = isinstance(system, tuple)
        members = system if grid else (system,)
        for member in members:
            h_max = _stable_substep_limit(member)
            if not self.h < h_max:
                raise ValueError(
                    f"Euler substep {self.h!r} is past the fast block's stability "
                    f"limit: stable substeps are below {h_max:.6g}"
                )
        if isinstance(members[0], LinearFastSlowSystem):
            # A grid state is the (E, d) states of the members, stepped by
            # their stacked B.
            self.rhs = (
                partial(_matvec_into, _stacked(lambda m: m.b_matrix(), system))
                if grid else system.b_matrix().dot
            )
            self.epsilon, self._state_ndim = None, 1 + grid
        else:
            self.rhs = members[0].micro_rhs
            # A one-member grid's state is one state, stepped on floats,
            # so it keeps its member's float epsilon.
            self.epsilon = (
                _stacked(lambda m: m.epsilon, system)
                if len(members) > 1 else members[0].epsilon
            )

    def step(self, u: np.ndarray) -> np.ndarray:
        # self.rhs is read here, not bound at construction, so a wrapper
        # installed on the instance is called, by _called_loop, and sees
        # every substep.
        h, n_sub, epsilon = self.h, self.n_sub, self.epsilon
        if epsilon is None:
            u = _euler_array_substeps(self.rhs, h, n_sub, u, self._state_ndim)
            # Non-finite values cannot cancel back to finite ones under +/*,
            # so checking the endpoint catches any blown-up substep.
            return _require_finite(u, "Euler micro step")
        (loop, column_loop), args = _loop_for(self.rhs)
        return _step_components(
            lambda v: loop(*args, h, n_sub, v, epsilon),
            lambda v: column_loop(*args, h, n_sub, v, epsilon),
            u, "Euler micro step",
        )


class ExactLinearMacro:
    """X -> exp(lam dt) X for the linear slow model."""

    def __init__(self, system: LinearFastSlowSystem, dt: float):
        self.dt = float(dt)
        self.rho = math.exp(system.macro_rate() * self.dt)

    def step(self, x: np.ndarray) -> np.ndarray:
        return self.rho * x


class EulerMacro:
    """Single explicit Euler step of the slow model."""

    def __init__(self, system, dt: float):
        self.dt = float(dt)
        self.rhs = system.macro_rhs

    def _advance(self, x: tuple) -> tuple:
        dt = self.dt
        return tuple(map(lambda xi, dxi: xi + dt * dxi, x, self.rhs(x)))

    def step(self, x: np.ndarray) -> np.ndarray:
        return _step_components(self._advance, self._advance, x, "Euler macro step")


class RK4Macro:
    """Classical RK4 substepping of the slow model.

    dt is split into the fewest equal substeps no longer than
    DEFAULT_MACRO_SUBSTEP.
    """

    def __init__(self, system, dt: float):
        self.dt = float(dt)
        self.n_sub = max(1, math.ceil(self.dt / DEFAULT_MACRO_SUBSTEP - 1e-9))
        self.h = self.dt / self.n_sub
        self.rhs = system.macro_rhs

    def _advance(self, x: tuple) -> tuple:
        h, rhs = self.h, self.rhs
        half, sixth = 0.5 * h, h / 6.0

        # Made once per step, not per substep: a closure made per call
        # costs a third of a float substep.
        def half_step(xi, ki):
            return xi + half * ki

        def full_step(xi, ki):
            return xi + h * ki

        def combine(xi, k1, k2, k3, k4):
            return xi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        for _ in range(self.n_sub):
            k1 = rhs(x)
            k2 = rhs(tuple(map(half_step, x, k1)))
            k3 = rhs(tuple(map(half_step, x, k2)))
            k4 = rhs(tuple(map(full_step, x, k3)))
            x = tuple(map(combine, x, k1, k2, k3, k4))
        return x

    def step(self, x: np.ndarray) -> np.ndarray:
        return _step_components(self._advance, self._advance, x, "RK4 macro step")


def make_micro(system, dt: float, kind: str = "exact", substep=None):
    """Micro propagator factory; kind is "exact" or "euler". system is one
    system or a tuple of grid members."""
    if kind == "exact":
        first = system[0] if isinstance(system, tuple) else system
        if not isinstance(first, LinearFastSlowSystem):
            raise ValueError("exact micro propagator requires the linear model")
        return ExactLinearMicro(system, dt)
    if kind == "euler":
        if substep is None:
            substep = DEFAULT_SUBSTEP
        return EulerMicro(system, dt, substep)
    raise ValueError(f"unknown micro propagator kind {kind!r}")


def make_macro(system, dt: float, kind: str = "exact"):
    """Macro propagator factory; kind is "exact", "euler" or "rk4"."""
    if kind == "exact":
        if not isinstance(system, LinearFastSlowSystem):
            raise ValueError("exact macro propagator requires the linear model")
        return ExactLinearMacro(system, dt)
    if kind == "euler":
        return EulerMacro(system, dt)
    if kind == "rk4":
        return RK4Macro(system, dt)
    raise ValueError(f"unknown macro propagator kind {kind!r}")


def micro_reference_trajectory(prop, u0: np.ndarray, n: int) -> np.ndarray:
    """[u0, F(u0), ..., F^n(u0)], computed strictly sequentially; an
    (E, d) u0 of a grid propagator gives an (n+1, E, d) trajectory."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    u0 = np.asarray(u0, dtype=float)
    out = np.empty((n + 1, *u0.shape))
    out[0] = u0
    u = u0
    for j in range(n):
        u = prop.step(u)
        out[j + 1] = u
    return out
