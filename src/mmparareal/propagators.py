"""Time-advance maps over one coupling interval.

Micro propagators advance the full state u by dt, macro propagators advance
the slow state X by dt:

* exact-linear micro: u -> exp(B dt) u with the exponential cached at
  construction (the iteration applies it N*K times);
* forward-euler micro: dt/substep explicit Euler substeps of the full
  right-hand side; blow-up raises NonFiniteStateError instead of silently
  propagating NaN. A nonlinear system is stepped on a tuple of Python
  floats: the same IEEE-754 double arithmetic as numpy's elementwise
  operations, without numpy's per-call cost, which dominates on small
  states. The endpoints are bitwise those of the array recurrence
  u + h * micro_rhs(u). A linear system keeps the array loop: its rhs is a
  BLAS matrix-vector product, which a Python-float sum does not reproduce
  bitwise;
* exact-linear macro: X -> exp(lam dt) X, with exp(lam dt) > 0 cached;
* forward-euler macro: a single explicit Euler step of the slow model;
* rk4 macro: classical Runge-Kutta 4 substeps of the slow model, at most
  DEFAULT_MACRO_SUBSTEP long, so the coarse step resolves the macro model
  (linear or nonlinear) and its error is the modeling error alone.

Propagators are immutable after construction, cheap to pickle, and their
step functions are pure, so they can be fanned out across worker processes.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import linalg
from .systems import LinearFastSlowSystem, NonlinearFastSlowSystem

# Default Euler substep for the nonlinear benchmarks.
DEFAULT_SUBSTEP = 1e-5

# Longest RK4 substep of the "rk4" macro propagator: 20 substeps per dt=0.1,
# which puts the O(h^4) discretization error far below the O(epsilon)
# modeling error at the benchmark epsilons.
DEFAULT_MACRO_SUBSTEP = 5e-3


class NonFiniteStateError(Exception):
    """A propagation step produced non-finite state values."""


def _require_finite(u: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise NonFiniteStateError(f"non-finite state in {context}")
    return u


def _call_with_eps(f, epsilon: float, u: np.ndarray) -> np.ndarray:
    return f(u, epsilon)


def _euler_array_substeps(rhs, h: float, n_sub: int, u: np.ndarray) -> np.ndarray:
    # A blow-up runs on to inf/NaN for the endpoint check, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_sub):
            u = u + h * rhs(u)
    return u


def _euler_float_substeps(rhs, h: float, n_sub: int, u: np.ndarray) -> np.ndarray:
    # Same operations in the same order as the array loop, on Python floats:
    # float overflow gives inf (not an exception), which the endpoint check
    # catches.
    v = tuple(u.tolist())
    update = lambda a, b: a + h * b
    for _ in range(n_sub):
        v = tuple(map(update, v, rhs(v)))
    return np.array(v)


class ExactLinearMicro:
    """u -> exp(B dt) u for a linear system."""

    kind = "exact-linear"

    def __init__(self, system: LinearFastSlowSystem, dt: float):
        self.system = system
        self.dt = float(dt)
        self.phi = linalg.mat_exp(system.b_matrix() * self.dt)

    def step(self, u: np.ndarray) -> np.ndarray:
        return _require_finite(self.phi @ u, "exact micro step")


class EulerMicro:
    """Explicit Euler substepping of the full right-hand side."""

    kind = "forward-euler"

    def __init__(self, system, dt: float, substep: float = DEFAULT_SUBSTEP):
        self.system = system
        self.dt = float(dt)
        if not (substep > 0):
            raise ValueError("substep must be positive")
        ratio = self.dt / float(substep)
        n_sub = round(ratio)
        if n_sub < 1 or abs(ratio - n_sub) > 1e-9 * ratio:
            raise ValueError(
                f"dt/substep = {ratio!r} must be a positive integer"
            )
        self.n_sub = n_sub
        self.h = self.dt / n_sub
        if isinstance(system, LinearFastSlowSystem):
            self.rhs = system.micro_rhs
            self._substeps = _euler_array_substeps
        else:
            self.rhs = partial(_call_with_eps, system.micro_rhs, system.epsilon)
            self._substeps = _euler_float_substeps

    def step(self, u: np.ndarray) -> np.ndarray:
        # self.rhs is read here, not bound at construction, so a wrapper
        # installed on the instance sees every substep.
        u = self._substeps(self.rhs, self.h, self.n_sub, u)
        # Non-finite values cannot cancel back to finite ones under +/*,
        # so checking the endpoint catches any blown-up substep.
        return _require_finite(u, "Euler micro step")


class ExactLinearMacro:
    """X -> exp(lam dt) X for the linear slow model."""

    kind = "exact-linear"

    def __init__(self, system: LinearFastSlowSystem, dt: float):
        self.dt = float(dt)
        self.rho = math.exp(system.macro_rate() * self.dt)

    def step(self, x: np.ndarray) -> np.ndarray:
        return self.rho * x


class EulerMacro:
    """Single explicit Euler step of the slow model."""

    kind = "forward-euler-single-step"

    def __init__(self, system, dt: float):
        self.dt = float(dt)
        self.rhs = system.macro_rhs

    def step(self, x: np.ndarray) -> np.ndarray:
        return _require_finite(x + self.dt * self.rhs(x), "Euler macro step")


class RK4Macro:
    """Classical RK4 substepping of the slow model.

    dt is split into the fewest equal substeps no longer than
    DEFAULT_MACRO_SUBSTEP.
    """

    kind = "rk4"

    def __init__(self, system, dt: float):
        self.dt = float(dt)
        self.n_sub = max(1, math.ceil(self.dt / DEFAULT_MACRO_SUBSTEP - 1e-9))
        self.h = self.dt / self.n_sub
        self.rhs = system.macro_rhs

    def step(self, x: np.ndarray) -> np.ndarray:
        h, rhs = self.h, self.rhs
        for _ in range(self.n_sub):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # As for Euler: a non-finite substep leaves a non-finite endpoint.
        return _require_finite(x, "RK4 macro step")


def make_micro(system, dt: float, kind: str = "exact", substep=None):
    """Micro propagator factory; kind is "exact" or "euler"."""
    if kind == "exact":
        if not isinstance(system, LinearFastSlowSystem):
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
    """[u0, F(u0), ..., F^n(u0)], computed strictly sequentially."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    u0 = np.asarray(u0, dtype=float)
    out = np.empty((n + 1, u0.shape[0]))
    out[0] = u0
    u = u0
    for j in range(n):
        u = prop.step(u)
        out[j + 1] = u
    return out
