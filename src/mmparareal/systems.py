"""Fast-slow model problems and their derived macroscopic descriptions.

State conventions used throughout the package:

* a microscopic state is a flat float64 array u of length d with the slow
  components first, u = (x, y);
* a macroscopic state is a flat array X of length slow_dim (length 1 for the
  linear model, length 2 for the Brusselator).

The linear model is

    dx/dt = alpha x + p . y,    dy/dt = (q x - A y) / epsilon,

with A having all eigenvalue real parts >= lam_minus > 0, which is enforced
at construction. Its effective slow dynamics is dX/dt = lam X with
lam = alpha + p . (A^-1 q), the slow manifold is y = (A^-1 q) x, and fast
transients die out over a layer of width (2 epsilon / lam_minus) ln(1/epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import linalg


@dataclass(eq=False)
class LinearFastSlowSystem:
    """Linear fast-slow system defined by (alpha, p, q, A, epsilon)."""

    alpha: float
    p: np.ndarray
    q: np.ndarray
    A: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.A = linalg._as_square(self.A)
        m = self.A.shape[0]
        self.p = linalg._as_vector(self.p, m)
        self.q = linalg._as_vector(self.q, m)
        self.alpha = float(self.alpha)
        self.epsilon = float(self.epsilon)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be positive and finite")
        eigs = linalg.eigenvalues(self.A)
        self.lam_minus = float(np.min(eigs.real))
        if self.lam_minus <= 0:
            raise ValueError(
                "fast matrix must have all eigenvalue real parts > 0, "
                f"got min real part {self.lam_minus:.3e}"
            )
        # A^-1 q drives both the macro rate and the lifting; cache it once.
        self.a_inv_q = linalg.solve(self.A, self.q)
        self._b = self._assemble_b()

    @property
    def slow_dim(self) -> int:
        return 1

    @property
    def fast_dim(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return 1 + self.A.shape[0]

    def _assemble_b(self) -> np.ndarray:
        """Full-system generator: du/dt = B u."""
        m = self.fast_dim
        b = np.empty((1 + m, 1 + m))
        b[0, 0] = self.alpha
        b[0, 1:] = self.p
        b[1:, 0] = self.q / self.epsilon
        b[1:, 1:] = -self.A / self.epsilon
        return b

    def b_matrix(self) -> np.ndarray:
        return self._b

    def micro_rhs(self, u: np.ndarray) -> np.ndarray:
        return self._b @ u

    def macro_rate(self) -> float:
        """Effective slow rate lam = alpha + p . (A^-1 q)."""
        return float(self.alpha + self.p @ self.a_inv_q)

    def macro_rhs(self, x: np.ndarray) -> np.ndarray:
        return self.macro_rate() * np.asarray(x, dtype=float)

    def lift_map(self, x: np.ndarray) -> np.ndarray:
        """X -> (X, (A^-1 q) X), the point of the slow manifold over X."""
        return np.concatenate([x, x[..., :1] * self.a_inv_q], axis=-1)

    def slow_manifold_offset(self, u: np.ndarray) -> np.ndarray:
        """z = y - (A^-1 q) x; zero exactly on the slow manifold."""
        u = np.asarray(u, dtype=float)
        return u[1:] - self.a_inv_q * u[0]

    def boundary_layer_time(self) -> float:
        """Width of the initial fast transient; zero for epsilon >= 1."""
        if self.epsilon >= 1.0:
            return 0.0
        return (2.0 * self.epsilon / self.lam_minus) * math.log(1.0 / self.epsilon)


@dataclass(eq=False)
class NonlinearFastSlowSystem:
    """Fast-slow system given by callables.

    micro_rhs(u, epsilon) -> du/dt over the full state, macro_rhs(X) -> dX/dt
    over the slow state, lift_map(X) -> full state on the slow manifold.
    Callables must be pure; the built-in constructors below use module-level
    functions so systems can cross process boundaries.

    macro_rhs and lift_map take a (..., slow_dim) array, one slow state or a
    row of them, and must act on the last axis row by row (x[..., 0], not
    x[0]); construction probes both with a 2-row batch.

    micro_rhs(u, epsilon) takes u as a tuple of d components and returns
    d components: d Python floats for one state, d (n,) float arrays, the
    component columns, for a row of n states. The Euler micro propagator
    calls it both ways on every substep, and construction probes both,
    requiring each result column to equal the result for its row. Write it
    with + - * / on the components only, as the built-ins do: math.exp or
    float() fail on a column, and float ** raises OverflowError where
    + - * / overflow to inf, which the propagator's endpoint check catches.
    """

    slow_dim: int
    fast_dim: int
    micro_rhs: Callable[[Sequence[float], float], Sequence[float]]
    macro_rhs: Callable[[np.ndarray], np.ndarray]
    lift_map: Callable[[np.ndarray], np.ndarray]
    epsilon: float

    def __post_init__(self):
        self.slow_dim = int(self.slow_dim)
        self.fast_dim = int(self.fast_dim)
        self.epsilon = float(self.epsilon)
        if self.slow_dim < 1 or self.fast_dim < 1:
            raise ValueError("slow_dim and fast_dim must be positive")
        if not (0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be positive and finite")
        # Probe the callables once: lift must be a right inverse of the
        # slow-part restriction, and both rhs must return finite derivatives.
        # micro_rhs is probed with the tuples the Euler propagator passes, so
        # sequence arithmetic such as u + u (concatenation) is caught here
        # rather than truncated silently by the substep loop.
        probe = np.ones(self.slow_dim)
        lifted = np.asarray(self.lift_map(probe), dtype=float)
        if lifted.shape != (self.dim,):
            raise ValueError("lift_map must return a full state")
        if not np.array_equal(lifted[: self.slow_dim], probe):
            raise ValueError("lift_map output must restrict to its input")
        du = np.asarray(self.micro_rhs(tuple(lifted.tolist()), self.epsilon))
        if du.shape != (self.dim,):
            raise ValueError("micro_rhs must return one derivative per component")
        if not np.all(np.isfinite(du)):
            raise ValueError("micro_rhs returned non-finite values on probe")
        if not np.all(np.isfinite(self.macro_rhs(probe))):
            raise ValueError("macro_rhs returned non-finite values on probe")
        # A per-state callable such as lambda x: np.array([-x[0]]) would
        # broadcast row 0's result over a whole row of states.
        rows = probe * np.array([[1.0], [2.0]])
        for name in ("lift_map", "macro_rhs"):
            f = getattr(self, name)
            try:
                batch = np.asarray(f(rows), dtype=float)
            except (IndexError, TypeError, ValueError):
                batch = None
            if not np.array_equal(batch, [f(row) for row in rows]):
                raise ValueError(f"{name} must map a (n, slow_dim) array row by row")
        # A rhs built with math.exp or float() accepts floats but not the
        # component columns of a row.
        states = lifted * np.array([[1.0], [2.0]])
        try:
            columns = np.stack(
                np.broadcast_arrays(*self.micro_rhs(tuple(states.T), self.epsilon)),
                axis=-1,
            )
        except (IndexError, TypeError, ValueError):
            columns = None
        per_state = [self.micro_rhs(tuple(u.tolist()), self.epsilon) for u in states]
        if not np.array_equal(columns, per_state):
            raise ValueError(
                "micro_rhs must map a tuple of d (n,) component columns "
                "column by column"
            )

    @property
    def dim(self) -> int:
        return self.slow_dim + self.fast_dim


def builtin_toy(epsilon: float) -> LinearFastSlowSystem:
    """Three-dimensional linear benchmark with macro rate -1."""
    return LinearFastSlowSystem(
        alpha=-0.5,
        p=np.array([-0.25, -0.25]),
        q=np.array([1.0, 1.0]),
        A=np.array([[0.5, 0.5], [0.0, 1.0 / 3.0]]),
        epsilon=epsilon,
    )


def _quadratic_micro_rhs(
    lam: float, u: Sequence[float], epsilon: float
) -> tuple[float, float]:
    x, y = u
    return (-lam * x - y, (x * x - y) / epsilon)


def _quadratic_macro_rhs(lam: float, x: np.ndarray) -> np.ndarray:
    x0 = x[..., :1]
    return -lam * x0 - x0 * x0


def _quadratic_lift(x: np.ndarray) -> np.ndarray:
    x0 = x[..., :1]
    return np.concatenate([x0, x0 * x0], axis=-1)


def builtin_quadratic(lambda_param: float, epsilon: float) -> NonlinearFastSlowSystem:
    """Scalar slow variable with a quadratically slaved fast one:
    dx/dt = -lambda x - y, dy/dt = (x^2 - y)/epsilon; the fast variable
    relaxes onto y = x^2, giving dX/dt = -lambda X - X^2."""
    lam = float(lambda_param)
    return NonlinearFastSlowSystem(
        slow_dim=1,
        fast_dim=1,
        micro_rhs=partial(_quadratic_micro_rhs, lam),
        macro_rhs=partial(_quadratic_macro_rhs, lam),
        lift_map=_quadratic_lift,
        epsilon=epsilon,
    )


BRUSSELATOR_A = 1.0
BRUSSELATOR_B = 3.0


def _brusselator_micro_rhs(
    u: Sequence[float], epsilon: float
) -> tuple[float, float, float]:
    x1, x2, y = u
    # The -y*x1 term in the fast equation is deliberately not divided by
    # epsilon: only the relaxation toward B is stiff.
    return (
        BRUSSELATOR_A - (y + 1.0) * x1 + x1 * x1 * x2,
        y * x1 - x1 * x1 * x2,
        (BRUSSELATOR_B - y) / epsilon - y * x1,
    )


def _brusselator_macro_rhs(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack(
        [
            BRUSSELATOR_A - (BRUSSELATOR_B + 1.0) * x1 + x1 * x1 * x2,
            BRUSSELATOR_B * x1 - x1 * x1 * x2,
        ],
        axis=-1,
    )


def _brusselator_lift(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.full((*x.shape[:-1], 1), BRUSSELATOR_B)], axis=-1)


def builtin_brusselator(epsilon: float) -> NonlinearFastSlowSystem:
    """Brusselator with a fast third species relaxing to B = 3: two slow
    concentrations, one fast one."""
    return NonlinearFastSlowSystem(
        slow_dim=2,
        fast_dim=1,
        micro_rhs=_brusselator_micro_rhs,
        macro_rhs=_brusselator_macro_rhs,
        lift_map=_brusselator_lift,
        epsilon=epsilon,
    )
