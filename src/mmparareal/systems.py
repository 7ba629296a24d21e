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
        # A^-1 q drives both the macro rate and the lifting; cache both once.
        self.a_inv_q = linalg.solve(self.A, self.q)
        self._macro_rate = float(self.alpha + self.p @ self.a_inv_q)
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

    def macro_rate(self) -> float:
        """Effective slow rate lam = alpha + p . (A^-1 q)."""
        return self._macro_rate

    def macro_rhs(self, x: Sequence[float]) -> tuple[float]:
        """(lam X,), on the tuple of the one slow component, as
        NonlinearFastSlowSystem.macro_rhs takes it."""
        (x0,) = x
        return (self._macro_rate * x0,)

    def lift_map(self, x: np.ndarray) -> np.ndarray:
        """X -> (X, (A^-1 q) X), the point of the slow manifold over X."""
        return np.concatenate([x, x[..., :1] * self.a_inv_q], axis=-1)

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

    The two right-hand sides share one contract. micro_rhs(u, epsilon) takes
    u as a tuple of d components, macro_rhs(X) takes X as a tuple of
    slow_dim components, and each returns exactly as many components: Python
    floats for one state, (n,) float arrays, the component columns, for a
    row of n states (or columns of any one shape, for a grid). The
    propagators call them both ways and unpack or zip the result, so any
    other count fails there. Construction probes both ways, requiring the
    right count of finite results and each result column to equal the
    results for its states. Write them with + - * / on the components only,
    as the built-ins do: math.exp or float() fail on a column, and indexing
    x[..., 0] fails on a tuple. A blow-up on columns runs on to inf or NaN,
    which the propagators' endpoint check catches; on floats x / 0.0 and an
    overflowing ** raise instead, and the propagators report those as the
    same NonFiniteStateError.

    lift_map takes a (..., slow_dim) array, one slow state or a row of
    them, and must act on the last axis row by row (x[..., 0], not x[0]);
    construction probes it with a 2-row batch.

    The Euler micro propagator is not bound to call micro_rhs: a built-in
    rhs, or a partial of one, is stepped by its hand-written loops in
    EULER_LOOPS, bitwise as if called: one on the floats of one state, one
    that steps a row's component columns in place. Any other callable, such
    as a user's function, lambda or closure, is called once per substep,
    on floats and on columns alike.
    """

    slow_dim: int
    fast_dim: int
    micro_rhs: Callable[[Sequence[float], float], Sequence[float]]
    macro_rhs: Callable[[Sequence[float]], Sequence[float]]
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
        # slow-part restriction and map a row of states row by row, and both
        # rhs must map the tuples the propagators pass them.
        probe = np.ones(self.slow_dim)
        lifted = np.asarray(self.lift_map(probe), dtype=float)
        if lifted.shape != (self.dim,):
            raise ValueError("lift_map must return a full state")
        if not np.array_equal(lifted[: self.slow_dim], probe):
            raise ValueError("lift_map output must restrict to its input")
        # A per-state lift such as lambda x: np.array([x[0], 0.0]) would
        # broadcast row 0's result over a whole row of states.
        rows = probe * np.array([[1.0], [2.0]])
        try:
            batch = np.asarray(self.lift_map(rows), dtype=float)
        except (IndexError, TypeError, ValueError):
            batch = None
        if not np.array_equal(batch, [self.lift_map(row) for row in rows]):
            raise ValueError("lift_map must map a (n, slow_dim) array row by row")
        _probe_components(
            "micro_rhs", lifted * np.array([[1.0], [2.0]]),
            self.micro_rhs, self.epsilon,
        )
        _probe_components("macro_rhs", rows, self.macro_rhs)

    @property
    def dim(self) -> int:
        return self.slow_dim + self.fast_dim


def _probe_components(name: str, states: np.ndarray, f, *args) -> None:
    """Check that f(v, *args) maps v, the tuple of the d components of each
    of the (n, d) states as Python floats, to d finite components, and the
    tuple of their (n,) columns to the columns of those results. Sequence
    arithmetic such as u + u (concatenation), indexing such as x[..., 0]
    and math.exp or float() on a column are caught here, at construction,
    rather than by a propagator."""
    n, d = states.shape
    try:
        per_state = np.array(
            [f(tuple(u.tolist()), *args) for u in states], dtype=float
        )
    except (ZeroDivisionError, OverflowError):
        # Python floats raise where numpy arithmetic gives inf.
        raise ValueError(f"{name} returned non-finite values on probe") from None
    except (IndexError, TypeError, ValueError):
        per_state = None
    if per_state is None or per_state.shape != (n, d):
        raise ValueError(f"{name} must map a tuple of {d} floats to {d} floats")
    if not np.all(np.isfinite(per_state)):
        raise ValueError(f"{name} returned non-finite values on probe")
    try:
        columns = np.stack(
            [np.broadcast_to(c, (n,)) for c in f(tuple(states.T), *args)], axis=-1
        )
    except (IndexError, TypeError, ValueError):
        columns = None
    if not np.array_equal(columns, per_state):
        raise ValueError(
            f"{name} must map a tuple of {d} (n,) component columns "
            "column by column"
        )


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


def _quadratic_euler_loop(lam, h, n_sub, v, epsilon):
    x, y = v
    for _ in range(n_sub):
        du0 = -lam * x - y
        du1 = (x * x - y) / epsilon
        x = x + h * du0
        y = y + h * du1
    return x, y


def _quadratic_euler_columns(lam, h, n_sub, v, epsilon):
    u = np.array(v, dtype=float)
    x, y = u
    du = np.empty_like(u)
    du0, du1 = du
    multiply, subtract, divide, add = np.multiply, np.subtract, np.divide, np.add
    for _ in range(n_sub):
        multiply(-lam, x, du0)
        subtract(du0, y, du0)
        multiply(x, x, du1)
        subtract(du1, y, du1)
        divide(du1, epsilon, du1)
        multiply(h, du, du)
        add(u, du, u)
    return u


def _quadratic_macro_rhs(lam: float, x: Sequence[float]) -> tuple[float]:
    (x0,) = x
    return (-lam * x0 - x0 * x0,)


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
    x1x1x2 = x1 * x1 * x2
    yx1 = y * x1
    # The -y*x1 term in the fast equation is deliberately not divided by
    # epsilon: only the relaxation toward B is stiff.
    return (
        BRUSSELATOR_A - (y + 1.0) * x1 + x1x1x2,
        yx1 - x1x1x2,
        (BRUSSELATOR_B - y) / epsilon - yx1,
    )


def _brusselator_euler_loop(h, n_sub, v, epsilon):
    x1, x2, y = v
    for _ in range(n_sub):
        x1x1x2 = x1 * x1 * x2
        yx1 = y * x1
        du0 = BRUSSELATOR_A - (y + 1.0) * x1 + x1x1x2
        du1 = yx1 - x1x1x2
        du2 = (BRUSSELATOR_B - y) / epsilon - yx1
        x1 = x1 + h * du0
        x2 = x2 + h * du1
        y = y + h * du2
    return x1, x2, y


def _brusselator_euler_columns(h, n_sub, v, epsilon):
    u = np.array(v, dtype=float)
    x1, x2, y = u
    du = np.empty_like(u)
    du0, du1, du2 = du
    x1x1x2, yx1 = np.empty((2, *u.shape[1:]))
    multiply, subtract, divide, add = np.multiply, np.subtract, np.divide, np.add
    for _ in range(n_sub):
        multiply(x1, x1, x1x1x2)
        multiply(x1x1x2, x2, x1x1x2)
        multiply(y, x1, yx1)
        add(y, 1.0, du0)
        multiply(du0, x1, du0)
        subtract(BRUSSELATOR_A, du0, du0)
        add(du0, x1x1x2, du0)
        subtract(yx1, x1x1x2, du1)
        subtract(BRUSSELATOR_B, y, du2)
        divide(du2, epsilon, du2)
        subtract(du2, yx1, du2)
        multiply(h, du, du)
        add(u, du, u)
    return u


def _brusselator_macro_rhs(x: Sequence[float]) -> tuple[float, float]:
    x1, x2 = x
    x1x1x2 = x1 * x1 * x2
    return (
        BRUSSELATOR_A - (BRUSSELATOR_B + 1.0) * x1 + x1x1x2,
        BRUSSELATOR_B * x1 - x1x1x2,
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


# The Euler loops of each built-in micro rhs, a pair (float_loop,
# column_loop); bound are the arguments a partial of the rhs binds. Each
# loop(*bound, h, n_sub, v, epsilon) makes n_sub substeps from the tuple v
# of a state's d components and returns the d components it ends at,
# without writing v. float_loop steps the Python floats of one state.
# column_loop copies the columns it is given into the C-contiguous (d, ...)
# stack u it owns, steps u in place and returns it: each substep writes
# every derivative row of one stack du with out= ufunc calls, then makes
# all d updates with one multiply(h, du, du) and one add(u, du, u), with no
# allocation. Both compute every derivative, term by term in the rhs's own
# order, before any update ui = ui + h * dui, so their endpoints are
# bitwise those of the loop that calls the rhs, without the call.
EULER_LOOPS = {
    _quadratic_micro_rhs: (_quadratic_euler_loop, _quadratic_euler_columns),
    _brusselator_micro_rhs: (_brusselator_euler_loop, _brusselator_euler_columns),
}
