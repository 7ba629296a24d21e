"""Dense linear algebra for small systems.

Everything in this package works with tiny dense matrices, so we
wrap LAPACK-backed routines from numpy/scipy behind a small surface with
explicit failure signalling:

* ``solve`` / ``inverse``: LU with partial pivoting, singularity detected
  through an explicit pivot threshold relative to ||A||_inf.
* ``mat_exp``: scaling-and-squaring with an order-13 Pade core
  (scipy.linalg.expm); overflow raises instead of saturating to inf.
* ``eigenvalues``: Hessenberg reduction plus shifted QR (LAPACK geev).

All functions are pure and operate on float64 arrays.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

# Pivot magnitudes below PIVOT_RTOL * ||A||_inf are treated as singular.
PIVOT_RTOL = 1e-13


class SingularMatrixError(Exception):
    """Pivoting fell below the singularity threshold."""


class ExpOverflowError(Exception):
    """Matrix exponential overflowed during squaring."""


class NoConvergenceError(Exception):
    """Eigenvalue iteration failed to converge."""


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _as_vector(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("vector entries must be finite")
    return b


def _lu_checked(a: np.ndarray):
    """LU-factor a, raising SingularMatrixError on tiny pivots."""
    with warnings.catch_warnings():
        # scipy warns on exactly-zero pivots; the threshold below handles it.
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    threshold = PIVOT_RTOL * np.linalg.norm(a, np.inf)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots, initial=np.inf) <= threshold:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {threshold:.3e}"
        )
    return lu, piv


def solve(a, b) -> np.ndarray:
    """Solve a w = b for square nonsingular a."""
    a = _as_square(a)
    b = _as_vector(b, a.shape[0])
    lu, piv = _lu_checked(a)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def inverse(a) -> np.ndarray:
    """Inverse of a square nonsingular matrix, column by column."""
    a = _as_square(a)
    lu, piv = _lu_checked(a)
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0]), check_finite=False)


def mat_exp(m) -> np.ndarray:
    """exp(m) for a square matrix; raises ExpOverflowError instead of
    returning non-finite entries."""
    m = _as_square(m)
    e = scipy.linalg.expm(m)
    if not np.all(np.isfinite(e)):
        raise ExpOverflowError("matrix exponential overflowed")
    return e


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by (real, imag)."""
    m = _as_square(m)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
        raise NoConvergenceError(str(exc)) from exc
    return np.sort_complex(vals)
