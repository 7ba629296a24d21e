"""Shared oracles and the acceptance-summary reporting hook."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Every @given test draws the same examples on every machine and run.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def rk4_matrix(b: np.ndarray, t: float, n_steps: int) -> np.ndarray:
    """Independent integration oracle: classic Runge-Kutta 4 on the matrix
    ODE P' = b P, P(0) = I, with n_steps uniform steps over [0, t]."""
    p = np.eye(b.shape[0])
    h = t / n_steps
    for _ in range(n_steps):
        k1 = b @ p
        k2 = b @ (p + 0.5 * h * k1)
        k3 = b @ (p + 0.5 * h * k2)
        k4 = b @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


@pytest.fixture
def rk4_matrix_oracle():
    return rk4_matrix


# One line per acceptance criterion, printed at the end of the session so a
# plain `pytest -v` run shows the pass/fail ledger in one block.
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(label: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[label] = (bool(ok), detail)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[label]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] {label}: {detail}")
