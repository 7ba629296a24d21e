"""Micro-macro time-parallel integration of stiff fast-slow ODE systems.

A coarse low-dimensional model corrects a parallel-in-time fine integration
of the full stiff system. Three coupling variants are provided (rebuild by
lifting, rebuild by matching, and coarse stepping through the reduced model
embedded in the full state space), together with tooling to measure their
convergence orders in the time-scale separation parameter.
"""

from .analysis import (
    ErrorTable,
    SlopeFit,
    compute_errors,
    dt_order,
    epsilon_order,
    fit_slope,
    lemma_diagnostics,
)
from .engine import (
    AlgorithmVariant,
    PararealConfig,
    PararealRun,
    classic_parareal,
    init_sweep,
    parareal_iteration,
    run,
)
from .propagators import (
    make_macro,
    make_micro,
    micro_reference_trajectory,
)
from .systems import (
    LinearFastSlowSystem,
    NonlinearFastSlowSystem,
    builtin_brusselator,
    builtin_quadratic,
    builtin_toy,
)
from .transfer import TransferSet, transfer_for

__all__ = [
    "AlgorithmVariant",
    "ErrorTable",
    "LinearFastSlowSystem",
    "NonlinearFastSlowSystem",
    "PararealConfig",
    "PararealRun",
    "SlopeFit",
    "TransferSet",
    "builtin_brusselator",
    "builtin_quadratic",
    "builtin_toy",
    "classic_parareal",
    "compute_errors",
    "dt_order",
    "epsilon_order",
    "fit_slope",
    "init_sweep",
    "lemma_diagnostics",
    "make_macro",
    "make_micro",
    "micro_reference_trajectory",
    "parareal_iteration",
    "run",
    "transfer_for",
]

__version__ = "0.1.0"
