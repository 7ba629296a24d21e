"""Micro-macro time-parallel integration of stiff fast-slow ODE systems.

A coarse low-dimensional model corrects a parallel-in-time fine integration
of the full stiff system. Three coupling variants are provided (rebuild by
lifting, rebuild by matching, and coarse stepping through the reduced model
embedded in the full state space), together with tooling to measure their
convergence orders in the time-scale separation parameter.

Each public name is imported from the module that defines it: engine,
analysis, systems, propagators or transfer.
"""

__version__ = "0.1.0"
