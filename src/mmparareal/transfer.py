"""Operators coupling the microscopic and macroscopic descriptions.

Three maps, bundled per system. Each takes one state or a whole row of
states, an (n, .) array, and acts on the last axis:

* restrict: u -> X, the slow components of the full state;
* lift:     X -> a full state on the slow manifold;
* match:    (X, v) -> full state taking the slow part from X and the fast
            part from v.

The identities restrict(lift(X)) = X, restrict(match(X, v)) = X and
match(restrict(u), u) = u hold exactly (bitwise), row by row: restrict and
match are slicing and concatenation, and lift copies X into the slow slots.
match is nonexpansive: ||match(X,u) - match(Y,v)|| <= |X-Y| + ||u-v||.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .systems import LinearFastSlowSystem, NonlinearFastSlowSystem


@dataclass(eq=False)
class TransferSet:
    """Restriction/lifting/matching maps bound to one system."""

    slow_dim: int
    lift: Callable[[np.ndarray], np.ndarray]

    def restrict(self, u: np.ndarray) -> np.ndarray:
        return u[..., : self.slow_dim].copy()

    def match(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate([x, v[..., self.slow_dim :]], axis=-1)


def transfer_for(system) -> TransferSet:
    """Build the operator set for a system. match replaces the slow
    components and keeps the fast ones (for the Brusselator, the fast species)."""
    if not isinstance(system, (LinearFastSlowSystem, NonlinearFastSlowSystem)):
        raise TypeError(f"unsupported system type {type(system).__name__}")
    return TransferSet(slow_dim=system.slow_dim, lift=system.lift_map)
