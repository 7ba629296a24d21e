"""The four benchmark workloads.

Each workload builds its inputs from a seed, makes one timed call into the
package (``call``) and checks the output afterwards (``check``). Seed 0 gives
the package defaults exactly; any other seed shifts each component of the
default initial condition by a uniform draw from [-U0_SHIFT, U0_SHIFT].

``check`` returns the output's SHA-256 digest and a list of problems. It
checks the invariants that hold at every seed: all output finite, and on the
MATCHING workloads the rows n <= k equal to the reference within verify's
local-exactness tolerance. Comparing digests across worker counts and with
the hashes pinned for seed 0 is done by run.py, which sees every execution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

import numpy as np

from mmparareal import analysis, cli, engine
from mmparareal.engine import AlgorithmVariant, PararealConfig
from mmparareal.systems import builtin_brusselator, builtin_quadratic

U0_SHIFT = 0.05

# verify's local-exactness tolerance: on MATCHING rows,
# |u[k][n] - ref[n]| <= TOL * (1 + |ref[n]|) for every n <= k.
LOCAL_EXACTNESS_TOL = 1e-12

VERIFY_CHECKS = 18


def initial_state(system: str, seed: int) -> list:
    u0 = [float(v) for v in cli.DEFAULT_U0[system]]
    if seed == 0:
        return u0
    rng = random.Random(seed)
    return [v + rng.uniform(-U0_SHIFT, U0_SHIFT) for v in u0]


def _lattice_digest(run) -> str:
    digest = hashlib.sha256()
    for lattice in (run.u, run.x):
        digest.update(np.ascontiguousarray(lattice, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _finite_problems(named_arrays) -> list:
    return [
        f"non-finite values in {name}"
        for name, values in named_arrays
        if not np.all(np.isfinite(values))
    ]


def _matching_rows_problem(u: np.ndarray, ref: np.ndarray):
    """Worst normalized defect of u[k][n] against ref[n] over n <= k."""
    k, n = np.indices(u.shape[:2])
    gap = np.linalg.norm(u - ref[None], axis=2)
    scaled = gap / (1.0 + np.linalg.norm(ref, axis=1))[None]
    worst = float(np.max(scaled[n <= k]))
    if not worst <= LOCAL_EXACTNESS_TOL:
        return f"MATCHING rows n <= k deviate by {worst:.2e} (> {LOCAL_EXACTNESS_TOL:g})"
    return None


class ToySweepK:
    """``mmparareal sweep-k --all-times``: the toy system with exact
    propagators and MATCHING, 21 epsilons, K=30, N=100."""

    system = "toy"
    csv_bytes = 0

    def __init__(self, seed: int, workers: int, workdir):
        self.argv = ["sweep-k", "--all-times", "--workers", str(workers)]
        if seed != 0:
            path = workdir / f"toy-sweep-k-seed{seed}.json"
            path.write_text(json.dumps({"u0": initial_state(self.system, seed)}))
            self.argv += ["--config", str(path)]

    def call(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.exit_code = cli.main(self.argv)
        self.csv = out.getvalue().encode()
        self.csv_bytes = len(self.csv)

    def check(self):
        problems = []
        if self.exit_code != 0:
            problems.append(f"exit code {self.exit_code}")
        lines = self.csv.decode().splitlines()
        if not lines or lines[0] != cli.CSV_HEADER:
            problems.append("CSV header missing")
        # The micro error is 0 up to round-off on rows n <= k, and a bound on
        # it alone is stricter than verify's TOL * (1 + |ref[n]|).
        worst = 0.0
        for line in lines[1:]:
            fields = line.split(",")
            k, n = int(fields[7]), int(fields[8])
            errors = [float(v) for v in fields[9:]]
            if not all(math.isfinite(e) for e in errors):
                problems.append(f"non-finite error at k={k} n={n}")
                break
            if n <= k:
                worst = max(worst, errors[3])
        if not worst <= LOCAL_EXACTNESS_TOL:
            problems.append(
                f"MATCHING rows n <= k deviate by {worst:.2e} (> {LOCAL_EXACTNESS_TOL:g})"
            )
        return hashlib.sha256(self.csv).hexdigest(), problems


class BrusselatorEuler:
    """``analysis.experiment_table`` on the Brusselator, epsilon 1e-3, Euler
    fine (substep 1e-4) and coarse, dt 0.1, T 10, MATCHING, K=4."""

    system = "brusselator"
    csv_bytes = 0

    def __init__(self, seed: int, workers: int, workdir):
        self.model = builtin_brusselator(1e-3)
        self.u0 = np.array(initial_state(self.system, seed))
        self.workers = workers

    def call(self):
        # experiment_table returns only the error table; keep the run it
        # makes, so its u/x lattices can be hashed.
        runs = []
        run = engine.run

        def keep(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        engine.run = keep
        try:
            self.table = analysis.experiment_table(
                self.model, "brusselator", AlgorithmVariant.MATCHING,
                "euler", "euler", 0.1, 10.0, 4, self.u0,
                substep=1e-4, workers=self.workers,
            )
        finally:
            engine.run = run
        (self.run,) = runs

    def check(self):
        table = self.table
        problems = _finite_problems([
            ("u", self.run.u), ("x", self.run.x),
            ("abs_micro", table.abs_micro), ("abs_macro", table.abs_macro),
        ])
        problem = _matching_rows_problem(self.run.u, self.run.reference)
        if problem:
            problems.append(problem)
        return _lattice_digest(self.run), problems


class QuadraticLifting:
    """``engine.run`` on the quadratic system, lambda 1, epsilon 1e-3, Euler
    fine (substep 1e-4) and coarse, N=100, LIFTING, K=4, no reference."""

    system = "quadratic"
    csv_bytes = 0

    def __init__(self, seed: int, workers: int, workdir):
        self.config = PararealConfig(
            system=builtin_quadratic(1.0, 1e-3),
            t_final=10.0,
            dt=0.1,
            n_iterations=4,
            variant=AlgorithmVariant.LIFTING,
            u0=np.array(initial_state(self.system, seed)),
            micro_kind="euler",
            macro_kind="euler",
            substep=1e-4,
            with_reference=False,
        )
        self.workers = workers

    def call(self):
        self.run = engine.run(self.config, workers=self.workers)

    def check(self):
        problems = _finite_problems([("u", self.run.u), ("x", self.run.x)])
        return _lattice_digest(self.run), problems


class Verify:
    """``mmparareal verify``: the 18 named invariant checks."""

    csv_bytes = 0

    def __init__(self, seed: int, workers: int, workdir):
        pass

    def call(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.exit_code = cli.main(["verify"])
        self.report = out.getvalue()

    def check(self):
        problems = []
        if self.exit_code != 0:
            problems.append(f"exit code {self.exit_code}")
        lines = self.report.splitlines()
        summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
        if not lines or lines[-1] != summary:
            problems.append(f"expected {summary!r}, got {lines[-1:]!r}")
        return hashlib.sha256(self.report.encode()).hexdigest(), problems


WORKLOADS = {
    "toy-sweep-k": ToySweepK,
    "brusselator-euler": BrusselatorEuler,
    "quadratic-lifting-2w": QuadraticLifting,
    "verify": Verify,
}
