"""Command-line experiment harness.

Subcommands: sweep-epsilon, sweep-k, sweep-dt (CSV convergence data),
verify (invariant checks), speedup (fine-stage timing report).

CSV goes to --out (default stdout) with the fixed header below; run metadata
(initial condition, substep, grids) goes to stderr so the CSV bytes depend
only on the experiment spec. Floats are written in shortest round-trip form.
A JSON config file (--config) can supply any long option. Its keys are the
parser's own option names by construction (underscores, e.g. "delta_t_fine"),
plus the config-only "u0" and "quadratic_lambda"; explicit command-line
flags win over the file.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from argparse import Namespace
from contextlib import nullcontext
from itertools import repeat

import numpy as np

from . import analysis, engine, verification
from .engine import AlgorithmVariant, PararealConfig
from .linalg import ExpOverflowError, NoConvergenceError, SingularMatrixError
from .propagators import DEFAULT_SUBSTEP, NonFiniteStateError
from .systems import (
    builtin_brusselator,
    builtin_quadratic,
    builtin_toy,
)

CSV_HEADER = (
    "system,algorithm,coarse,fine,epsilon,dt,T,k,n,"
    "rel_macro_error,rel_micro_error,abs_macro_error,abs_micro_error"
)

SYSTEMS = ("toy", "quadratic", "brusselator")
COARSE_KINDS = ("exact", "euler", "rk4")
FINE_KINDS = ("exact", "euler")

DEFAULT_U0 = {
    "toy": analysis.TOY_U0.tolist(),
    "quadratic": [1.0, 0.0],
    "brusselator": [1.0, 1.0, 3.0],
}

# 5 points per decade over [1e-5, 1e-1].
DEFAULT_EPS_GRID = [float(e) for e in np.logspace(-5, -1, 21)]

NUMERICAL_ERRORS = (
    NonFiniteStateError,
    SingularMatrixError,
    ExpOverflowError,
    NoConvergenceError,
)

# Config keys that are not command-line options.
CONFIG_ONLY_KEYS = {"u0", "quadratic_lambda"}


class CliError(Exception):
    """Invalid arguments or configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _int_value(name: str, value) -> int:
    # argparse has already typed a flag; a config value must be a JSON
    # integer, so 1.7, true and "2" are rejected rather than truncated.
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{name} must be an integer, got {value!r}")
    return value


def _float_value(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{name} must be a number, got {value!r}")
    return float(value)


def _parse_float_list(value, what: str) -> list:
    if isinstance(value, str):
        parts = [s for s in value.split(",") if s.strip()]
        try:
            value = [float(s) for s in parts]
        except ValueError as exc:
            raise CliError(f"could not parse {what}: {exc}") from exc
    if not isinstance(value, list):
        raise CliError(f"{what} must be a list of numbers, got {value!r}")
    value = [_float_value(what, v) for v in value]
    if not value:
        raise CliError(f"{what} must contain at least one value")
    if any(not (0 < v < math.inf) for v in value):
        raise CliError(f"{what} entries must be positive and finite")
    return value


def _default_kmax(command: str, algorithm: int, coarse: str) -> int:
    if command == "sweep-k":
        return {1: 8, 2: 30, 3: 8}[algorithm]
    if command == "speedup":
        return 6
    if command == "sweep-dt":
        return 3
    # sweep-epsilon: low iteration counts already show the rates.
    if algorithm == 1:
        return 2 if coarse == "exact" else 3
    return {2: 6, 3: 3}[algorithm]


def resolve_spec(args: Namespace) -> None:
    """Merge flags over the config file over built-in defaults, in place:
    each option attribute of args ends up holding its resolved value, and
    the config-only keys are added as attributes."""
    config = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"could not read config file: {exc}") from exc
        if not isinstance(config, dict):
            raise CliError("config file must hold a JSON object")
        known = set(vars(args)) - {"command", "config"} | CONFIG_ONLY_KEYS
        unknown = set(config) - known
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")

    def pick(name, default):
        flag = getattr(args, name, None)
        return flag if flag is not None else config.get(name, default)

    args.system = pick("system", "toy")
    if args.system not in SYSTEMS:
        raise CliError(f"unknown system {args.system!r} (choose from {SYSTEMS})")
    linear = args.system == "toy"

    args.algorithm = _int_value("algorithm", pick("algorithm", 2))
    if args.algorithm not in (1, 2, 3):
        raise CliError("algorithm must be 1, 2, or 3")

    args.coarse = pick("coarse", "exact" if linear else "euler")
    args.fine = pick("fine", "exact" if linear else "euler")

    default_eps = [1e-2] if args.command == "speedup" else DEFAULT_EPS_GRID
    args.epsilons = _parse_float_list(pick("epsilons", default_eps), "--epsilons")

    args.dt = _float_value("dt", pick("dt", 0.1))
    args.T = _float_value("T", pick("T", 10.0))
    if not (args.dt > 0 and args.T > 0):
        raise CliError("dt and T must be positive")

    dts = pick("dts", None)
    args.dts = _parse_float_list(
        dts if dts is not None else [0.2, 0.1, 0.05, 0.025], "--dts"
    )

    args.kmax = _int_value(
        "kmax", pick("kmax", _default_kmax(args.command, args.algorithm, args.coarse))
    )
    if args.kmax < 0:
        raise CliError("kmax must be >= 0")

    substep = pick("delta_t_fine", None)
    if substep is None and args.fine == "euler":
        # Sized so one speedup task is a visible chunk of work.
        substep = 2e-5 if args.command == "speedup" else DEFAULT_SUBSTEP
    if substep is not None:
        substep = _float_value("delta_t_fine", substep)
        if not (substep > 0):
            raise CliError("delta-t-fine must be positive")
    args.delta_t_fine = substep

    u0 = pick("u0", DEFAULT_U0[args.system])
    if not isinstance(u0, list):
        raise CliError(f"u0 must be a list of numbers, got {u0!r}")
    args.u0 = [_float_value("u0", v) for v in u0]

    workers = pick("workers", None)
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else (os.cpu_count() or 1)
    args.workers = _int_value("workers", workers)
    if args.workers < 1:
        raise CliError("workers must be >= 1")

    args.all_times = pick("all_times", False)
    if not isinstance(args.all_times, bool):
        raise CliError("all_times must be true or false")

    args.out = pick("out", "-")
    if not isinstance(args.out, str):
        raise CliError(f"out must be a path string, got {args.out!r}")

    args.quadratic_lambda = _float_value(
        "quadratic_lambda", pick("quadratic_lambda", 1.0)
    )


def _build_system(spec: Namespace, epsilon: float):
    if spec.system == "toy":
        return builtin_toy(epsilon)
    if spec.system == "quadratic":
        return builtin_quadratic(spec.quadratic_lambda, epsilon)
    return builtin_brusselator(epsilon)


def _config(spec: Namespace, dt: float, epsilon: float, **kw) -> PararealConfig:
    """The run's config; a lattice the host cannot allocate raises numpy's
    MemoryError here, before the metadata and any pool (np.empty touches no
    memory)."""
    config = PararealConfig(
        system=_build_system(spec, epsilon),
        t_final=spec.T,
        dt=dt,
        n_iterations=spec.kmax,
        variant=AlgorithmVariant(spec.algorithm),
        u0=np.array(spec.u0),
        micro_kind=spec.fine,
        macro_kind=spec.coarse,
        substep=spec.delta_t_fine,
        **kw,
    )
    for shape in engine.lattice_shapes(config):
        np.empty(shape)
    return config


def _emit_tables(tables, all_times: bool) -> str:
    """The CSV text: the header, then one row per (table, k, n).

    Each table's cells are formatted through their bit patterns: `repr` runs
    once per distinct pattern, into a 1-D object array, and one take by the
    inverse indices, reshaped to (4, rows), gathers the four error columns;
    the rows are joined from those strings. Bit patterns, not values, keep
    -0.0 apart from 0.0 and every NaN apart from the others, so each cell
    reads as its own `repr`. The work stays per table, so only one table's
    patterns are held at a time.
    """
    blocks = [CSV_HEADER]
    prefixes = {}
    for t in tables:
        lead = (
            f"{t.system},{t.variant},{t.coarse},{t.fine},"
            f"{t.epsilon!r},{t.dt!r},{t.t_final!r}"
        )
        ns = range(t.n_intervals + 1) if all_times else [t.n_intervals]
        errors = np.stack(
            [t.rel_macro, t.rel_micro, t.abs_macro, t.abs_micro], axis=-1
        )[:, ns]
        # The "k,n" fields, built once for all tables of one (K, N).
        shape = (len(errors), t.n_intervals)
        if shape not in prefixes:
            prefixes[shape] = [f"{k},{n}" for k in range(len(errors)) for n in ns]
        bits, inverse = np.unique(errors.view(np.uint64).ravel(), return_inverse=True)
        text = np.array(
            list(map(repr, bits.view(np.float64).tolist())), dtype=object
        )
        columns = text[inverse.reshape(-1, 4).T].tolist()
        rows = zip(repeat(lead), prefixes[shape], *columns)
        blocks.append("\n".join(map(",".join, rows)))
    return "\n".join(blocks) + "\n"


def _check_out(out: str):
    """Reject an --out that cannot be opened for writing before any run,
    without creating or truncating the file."""
    if out == "-":
        return
    if not out:
        raise CliError("could not write --out: the path is empty")
    directory = os.path.dirname(out) or "."
    if os.path.isdir(out):
        raise CliError(f"could not write --out: {out} is a directory")
    if not os.path.isdir(directory):
        raise CliError(f"could not write --out: {out}: no directory {directory}")


def _write_output(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"could not write --out: {exc}") from exc


def _print_metadata(spec: Namespace, epsilons: list):
    """Run metadata on stderr: the dt (or dts), substep and epsilons that run."""
    step = f"dts={spec.dts!r}" if spec.command == "sweep-dt" else f"dt={spec.dt!r}"
    substep = None if spec.fine == "exact" else spec.delta_t_fine
    print(
        f"# system={spec.system} algorithm={spec.algorithm} "
        f"coarse={spec.coarse} fine={spec.fine}",
        file=sys.stderr,
    )
    print(
        f"# u0={spec.u0} T={spec.T!r} {step} "
        f"substep={substep} kmax={spec.kmax}",
        file=sys.stderr,
    )
    print(f"# epsilons={epsilons!r}", file=sys.stderr)
    if spec.system == "quadratic":
        print(f"# quadratic_lambda={spec.quadratic_lambda!r}", file=sys.stderr)


def cmd_sweep(spec: Namespace) -> int:
    """sweep-epsilon, sweep-k and sweep-dt: one error table per grid point,
    from one engine run per dt, whose fine stage --workers slabs. With
    --workers > 1 all runs share one pool.

    The three differ only in their grid and default kmax: sweep-dt runs each
    dt of its grid at the first epsilon, the other two the epsilon grid at
    --dt in one run.
    """
    _check_out(spec.out)
    if spec.command == "sweep-dt":
        groups = [(dt, spec.epsilons[:1]) for dt in spec.dts]
    else:
        groups = [(spec.dt, spec.epsilons)]
    # Every group's config is checked before the metadata and the first run.
    configs = [_config(spec, dt, eps[0], epsilons=eps) for dt, eps in groups]
    _print_metadata(spec, groups[0][1])
    tables = []
    own = engine.worker_pool(spec.workers) if spec.workers > 1 else nullcontext()
    with own as pool:
        for config in configs:
            tables += analysis.grid_tables(config, spec.system, spec.workers, pool)
    _write_output(_emit_tables(tables, spec.all_times), spec.out)
    return 0


def cmd_verify() -> int:
    results = verification.run_checks()
    for result in results:
        status = " ok " if result.ok else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def cmd_speedup(spec: Namespace) -> int:
    _check_out(spec.out)
    config = _config(spec, spec.dt, spec.epsilons[0], with_reference=False)
    _print_metadata(spec, spec.epsilons[:1])
    n = config.n_intervals
    if spec.kmax == 0:
        lines = [f"N = {n} intervals; no iterations, ideal speed-up undefined"]
    else:
        ideal = n / spec.kmax
        lines = [
            f"N = {n} intervals, K = {spec.kmax} iterations",
            f"ideal speed-up N/K = {analysis.format_ideal_speedup(ideal)}",
        ]
        for w in [w for w in (1, 2, 4) if w <= spec.workers] or [1]:
            timings = engine.run(config, workers=w).timings
            # The measured ratio, summed slab seconds over the fine stage's
            # wall, is not a speed-up: with more workers than CPUs a slab's
            # seconds include its wait for a CPU, and iteration 0's wall
            # includes forking the pool, so it can exceed 1 while the stage
            # gets slower. Compare the walls across worker counts for that.
            wall = sum(timings.fine_wall)
            tasks = sum(timings.fine_task_seconds)
            lines.append(
                f"workers={w}  fine-stage wall {wall:.3f} s  "
                f"task-sum {tasks:.3f} s  measured ratio {tasks / wall:.2f}"
            )
    _write_output("\n".join(lines) + "\n", spec.out)
    return 0


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--system", choices=SYSTEMS)
    common.add_argument("--algorithm", type=int)
    common.add_argument("--coarse", choices=COARSE_KINDS)
    common.add_argument("--fine", choices=FINE_KINDS)
    common.add_argument("--epsilons", help="comma-separated epsilon values")
    common.add_argument("--dt", type=float)
    common.add_argument("--dts", help="comma-separated dt values (sweep-dt)")
    common.add_argument("--T", type=float)
    common.add_argument("--kmax", type=int)
    common.add_argument("--delta-t-fine", dest="delta_t_fine", type=float)
    common.add_argument("--out")
    common.add_argument("--workers", type=int)
    common.add_argument("--all-times", dest="all_times",
                        action="store_const", const=True)
    common.add_argument("--config")

    parser = _Parser(prog="mmparareal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sweep-epsilon", parents=[common],
                   help="errors vs epsilon at fixed dt")
    sub.add_parser("sweep-k", parents=[common],
                   help="errors vs iteration count for each epsilon")
    sub.add_parser("sweep-dt", parents=[common],
                   help="errors vs dt at fixed epsilon")
    sub.add_parser("speedup", parents=[common],
                   help="fine-stage timing at several worker counts")
    sub.add_parser("verify", help="run the invariant checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify()
        try:
            resolve_spec(args)
        except (TypeError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        command = cmd_speedup if args.command == "speedup" else cmd_sweep
        try:
            return command(args)
        except ValueError as exc:
            # Config-shaped problems surfacing from the library layer.
            raise CliError(str(exc)) from exc
        except MemoryError as exc:
            # numpy's message names the allocation: its size and shape.
            raise CliError(f"out of memory: {exc}") from exc
        except engine.WorkerLostError as exc:
            raise CliError(str(exc)) from exc
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())
