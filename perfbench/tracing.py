"""Timing wrappers for the traced benchmark run.

``install`` replaces attributes of the mmparareal modules with wrappers that
record spans (name, start, end, parent) or add to counters. It runs only in
a traced execution, and every wrapper returns what the wrapped call returns,
so outputs stay bitwise the same.

Spans are kept for calls made at most a few hundred times per execution.
Per-state calls (propagator steps, transfer maps, the micro right-hand side,
the linalg routines) are made up to 10^6 times, so they only add to
counters: calls, seconds, and for Euler micro steps the substeps.

The fine stage of a run with workers > 1 steps in forked pool workers, whose
counters never reach this process. For those runs the step, substep and rhs
counts are computed from the config (K * N tasks of n_sub substeps each),
and the step seconds are the engine's own per-task timings. They are kept in
``Tracer.computed``, apart from the measured counters, and the spans file
labels them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

from mmparareal import analysis, cli, engine, linalg, systems, verification

_clock = time.perf_counter

LINALG_FUNCTIONS = ("solve", "inverse", "mat_exp", "eigenvalues")
CHECK_NAMES = [name for name, _ in verification.CHECKS]


class Counter:
    __slots__ = ("calls", "seconds", "substeps")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.substeps = 0


def _same(obj):
    return obj


class _TimedCall:
    """A callable that adds to a Counter; it pickles as the bare callable,
    so pool workers receive the program's own objects."""

    __slots__ = ("inner", "counter")

    def __init__(self, inner, counter):
        self.inner = inner
        self.counter = counter

    def __call__(self, *args, **kwargs):
        t0 = _clock()
        result = self.inner(*args, **kwargs)
        counter = self.counter
        counter.calls += 1
        counter.seconds += _clock() - t0
        return result

    def __reduce__(self):
        return _same, (self.inner,)


class _StepProxy:
    """Propagator stand-in that times ``step``; other attributes pass
    through. ``substeps`` is the number of Euler substeps one step makes."""

    __slots__ = ("_inner", "_counter", "_substeps")

    def __init__(self, inner, counter, substeps):
        self._inner = inner
        self._counter = counter
        self._substeps = substeps

    def step(self, u):
        t0 = _clock()
        result = self._inner.step(u)
        counter = self._counter
        counter.calls += 1
        counter.substeps += self._substeps
        counter.seconds += _clock() - t0
        return result

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __reduce__(self):
        return _same, (self._inner,)


class _TransferProxy:
    """TransferSet stand-in that times the three maps the engine calls."""

    __slots__ = ("_inner", "_counter")

    def __init__(self, inner, counter):
        self._inner = inner
        self._counter = counter

    def _timed(self, method, *args):
        t0 = _clock()
        result = method(*args)
        counter = self._counter
        counter.calls += 1
        counter.seconds += _clock() - t0
        return result

    def restrict(self, u):
        return self._timed(self._inner.restrict, u)

    def lift(self, x):
        return self._timed(self._inner.lift, x)

    def match(self, x, v):
        return self._timed(self._inner.match, x, v)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __reduce__(self):
        return _same, (self._inner,)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or None]
        self._stack = []
        self.counters = defaultdict(Counter)
        self.computed = defaultdict(Counter)
        self.fine_wall = 0.0
        self.fine_task = 0.0
        self.sweep_wall = 0.0
        self.checks_passed = 0

    def spanned(self, name, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, _clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()

        return wrapper

    def computed_counts(self) -> dict:
        """The counters of fine steps made in pool workers, by name."""
        return {
            name: {"calls": c.calls, "substeps": c.substeps, "seconds": c.seconds}
            for name, c in sorted(self.computed.items())
            if c.calls
        }

    def write(self, path, execution: int):
        """Write the spans and counters as JSON lines."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "exec": execution, "span": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
            for source, counters in (
                ("measured", self.counters),
                ("computed from config (forked workers)", self.computed),
            ):
                for name, c in sorted(counters.items()):
                    if not c.calls:
                        continue
                    fh.write(json.dumps({
                        "exec": execution, "counter": name, "source": source,
                        "calls": c.calls, "seconds": c.seconds, "substeps": c.substeps,
                    }) + "\n")


def _recording_run(tracer, run):
    """engine.run, adding the engine's own fine and sweep timings to the
    tracer and the computed counts of fine steps made in pool workers."""
    signature = inspect.signature(run)

    @functools.wraps(run)
    def recorded(*args, **kwargs):
        result = run(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        config, workers = bound.arguments["config"], bound.arguments["workers"]
        timings = result.timings
        tracer.fine_wall += sum(timings.fine_wall)
        tracer.fine_task += sum(timings.fine_task_seconds)
        tracer.sweep_wall += sum(timings.sweep_wall)
        if workers > 1 and config.n_iterations > 0:
            tasks = config.n_iterations * config.n_intervals
            n_sub = getattr(result.micro_prop, "n_sub", None)
            steps = tracer.computed["exact_micro" if n_sub is None else "euler_micro"]
            steps.calls += tasks
            steps.seconds += sum(timings.fine_task_seconds)
            if n_sub is not None:
                steps.substeps += tasks * n_sub
                tracer.computed["micro_rhs"].calls += tasks * n_sub
        return result

    return recorded


def _proxied_micro(tracer, make_micro):
    @functools.wraps(make_micro)
    def make(*args, **kwargs):
        prop = make_micro(*args, **kwargs)
        n_sub = getattr(prop, "n_sub", None)
        if n_sub is None:
            return _StepProxy(prop, tracer.counters["exact_micro"], 0)
        # The propagator is new and owned by this run; its rhs is called
        # once per substep.
        prop.rhs = _TimedCall(prop.rhs, tracer.counters["micro_rhs"])
        return _StepProxy(prop, tracer.counters["euler_micro"], n_sub)

    return make


def _proxied_macro(tracer, make_macro):
    @functools.wraps(make_macro)
    def make(*args, **kwargs):
        return _StepProxy(make_macro(*args, **kwargs), tracer.counters["macro"], 0)

    return make


def _proxied_transfer(tracer, transfer_for):
    @functools.wraps(transfer_for)
    def make(*args, **kwargs):
        return _TransferProxy(transfer_for(*args, **kwargs), tracer.counters["transfer"])

    return make


def _recording_check(tracer, check):
    @functools.wraps(check)
    def recorded():
        ok, detail = check()
        tracer.checks_passed += bool(ok)
        return ok, detail

    return recorded


def install(tracer: Tracer):
    span = tracer.spanned
    cli.main = span("cli.main", cli.main)
    analysis.experiment_table = span(
        "analysis.experiment_table", analysis.experiment_table
    )
    analysis.compute_errors = span("analysis.compute_errors", analysis.compute_errors)
    engine.run = span("engine.run", _recording_run(tracer, engine.run))
    engine.init_sweep = span("engine.init_sweep", engine.init_sweep)
    engine.parareal_iteration = span(
        "engine.parareal_iteration", engine.parareal_iteration
    )
    engine.micro_reference_trajectory = span(
        "propagators.micro_reference_trajectory", engine.micro_reference_trajectory
    )
    engine.make_micro = span(
        "propagators.make_micro", _proxied_micro(tracer, engine.make_micro)
    )
    engine.make_macro = span(
        "propagators.make_macro", _proxied_macro(tracer, engine.make_macro)
    )
    engine.transfer_for = span(
        "transfer.transfer_for", _proxied_transfer(tracer, engine.transfer_for)
    )
    for cls in (systems.LinearFastSlowSystem, systems.NonlinearFastSlowSystem):
        cls.__post_init__ = span("systems.build", cls.__post_init__)
    for name in LINALG_FUNCTIONS:
        setattr(linalg, name, _TimedCall(getattr(linalg, name), tracer.counters["linalg"]))
    verification.CHECKS = [
        (name, span("verification." + name, _recording_check(tracer, check)))
        for name, check in verification.CHECKS
    ]


def layer_metrics(tracer: Tracer, window, csv_bytes: int) -> dict:
    """Per-layer metrics of one execution. ``window`` is the (start, end)
    of the timed call; spans made during set-up count in the totals but not
    in the span coverage."""
    total = defaultdict(float)
    own = defaultdict(float)
    spans = tracer.spans
    start, end = window
    covered = 0.0
    for name, t0, t1, parent in spans:
        duration = t1 - t0
        total[name] += duration
        own[name] += duration
        if parent is None:
            covered += max(0.0, min(t1, end) - max(t0, start))
        else:
            own[spans[parent][0]] -= duration

    measured, computed = tracer.counters, tracer.computed
    euler = [measured["euler_micro"], computed["euler_micro"]]
    micro = euler + [measured["exact_micro"], computed["exact_micro"]]
    substeps = sum(c.substeps for c in euler)
    euler_seconds = sum(c.seconds for c in euler)
    metrics = {
        "propagators.euler_substeps": substeps,
        "propagators.us_per_substep": 1e6 * euler_seconds / substeps if substeps else 0.0,
        "propagators.reference_s": total["propagators.micro_reference_trajectory"],
        "propagators.micro_steps": sum(c.calls for c in micro),
        "propagators.micro_step_s": sum(c.seconds for c in micro),
        "propagators.macro_steps": measured["macro"].calls,
        "propagators.macro_step_s": measured["macro"].seconds,
        "propagators.make_s": total["propagators.make_micro"]
        + total["propagators.make_macro"],
        "engine.fine_wall_s": tracer.fine_wall,
        "engine.fine_task_s": tracer.fine_task,
        "engine.iteration_s": total["engine.parareal_iteration"],
        "engine.sweep_wall_s": tracer.sweep_wall,
        "engine.init_sweep_s": total["engine.init_sweep"],
        "engine.fine_parallel_ratio": (
            tracer.fine_task / tracer.fine_wall if tracer.fine_wall else 0.0
        ),
        "engine.pool_s": own["engine.run"],
        "transfer.calls": measured["transfer"].calls,
        "transfer.s": measured["transfer"].seconds,
        "cli.self_s": own["cli.main"],
        "cli.csv_bytes": csv_bytes,
        "analysis.compute_errors_s": total["analysis.compute_errors"],
        "analysis.experiment_table_s": total["analysis.experiment_table"],
        "systems.build_s": total["systems.build"],
        "systems.micro_rhs_calls": measured["micro_rhs"].calls
        + computed["micro_rhs"].calls,
        "systems.micro_rhs_s": measured["micro_rhs"].seconds,
        "linalg.calls": measured["linalg"].calls,
        "linalg.s": measured["linalg"].seconds,
        "verification.passed": tracer.checks_passed,
        "trace.span_coverage": covered / (end - start),
    }
    for name in CHECK_NAMES:
        metrics["verification.check_s." + name] = total["verification." + name]
    return metrics
