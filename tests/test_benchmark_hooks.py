"""The benchmark in perfbench/ patches names of this package when it traces a
run. Installing its tracer here makes a rename or deletion of any of those
names fail the suite, not the next traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from mmparareal import verification

ROOT = Path(__file__).resolve().parents[1]


def run_with_tracing(code: str, *args: str):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        # Leave perfbench/ as it is: no bytecode cache written beside it.
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_on_the_package():
    run_with_tracing("import tracing; tracing.install(tracing.Tracer())")


TRACED_RUN = """
import numpy as np
from mmparareal import engine
from mmparareal.engine import AlgorithmVariant, PararealConfig
from mmparareal.systems import builtin_quadratic
import tracing

def config():
    return PararealConfig(
        system=builtin_quadratic(1.0, 1e-2), t_final=1.0, dt=0.1, n_iterations=2,
        variant=AlgorithmVariant.MATCHING, u0=np.array([1.0, 0.0]),
        micro_kind="euler", macro_kind="euler", substep=1e-3,
    )

plain_config = config()
plain = {w: engine.run(plain_config, workers=w) for w in (1, 2)}
tracer = tracing.Tracer()
tracing.install(tracer)
# A config builds its propagators, so the traced runs need one built after
# install.
traced_config = config()
for w in (1, 2):
    traced = engine.run(traced_config, workers=w)
    for name in ("u", "x", "reference"):
        assert np.array_equal(getattr(traced, name), getattr(plain[w], name)), (w, name)
    assert np.array_equal(traced.u, plain[1].u), w
assert tracer.counters["euler_micro"].calls > 0
assert tracer.computed["euler_micro"].calls > 0
"""


def test_traced_run_leaves_lattices_unchanged():
    # The tracer wraps the micro propagator in a proxy that pickles as the
    # bare propagator; a row passing through it, in process or in pool
    # workers, must give the untraced run's lattices bit for bit.
    run_with_tracing(TRACED_RUN)


TRACED_SWEEP = """
import contextlib, io
from mmparareal import cli
import tracing

def csv(workers):
    out = io.StringIO()
    argv = ["sweep-k", "--all-times", "--epsilons", "1e-3,1e-4,1e-5",
            "--workers", str(workers)]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()

plain = {w: csv(w) for w in (1, 2)}
tracer = tracing.Tracer()
tracing.install(tracer)
for w in (1, 2):
    assert csv(w) == plain[w] == plain[1], w
assert tracer.counters["exact_micro"].calls > 0
"""


def test_traced_sweep_writes_the_untraced_csv():
    # One engine run per sweep: the grid propagator, the per-epsilon
    # reference propagators (mapped over the pool at 2 workers) and the
    # transfer set all pass through the tracer's proxies.
    run_with_tracing(TRACED_SWEEP)


TRACED_SPEEDUP = """
import contextlib, io
from mmparareal import cli
import tracing

def report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["speedup", "--fine", "euler", "--kmax", "1", "--T", "1", "--workers", "2"]
        assert cli.main(argv) == 0
    # The timings differ from run to run; the lines and their labels do not.
    return [line.split("  fine-stage")[0] for line in out.getvalue().splitlines()]

plain = report()
tracer = tracing.Tracer()
tracing.install(tracer)
assert report() == plain, plain
assert plain[-2:] == ["workers=1", "workers=2"], plain
assert tracer.counters["micro_rhs"].calls > 0
assert tracer.computed["euler_micro"].calls > 0
"""


def test_traced_speedup_reuses_one_config_propagator():
    # speedup runs one config at each worker count, so the traced Euler
    # micro propagator, with its timed rhs, serves several runs in process
    # and is pickled to pool workers.
    run_with_tracing(TRACED_SPEEDUP)


def test_check_names_are_the_declared_check_metrics():
    # A traced benchmark run emits one verification.check_s.<name> metric
    # per verify check and fails unless they are the declared ones, so a
    # renamed, added or removed check needs the benchmark declaration too.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    prefix = "verification.check_s."
    metrics = [
        m["name"][len(prefix):] for m in declared if m["name"].startswith(prefix)
    ]
    assert sorted(name for name, _ in verification.CHECKS) == sorted(metrics)


TRACED_VERIFY = """
import contextlib, io
from mmparareal import cli
import tracing, workloads

tracer = tracing.Tracer()
tracing.install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["verify"]) == 0, out.getvalue()
n = workloads.VERIFY_CHECKS
assert out.getvalue().splitlines()[-1] == f"{n}/{n} checks passed", out.getvalue()
assert tracer.checks_passed == n
"""


def test_traced_verify_passes_every_check():
    # The benchmark's traced verify: the determinism check submits a run to
    # its pool under the tracer's wrappers.
    run_with_tracing(TRACED_VERIFY)


PINNED_DIGESTS = """
import json, sys
from pathlib import Path
import workloads

expected = json.loads((Path(workloads.__file__).parent / "expected.json").read_text())
for name in sys.argv[1:]:
    workload = workloads.WORKLOADS[name](0, 1, None)
    workload.call()
    digest, problems = workload.check()
    assert not problems, (name, problems)
    assert digest == expected[name], (name, digest, expected[name])
"""


def test_nonlinear_workload_digests_pinned():
    # The benchmark pins these seed-0 digests; they hash Euler lattices of
    # elementwise IEEE-754 arithmetic, so they hold on any host. toy-sweep-k
    # is left out: its bits go through BLAS and scipy's expm.
    run_with_tracing(PINNED_DIGESTS, "brusselator-euler", "quadratic-lifting-2w")
