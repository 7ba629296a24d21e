"""The benchmark in perfbench/ patches names of this package when it traces a
run. Installing its tracer here makes a rename or deletion of any of those
names fail the suite, not the next traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        # Leave perfbench/ as it is: no bytecode cache written beside it.
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """
import numpy as np
from mmparareal import engine
from mmparareal.engine import AlgorithmVariant, PararealConfig
from mmparareal.systems import builtin_quadratic
import tracing

config = PararealConfig(
    system=builtin_quadratic(1.0, 1e-2), t_final=1.0, dt=0.1, n_iterations=2,
    variant=AlgorithmVariant.MATCHING, u0=np.array([1.0, 0.0]),
    micro_kind="euler", macro_kind="euler", substep=1e-3,
)
plain = {w: engine.run(config, workers=w) for w in (1, 2)}
tracer = tracing.Tracer()
tracing.install(tracer)
for w in (1, 2):
    traced = engine.run(config, workers=w)
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
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
