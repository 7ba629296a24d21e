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
