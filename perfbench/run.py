"""Closed-loop benchmark of the mmparareal package.

Run from the repository root:

    python3 perfbench/run.py --workload toy-sweep-k --seed 0 --seconds 25 --trace 0

One client runs one execution at a time, each in a fresh interpreter started
by perfbench/execute.py with BLAS and OpenMP pinned to one thread. A warm-up
execution with the workload's other worker count comes first: it fills the
bytecode and file caches, and every timed execution's output must equal its
output bitwise. Then executions run back to back for --seconds. Each
execution samples the host's speed while it runs (calibrate.py), and the
times reported are scaled by it to a reference host.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 the executions alternate
between untraced and traced, and it holds the per-layer metrics. The full
record of a run, with the machine it ran on, goes to
.bench_build/perfbench/results-<workload>-seed<seed>-trace<0|1>.json and the
spans of traced executions to .bench_build/perfbench/spans-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

MIN_EXECUTIONS = 3
# Leave room for one more execution inside the 180 s a run may take.
LAST_START_S = 120.0
EXECUTION_TIMEOUT_S = 170.0

# Times are reported as they would read on the reference host of
# calibrate.py: each is multiplied by the mean host-speed factor its
# execution sampled while it was measured.
SPEED_OF = {"wall_s": "speed_call", "setup_s": "speed_setup", "cpu_s": "speed_call"}
TIME_UNITS = ("s", "us")

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def worker_counts(workload: str, nproc: int):
    """(timed, warm-up) worker counts. The warm-up uses the other count, so
    every timed output is also checked against it for bitwise identity."""
    two = min(2, nproc)
    return {
        "toy-sweep-k": (1, two),
        "brusselator-euler": (1, two),
        "quadratic-lifting-2w": (two, 1),
        "verify": (1, 1),
    }[workload]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs; None where /proc/stat has no steal column."""
    try:
        with open("/proc/stat") as fh:
            ticks = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None
    return ticks / os.sysconf("SC_CLK_TCK")


def execute(spec: dict, env: dict, timeout: float) -> dict:
    """Run one execution; returns its result, or one with an "error" key."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "execute.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode().strip().splitlines()[-3:]
        return {"error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads(lines[-1])
    result["setup_s"] = (
        result.pop("setup_done") - started - result.pop("sampler_setup_s")
    )
    return result


def high_percentile(samples: list):
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100)[p - 1])
    return best


def verdict(result: dict, reference, pinned) -> list:
    """Problems of one execution, including digest mismatches."""
    if "error" in result:
        return [result["error"]]
    problems = list(result["problems"])
    if reference is not None and result["digest"] != reference:
        problems.append("output differs from the warm-up's other worker count")
    if pinned is not None and result["digest"] != pinned:
        problems.append("output differs from the hash pinned for seed 0")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mmparareal" / "__init__.py").is_file():
        print("error: run from the repository root; src/mmparareal is missing",
              file=sys.stderr)
        return 2
    spec_file = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec_file["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec_file["per_layer" if args.trace else "end_to_end"]

    workdir = root / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    workers, warmup_workers = worker_counts(args.workload, nproc)
    # verify is gated on its exit code and summary line, not on a digest.
    gated = args.workload != "verify"
    pinned = None
    if gated and args.seed == 0:
        # The output hashes taken at the seed commit.
        pinned = json.loads((HERE / "expected.json").read_text())[args.workload]
    env = child_env(root)
    load_start = os.getloadavg()
    steal_start = steal_seconds()
    begun = time.monotonic()

    def spec(execution, workers, trace):
        return {
            "workload": args.workload, "seed": args.seed, "workers": workers,
            "trace": trace, "execution": execution, "workdir": str(workdir),
        }

    warmup = execute(spec(0, warmup_workers, False), env, EXECUTION_TIMEOUT_S)
    reference = warmup.get("digest") if gated else None
    executions = [("warm-up", warmup, verdict(warmup, None, pinned))]

    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []
    while True:
        now = time.monotonic()
        enough = len(untraced) >= MIN_EXECUTIONS - args.trace and (
            not args.trace or len(traced) >= 2
        )
        if (now >= deadline and enough) or now - begun > LAST_START_S:
            break
        trace = bool(args.trace) and len(traced) < len(untraced)
        result = execute(
            spec(len(executions), workers, trace), env,
            EXECUTION_TIMEOUT_S - (now - begun),
        )
        problems = verdict(result, reference, pinned)
        executions.append(("traced" if trace else "untraced", result, problems))
        if "error" not in result:
            (traced if trace else untraced).append(result)
    load_end = os.getloadavg()
    steal_end = steal_seconds()

    attempted = len(executions)
    failed = sum(1 for _, _, problems in executions if problems)
    for kind, result, problems in executions:
        for problem in problems:
            print(f"FAIL {kind} execution: {problem}")
    digests = sorted({r["digest"] for _, r, _ in executions if "digest" in r})
    versions = next((r for _, r, _ in executions if "numpy" in r), {})
    machine = {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        # Host contention: wall time grows with it while cpu_s does not.
        "steal_s": None if steal_start is None else steal_end - steal_start,
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: workers {workers} "
          f"(warm-up {warmup_workers}), {len(untraced)} untraced and "
          f"{len(traced)} traced executions after the warm-up")
    for digest in digests:
        print(f"sha256 {digest}"
              + ("" if pinned is None else
                 " (pinned)" if digest == pinned else " (pinned: " + pinned + ")"))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")

    if not untraced:
        print("no execution completed", file=sys.stderr)
        return 1
    raw = {
        key: statistics.median(r[key] for r in untraced)
        for key in ("wall_s", "setup_s", "cpu_s")
    }
    medians = {
        key: statistics.median(r[key] * r[speed] for r in untraced)
        for key, speed in SPEED_OF.items()
    }
    medians["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
    walls = [r["wall_s"] * r["speed_call"] for r in untraced]
    tail = high_percentile(walls)
    print(f"wall_s median {medians['wall_s']:.4f} s over {len(walls)} samples; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
             "no percentile has ten samples beyond it"))
    print("as measured, before the host-speed scaling: "
          + ", ".join(f"{key} median {value:.4f} s" for key, value in raw.items())
          + "; host speed median "
          + f"{statistics.median(r['speed_call'] for r in untraced):.3f}")

    if not args.trace:
        values = dict(medians, ok_ratio=(attempted - failed) / attempted)
    elif traced:
        units = {m["name"]: m["unit"] for m in declared}
        values = {
            key: statistics.median(
                r["layers"][key]
                * (r["speed_call"] if units.get(key) in TIME_UNITS else 1.0)
                for r in traced
            )
            for key in traced[0]["layers"]
        }
        # Each traced execution ran right after an untraced one; the
        # difference within a pair is less exposed to the host's drift.
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] * t["speed_call"] - u["wall_s"] * u["speed_call"]
            for u, t in zip(untraced, traced)
        )
    else:
        values = {}

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"error: measured metrics {sorted(set(values) ^ set(names))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if traced and traced[0]["computed"]:
        print("included above, computed from config (forked workers): "
              + json.dumps(traced[0]["computed"]))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "workers": workers,
        "warmup_workers": warmup_workers, "digests": digests,
        "executions": [
            {"kind": kind, "problems": problems,
             **{k: v for k, v in r.items() if k != "layers"}}
            for kind, r, problems in executions
        ],
        "metrics": metrics,
    }
    (workdir / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
