"""One benchmark execution, in a fresh interpreter.

    python3 perfbench/execute.py '<spec as JSON>'

run.py starts this once per execution. It imports the package, builds the
workload's inputs, times one call into the package, checks the output and
prints one JSON line: the set-up end on the monotonic clock (which run.py
compares with the time it started the process), the wall and CPU seconds of
the call, the peak resident memory, the host-speed factors of set-up and of
the call (calibrate.py), the output digest and any problems. The
spec's keys are workload, seed, workers, trace, execution and workdir.
"""

import json
import resource
import sys
import time
from pathlib import Path

import calibrate


def cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(own.ru_maxrss, children.ru_maxrss) / 1024.0


def main(spec: dict, sampler: calibrate.Sampler):
    # Imported here, after the sampler has started, so that set-up is
    # sampled too.
    import numpy
    import scipy

    import tracing
    import workloads

    workdir = Path(spec["workdir"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], spec["workers"], workdir
    )
    setup_done = time.monotonic()
    speed_setup, spent_setup, _ = sampler.take()

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    workload.call()
    t1 = time.perf_counter()
    cpu1 = cpu_seconds()
    speed_call, spent_call, samples = sampler.take()
    sampler.stop()
    peak = peak_rss_mb()

    digest, problems = workload.check()
    result = {
        "setup_done": setup_done,
        # Seconds the sampler's handler took out of set-up; run.py takes
        # them off setup_s.
        "sampler_setup_s": spent_setup,
        # Mean host-speed factors during set-up and during the call; see
        # calibrate.py.
        "speed_setup": speed_setup,
        "speed_call": speed_call,
        "speed_samples": samples,
        "wall_s": t1 - t0 - spent_call,
        "cpu_s": cpu1 - cpu0 - spent_call,
        "peak_rss_mb": peak,
        "digest": digest,
        "problems": problems,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer, (t0, t1), csv_bytes=workload.csv_bytes
        )
        result["computed"] = tracer.computed_counts()
        tracer.write(
            workdir / f"spans-{spec['workload']}-seed{spec['seed']}"
            f"-exec{spec['execution']}.jsonl",
            spec["execution"],
        )
    print(json.dumps(result))


if __name__ == "__main__":
    # The samples cover everything from here on; the interpreter's own start
    # before this line is not sampled.
    host = calibrate.Sampler()
    host.start()
    main(json.loads(sys.argv[1]), host)
