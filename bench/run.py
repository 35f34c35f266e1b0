"""algaeid benchmark.

    python3 bench/run.py --workload corpus|mccv|dense_field --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; algaeid is imported from `src/`.
Set-up runs several times (`SETUPS` of the workload) and `setup_s` is
their median; a traced run traces the last one. Then operations are
timed in whole rounds until at least S seconds have passed, and the outputs
of the last round are checked. With `--trace 1` the same operations run a
second time with every public algaeid function wrapped (bench/tracing.py),
and the run reports per-layer metrics instead of end-to-end ones. Every
workload prints every metric of its kind; a per-layer metric of a function
the workload never calls reads 0.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the machine, the library versions, the seed and the work done.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")


def import_program():
    """Put the checkout's `src/` first on sys.path and import algaeid from it."""
    if not os.path.isfile(os.path.join(SRC, "algaeid", "__init__.py")):
        sys.exit(f"bench: no algaeid sources under {SRC}")
    sys.path.insert(0, SRC)
    import algaeid
    if not os.path.abspath(algaeid.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: algaeid imported from {algaeid.__file__}, not {SRC}")


def environment(seed):
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in open("/proc/cpuinfo", encoding="utf-8")
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "seed": seed,
    }


def blas_threads(np):
    """OpenBLAS thread count from the library numpy links, if it is OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(workload, seconds, tracer=None):
    """Whole rounds of the workload's operations until `seconds` have passed.
    Returns [(succeeded, seconds)] per operation."""
    timings = []
    end = time.perf_counter() + seconds
    while True:
        for op in workload.ops:
            if tracer is not None:
                tracer.op = len(timings)
            start = time.perf_counter()
            ok = workload.run(op)
            timings.append((ok, time.perf_counter() - start))
        if time.perf_counter() >= end:
            return timings


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import checks
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r} "
                 f"(expected one of {', '.join(workloads.WORKLOADS)})")
    kind = workloads.WORKLOADS[args.workload]

    os.makedirs(RUNS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=RUNS_DIR)
    try:
        setup_times = []
        tracer = tracing.Tracer(workloads.MODULES) if args.trace else None
        for i in range(kind.SETUPS):
            workdir = os.path.join(work, f"setup_{i}")
            os.makedirs(workdir)
            workload = kind(args.seed, workdir)
            traced = tracer is not None and i == kind.SETUPS - 1
            start = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                workload.setup()
            setup_times.append(time.perf_counter() - start)
            if i < kind.SETUPS - 1:
                shutil.rmtree(workdir)

        passes = [("untraced", measure(workload, args.seconds))]
        from_outputs = workload.check()
        if tracer is not None:
            tracer.phase = "measure"
            with tracer:
                passes.append(("traced", measure(workload, args.seconds, tracer)))
            workload.check()
            tracer.write(os.path.join(
                RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        correct, failure = True, None
    except checks.CheckFailed as e:
        correct, failure = False, str(e)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not correct:
        print(f"bench: CHECK FAILED on {args.workload}: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    per_op = workload.attempts_per_op
    attempted = sum(len(t) for _, t in passes) * per_op
    failed = sum(not ok for _, t in passes for ok, _ in t) * per_op

    def op_median(timings):
        return statistics.median(d for ok, d in timings if ok)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_s": (op_median(passes[0][1]), "s"),
            "quality": (from_outputs[kind.QUALITY], "ratio"),
        }
        counts = {}
    else:
        layers, counts = tracing.layer_metrics(tracer.spans, len(passes[1][1]))
        metrics = {k: (v, tracing.PER_LAYER[k]) for k, v in layers.items()}
        metrics["trace.overhead_s"] = (
            op_median(passes[1][1]) - op_median(passes[0][1]), "s")

    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "operations": {name: {"attempted": len(t),
                              "failed": sum(not ok for ok, _ in t),
                              "median_s": op_median(t),
                              "seconds": [d for _, d in t]}
                       for name, t in passes},
        "setup_runs_s": setup_times,
        "outputs": from_outputs,
        "counts": counts,
    }
    print("bench-detail " + json.dumps(detail))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
