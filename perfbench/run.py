"""Benchmark command for spectralsr.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from ``perfbench/workloads.py`` against the package in
``src/``, checks its outputs, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.  A fuller
record (environment, per-metric sample counts with medians and
quartiles, tracing overhead) goes to ``perfbench/results/``, and a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_THREADS = 1  # fixed so that runs on a shared machine stay comparable
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = (
    "train-swinfreq", "infer-swinfreq", "infer-cvswinfreq",
    "sweep-resolution", "sweep-psnr",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def environment(args, numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spectralsr" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'spectralsr'} is missing", file=sys.stderr)
        return 1
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    start = time.perf_counter()
    import numpy
    import spectralsr
    import workloads
    import_s = time.perf_counter() - start
    if SRC not in Path(spectralsr.__file__).resolve().parents:
        print(f"error: spectralsr was imported from {spectralsr.__file__}, not {SRC}", file=sys.stderr)
        return 1

    result, details, tracer = workloads.run_benchmark(
        args.workload, args.seed, args.seconds, args.trace, import_s=import_s
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"environment": environment(args, numpy), "samples": details, "result": result}
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}) + "\n"
        )
        for key, diff in details.get("overhead", {}).items():
            print(f"tracing overhead on {key}: traced minus untraced median = {diff:+.6g}")
    if not result["correct"]:
        print(f"check failed: {details['failure']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
