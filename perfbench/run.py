#!/usr/bin/env python3
"""Benchmark runner for posefuse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, nothing needs installing. One run makes the workload's inputs
from the seed, times the program's set-up in fresh interpreters, runs
one warm-up round, then whole rounds until --seconds have passed,
checks the outputs and prints one JSON object as its last line.
With --trace 0 that object carries the end-to-end metrics (wall_s,
setup_s, peak_rss_mb); with --trace 1 it carries the per-layer
figures of the traced rounds, interleaved with untraced ones to give
the tracing overhead. A report with the output hashes, the round
times and the environment is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7


def blas_threads() -> int | None:
    """Threads in numpy's bundled OpenBLAS pool, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def time_setup(code: str) -> list[float]:
    """Seconds for a fresh interpreter to run code, SETUP_REPEATS times."""
    prologue = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", prologue + code], cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def hash_outputs(paths: list[Path]) -> dict[str, str]:
    return {str(p.relative_to(BENCH_DIR)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


def run_round(workload) -> tuple[float, list[bool]]:
    t0 = time.perf_counter()
    try:
        ok = workload.run_round()
    except Exception:  # a crashing round counts every operation as failed
        traceback.print_exc()
        ok = [False] * workload.ops_per_round
    return time.perf_counter() - t0, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="posefuse benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posefuse" / "__init__.py").is_file():
        print(f"error: no posefuse sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import posefuse

    if Path(posefuse.__file__).resolve().parent != (SRC / "posefuse").resolve():
        print(f"error: posefuse imported from {posefuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    api = workloads.make_api()
    tracer = tracing.Tracer() if args.trace else None

    work = BENCH_DIR / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if tracer:
        tracer.install(api, api.cli)
    workload.prepare(work, args.seed, api)
    load_s = tracer.values.get("posenet.load_s", 0.0) if tracer else 0.0
    if tracer:
        tracer.remove()
    setup = time_setup(workload.setup_code())

    attempted = failed = 0
    problems: list[str] = []

    def tally(ok: list[bool]) -> None:
        nonlocal attempted, failed
        attempted += len(ok)
        failed += ok.count(False)

    _, ok = run_round(workload)  # warm-up: caches filled, outputs checked
    tally(ok)
    reference = hash_outputs(workload.outputs())

    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans: list = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        seconds, ok = run_round(workload)
        tally(ok)
        untraced.append(seconds)
        if tracer:
            tracer.reset()
            tracer.install(api, api.cli)
            try:
                seconds, ok = run_round(workload)
            finally:
                tracer.remove()
            tally(ok)
            traced.append(seconds)
            layers.append(tracer.round_metrics(seconds))
            spans = tracer.spans[:]
        if hash_outputs(workload.outputs()) != reference:
            problems.append(f"round {len(untraced)} wrote different bytes "
                            f"than the warm-up round")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems += workload.check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    wall_s = statistics.median(untraced)
    if tracer:
        metrics = tracing.layer_table(
            layers, load_s, statistics.median(traced) - wall_s)
        units = tracing.PER_LAYER
    else:
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "rounds_s": untraced, "traced_rounds_s": traced, "setup_s": setup,
        "peak_rss_mb": peak_rss_mb, "metrics": metrics,
        "output_sha256": reference,
        "env": {"nproc": os.cpu_count(), "numpy": np.__version__,
                "blas_threads": blas_threads(), "python": sys.version.split()[0],
                "posefuse": posefuse.__version__},
    }
    if tracer:
        report["spans_last_traced_round"] = tracing.span_dump(spans)
    name = f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (BENCH_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"{workload.name} seed {args.seed}: {len(untraced)} timed rounds, "
          f"median {wall_s:.4f} s; report {BENCH_DIR / name}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
