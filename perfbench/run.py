"""qsubspace benchmark: one workload per process.

    python3 perfbench/run.py --workload sector-scan --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from `src/`; nothing
is installed. Workloads are described in perfbench/README.md.

--trace 0 reports the end-to-end metrics:
  setup_s      set-up time: imports once, then the median of three set-up
               passes that each build the workload's inputs from scratch
  round_s      median over the run's rounds of one round's time
  peak_rss_mb  peak resident set after set-up and a fixed number of rounds
--trace 1 wraps qsubspace's public functions with timers and reports the
per-layer metrics instead; spans and counters go to .perfbench-out/.

Every time is corrected for machine speed: a fixed reference kernel runs
right before and right after each timed step, the step's time is divided by
the mean of those two kernel times and multiplied by REF_KERNEL_S, so it
reads as seconds on the reference machine. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import os
import pathlib
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# one BLAS thread: OpenBLAS would otherwise start one per core, and on a
# shared two-core host the workloads' small dense calls would time the pool
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# median reference-kernel time on the reference machine (2-core x86-64
# virtual machine, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread),
# measured once over fifteen benchmark runs and fixed
REF_KERNEL_S = 0.140

SETUP_PASSES = 3


def reference_kernel() -> int:
    """Fixed CPU work with no qsubspace code, in about the proportions the
    workloads mix them: pure-Python loops and one sort, small-array numpy
    calls, and dense symmetric eigensolves."""
    import numpy as np

    acc = 0
    table = {}
    for i in range(120000):
        key = (i * 7919) & 2047
        table[key] = table.get(key, 0) + (i ^ key)
        acc += key & 7
    words = [format((i * 2654435761) & 0xFFFFFFFF, "08x") for i in range(30000)]
    words.sort()
    x = np.linspace(0.0, 1.0, 32)
    for _ in range(5000):
        x = np.sqrt(x * x + 0.5) - 0.25 * x
        acc += int(np.argmax(x))
    a = np.cos(np.arange(300 * 300, dtype=float).reshape(300, 300))
    a = a + a.T
    for _ in range(4):
        acc += int(np.linalg.eigvalsh(a)[0] < 0)
    return acc + len(words[0]) + len(table)


def timed_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sector-scan", "cli-panel", "sampled-seeds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsubspace" / "__init__.py").is_file():
        print(f"perfbench: no qsubspace package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile first, so that the first run in a checkout imports as
    # fast as the others and its set-up time is comparable
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(ROOT / "tests"), quiet=1, maxlevels=0)
    compileall.compile_dir(str(pathlib.Path(__file__).parent), quiet=1, maxlevels=0)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    return bench(args)


def bench(args) -> int:
    t_start = time.perf_counter()
    import json
    import resource
    import statistics

    import numpy as np
    import scipy

    imports_raw = time.perf_counter() - t_start
    k_before = timed_kernel()
    t_imports = time.perf_counter()
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    imports_raw += time.perf_counter() - t_imports
    k_after = timed_kernel()
    imports_s = imports_raw * REF_KERNEL_S / ((k_before + k_after) / 2)

    OUT.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed, OUT)
    passes = []
    k_prev = k_after
    for p in range(SETUP_PASSES):
        if tracer:
            tracer.round = f"setup{p}"
        start = time.perf_counter()
        work.setup()
        raw = time.perf_counter() - start
        k = timed_kernel()
        passes.append(raw * REF_KERNEL_S / ((k_prev + k) / 2))
        k_prev = k
    setup_s = imports_s + statistics.median(passes)

    rounds_raw, rounds = [], []
    kernels = []
    rss_mb = None
    t_rounds = time.perf_counter()
    i = 0
    while (time.perf_counter() - t_rounds < args.seconds
           or i % work.cycle or i < work.min_rounds):
        if tracer:
            tracer.round = i
        raw = corrected = 0.0
        for step in work.steps(i):
            start = time.perf_counter()
            try:
                step()
            except Exception:  # the workload's check counts what is missing
                traceback.print_exc()
            dt = time.perf_counter() - start
            k = timed_kernel()
            kernels.append(k)
            raw += dt
            corrected += dt * REF_KERNEL_S / ((k_prev + k) / 2)
            k_prev = k
        rounds_raw.append(raw)
        rounds.append(corrected)
        i += 1
        if i == work.rss_rounds:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.round = "check"
    attempted, failed, correct = work.check()

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_raw_median_s": statistics.median(rounds_raw),
        "kernel_median_s": statistics.median(kernels),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "ref_kernel_s": REF_KERNEL_S,
    }
    print(json.dumps({"env": env}))
    if tracer:
        metrics = tracer.metrics(rounds_raw, [f"setup{p}" for p in range(SETUP_PASSES)])
        metrics["trace.round_s"] = {"value": statistics.median(rounds), "unit": "s"}
        # wrapped self times plus unwrapped time must add up to each round
        correct = correct and tracer.accounting_error <= 0.1
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        for row in metrics.values():
            if row["unit"] == "count" and float(row["value"]).is_integer():
                row["value"] = int(row["value"])
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
