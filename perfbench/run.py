"""wmhseg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,segment,augment} --seed N \
        --seconds S --trace {0,1} [--threads T]

Run from the repository root. The run pins the BLAS thread count before
numpy loads, imports the package from ``src/``, sets the workload up
``SETUP_REPEATS`` times (the median is ``setup_s``), then runs whole rounds
of the workload until ``--seconds`` have passed (``slices_per_s`` is the
median over rounds), and checks the outputs of the last round. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the package's public functions and reports the
per-layer metrics instead, per round. The last line of standard output is
one JSON object; the same result, with the run's environment and round
times, is written to ``perfbench/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
BLAS_THREADS = 2
SETUP_REPEATS = 3
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "segment", "augment"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help=f"BLAS threads (default: {BLAS_THREADS}, at most the CPUs "
                             "this process may use)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and model, for the self-test")
    return parser.parse_args(argv)


def blas_threads_in_use():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_pinned": threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = args.threads or min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARIABLES:
        os.environ[var] = str(threads)
    if not (SRC / "wmhseg" / "__init__.py").is_file():
        print(f"error: no wmhseg package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed with the package import)
    import wmhseg
    import workloads
    if Path(wmhseg.__file__).resolve().parent != (SRC / "wmhseg").resolve():
        print(f"error: imported wmhseg from {wmhseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        import tracing
    import_s = time.perf_counter() - started

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(work / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)

        tracer = tracing.Tracer().install() if args.trace else None
        total = workloads.Round()
        round_times, round_rates = [], []
        t0 = time.perf_counter()
        try:
            while True:
                r0 = time.perf_counter()
                done = workload.run_round()
                round_times.append(time.perf_counter() - r0)
                round_rates.append(done.slices / round_times[-1])
                total.add(done)
                if time.perf_counter() - t0 >= args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problem = None
        try:
            workload.check()
        except Exception as exc:  # a malformed output may break the checker itself
            problem = f"{type(exc).__name__}: {exc}"
            print(f"check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = tracer.per_round(len(round_times))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "slices_per_s": {"value": statistics.median(round_rates), "unit": "slices/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
        }
    result = {"correct": problem is None, "attempted": total.attempted,
              "failed": total.failed, "metrics": metrics}

    RESULTS_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, problem=problem, slices=total.slices,
                  elapsed_s=elapsed, round_s=round_times, import_s=import_s,
                  setup_repeats_s=setup_times, environment=environment(threads),
                  finished=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (RESULTS_DIR / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
