"""Run one repetition of a workload's job list in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Imports ``semisplit`` from the checkout's ``src/`` (never an installed copy),
makes the inputs, runs the jobs one after another, checks the outputs and
prints one JSON object.  A fresh process per repetition means each one pays
the cold import and lazy set-up a CLI user pays, and its peak RSS is its own.
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS thread, set before numpy loads.  On a 2-vCPU x86_64 VM the default
# two OpenBLAS threads made dimsweep bimodal (4.9 s or 6.5 s per repetition,
# in stretches of tens of seconds, CPU time up to 2.4x wall) whenever the
# host contended one vCPU; with one thread it stayed within 5.7-6.1 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_semisplit():
    sys.path.insert(0, str(SRC))
    import semisplit
    import semisplit.cli  # noqa: F401  (the package does not import its CLI)

    where = Path(semisplit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"semisplit was imported from {where}, not from {SRC}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def execute(jobs, tracer=None):
    """Run the jobs in order; returns (outcomes, wall seconds, CPU seconds).

    Each outcome is (job, result, error text or None).  The timed region is
    the job list alone: checks run afterwards.
    """
    if tracer is not None:
        tracer.install()
    outcomes = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for job in jobs:
        try:
            outcomes.append((job, job.run(), None))
        except Exception:  # noqa: BLE001  a job boundary: record and go on
            outcomes.append((job, None, traceback.format_exc(limit=3)))
    wall = time.perf_counter() - start
    return outcomes, wall, _cpu_s() - cpu0


def check(outcomes, check_failure):
    """Failed job count, problem lines, byte-identical files, files compared, bytes written."""
    failed, problems = 0, []
    identical = compared = written = 0
    for job, result, error in outcomes:
        if error is None:
            try:
                job.check(result)
            except check_failure as exc:
                error = str(exc)
        if error is not None:
            failed += 1
            problems.append(f"{job.name}: {error.strip()}")
        for produced, reference in job.byte_files:
            compared += 1
            identical += (
                produced.is_file() and reference.is_file()
                and produced.read_bytes() == reference.read_bytes()
            )
        if job.out_dir is not None and job.out_dir.is_dir():
            written += sum(f.stat().st_size for f in job.out_dir.rglob("*") if f.is_file())
    return failed, problems, identical, compared, written


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_semisplit()
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    outcomes, wall, cpu = execute(jobs, tracer)
    failed, problems, identical, compared, written = check(outcomes, workloads.CheckFailure)
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "byte_identical": identical,
        "files_compared": compared,
        "bytes_written": written,
        "versions": versions(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k.endswith("_NUM_THREADS") or k.startswith(("OPENBLAS", "MKL_", "OMP_"))},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    if failed:
        print(f"worker: outputs kept in {args.out} for inspection", file=sys.stderr)
    else:
        shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
