"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {split-sweep,dimsweep,verify-dense} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each repetition of the workload's job list
runs in a fresh worker process (``worker.py``) started only after the previous
one has ended; repetitions continue while another one fits in ``--seconds``.
With ``--trace 0`` the result holds the end-to-end metrics of untraced
repetitions.  With ``--trace 1`` untraced and traced repetitions alternate and
the result holds the per-layer metrics; the difference of their wall times is
the tracing overhead.

Output: a run record line, a report line (every metric measured in the run,
end-to-end and per-layer, by name and unit, plus the output checks), and as
the last line the result object
``{"correct", "attempted", "failed", "metrics"}``.  Only the standard library
is used here, so a checkout without ``src/`` fails before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("split-sweep", "dimsweep", "verify-dense")
# setup_s is the median of at least this many cold set-ups per run
SETUP_SAMPLES = 5
# every run must end within 180 s; a single worker gets what is left of this
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_KIND_UNITS = {"calls": "count", "errors": "count", "repeat_frac": "ratio",
               "bytes": "bytes_computed"}
# every per-layer metric and its unit; of the five added after the table only
# cli.self_s comes from the tracer, the rest from the worker and this runner
PER_LAYER_UNITS = {
    f"{layer}.{kind}": _KIND_UNITS.get(kind, "s")
    for layer, kinds in (
        ("opnorm.opnorm_lower", ("calls", "s", "repeat_frac", "errors")),
        ("opnorm.opnorm_oracle", ("calls", "s", "errors")),
        ("semigroups.evaluate", ("calls", "s", "bytes", "errors")),
        ("splitter.split", ("calls", "s", "self_s", "errors")),
        ("spaces.OperatorMatrix.on", ("calls", "errors")),
        ("geometry.harmonic_measure", ("calls", "s", "errors")),
        ("geometry.brownian_exit_theta", ("calls", "s", "errors")),
        ("ideals.generic_split", ("calls", "s", "errors")),
        ("ideals.gamma", ("calls", "s", "errors")),
        ("subspaces.build_projection", ("calls", "s", "errors")),
        ("subspaces.restricted_isomorphism_check", ("calls", "s", "errors")),
        ("cli.main", ("calls", "s", "errors")),
    )
    for kind in kinds
}
PER_LAYER_UNITS.update({"cli.self_s": "s", "proc.cpu_s": "s", "trace.overhead_s": "s",
                        "cli.bytes_written": "bytes", "output.byte_identical": "count"})
# the tracer's name for a metric, where it differs
_TRACER_KEYS = {"cli.self_s": "cli.main.self_s"}
# counts are exact and repeat between runs; times are medians over traced repetitions
COUNT_UNITS = ("count", "ratio", "bytes_computed")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; it exits non-zero without one."""


def _worker(args, out: Path, deadline: float, traced=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left before the run deadline")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the worker and waits for it before raising
        raise BenchError(f"worker exceeded the run deadline: {' '.join(cmd)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _coverage_guard(workload: str, layers: dict) -> None:
    """Fail if a layer with calls in the baseline recorded none on this workload."""
    baseline = json.loads((HERE / "reference" / "baseline_layers.json").read_text())
    if workload not in baseline:
        raise BenchError(f"no baseline layer counts for workload {workload}")
    dropped = [layer for layer, calls in baseline[workload].items()
               if calls > 0 and layers.get(f"{layer}.calls", 0) == 0]
    if dropped:
        raise BenchError(f"trace coverage: layers with baseline calls recorded none: {dropped}")


def _measure(args, work: Path, deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Alternate untraced (and, with --trace 1, traced) repetitions for --seconds."""
    modes = (False, True) if args.trace else (False,)
    plain, traced = [], []
    start = time.monotonic()
    rep = 0
    while True:
        cycle_start = time.monotonic()
        for mode in modes:
            res = _worker(args, work / f"rep{rep}", deadline, traced=mode)
            (traced if mode else plain).append(res)
            rep += 1
        now = time.monotonic()
        if now - start + (now - cycle_start) > args.seconds:
            break
    setups = [r["setup_s"] for r in plain + traced]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args, work / "setup", deadline, setup_only=True)["setup_s"])
    return plain, traced, setups


def _layer_values(traced: list[dict]) -> dict:
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        key = _TRACER_KEYS.get(name, name)
        if key not in traced[0]["layers"]:
            continue
        samples = [r["layers"][key] for r in traced]
        if unit in COUNT_UNITS:
            if len(set(samples)) > 1:
                print(f"warning: {name} differed between traced repetitions: {samples}",
                      file=sys.stderr)
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description="semisplit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "semisplit" / "__init__.py").is_file():
        print(f"error: no semisplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = _run_record(args)
    print(json.dumps({"record": record}), flush=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plain, traced, setups = _measure(args, work, deadline)
        if args.trace:
            _coverage_guard(args.workload, traced[0]["layers"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # workers delete their outputs unless a check failed; keep those
        for d in (work, work.parent):
            try:
                d.rmdir()
            except OSError:
                pass

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    wall = statistics.median(r["wall_s"] for r in plain)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    report = {
        "versions": reps[0]["versions"],
        "blas_env": reps[0]["blas_env"],
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": len(setups),
        "wall_s_samples": [r["wall_s"] for r in plain],
        "fail_frac": failed / attempted,
        "byte_identical": f"{reps[0]['byte_identical']} of {reps[0]['files_compared']}",
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
    }
    if args.trace:
        layers = _layer_values(traced)
        layers["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        layers["cli.bytes_written"] = traced[0]["bytes_written"]
        layers["output.byte_identical"] = traced[0]["byte_identical"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
        report["per_layer"] = metrics
    else:
        metrics = report["end_to_end"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
