"""Regenerate the benchmark's reference outputs and baseline layer counts.

    python3 perfbench/make_reference.py

Runs every workload once at seed 0 with tracing on and writes, under
``perfbench/reference/``: the CLI output tables and certificates, the
certificate values of the library jobs (``values.json``), and the per-layer
call counts that the trace coverage guard compares against
(``baseline_layers.json``).  Run it only when a change alters outputs on
purpose, and list every changed digit in that change.
"""

import json
import shutil
import sys

import worker

SEED = 0


def main() -> int:
    worker.import_semisplit()
    import spans
    import workloads

    ref = workloads.REFERENCE
    scratch = worker.ROOT / ".perfbench_out" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    values, baseline = {}, {}
    for name in workloads.WORKLOADS:
        # a fresh tracer per workload; it wraps the previous workload's
        # wrappers, which only adds overhead, and counts its own calls
        tracer = spans.Tracer()
        outcomes, _, _ = worker.execute(workloads.make_jobs(name, SEED, scratch / name), tracer)
        for job, result, error in outcomes:
            if error is not None:
                print(f"{name}: {job.name} failed:\n{error}", file=sys.stderr)
                return 1
            if job.name in workloads.VALUE_JOBS:
                values[job.name] = [workloads.cert_values(c) for c in result]
        layers = tracer.layer_metrics()
        baseline[name] = {layer: layers[f"{layer}.calls"] for layer in spans.LAYERS}
    # copy the CLI tables into the reference tree
    for src, dst in (
        *((scratch / "split-sweep" / f"split-n{n}", ref / "split-sweep" / f"n{n}") for n in (3, 4, 5, 6)),
        (scratch / "dimsweep" / "dimsweep", ref / "dimsweep"),
        (scratch / "verify-dense" / "corollary", ref / "verify-dense"),
    ):
        shutil.rmtree(dst, ignore_errors=True)
        dst.mkdir(parents=True)
        for f in sorted(src.iterdir()):
            if f.suffix in (".csv", ".txt") and f.name != "nodes.txt":
                shutil.copyfile(f, dst / f.name)
    (ref / "values.json").write_text(json.dumps(values, indent=1) + "\n")
    (ref / "baseline_layers.json").write_text(json.dumps(baseline, indent=1) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
