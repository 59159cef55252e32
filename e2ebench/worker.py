"""One workload in one fresh process; started by run.py, not by hand.

The process imports the library, builds the workload's inputs and writes
READY on stdout: run.py times set-up from process start to that line.
Then it runs the ops in a closed loop (one at a time, in list order, for the
given number of passes, the last one possibly partial), checks each output
outside the timed region, and writes one JSON result line.

With --trace it instead runs one untraced pass and one traced pass of the
workload's traced ops, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_pass(ops, tracer=None):
    """Run every op once, in order; return (op, output, latency) triples."""
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(results)
        with tracer.span("op") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op; the loop goes on
                out = exc
            latency = time.perf_counter() - t0
        results.append((op, out, latency))
    return results


def check_pass(results, timings, failures):
    """Check every output, outside the timed region; return the summed latency."""
    for op, out, latency in results:
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            problems = [("wrong", f"raised {out!r}")]
        else:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [("wrong", f"check raised {exc!r} on the output")]
        if problems:
            failures.append({"op": op.name, "index": len(timings), "problems": problems})
        timings.append([op.name, latency])
    return sum(latency for _, _, latency in results)


def record():
    import numpy
    import scipy

    import fem_accuracy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(fem_accuracy, "KERNEL_BACKEND", None),
        "FEM_ACCURACY_PURE": os.environ.get("FEM_ACCURACY_PURE"),
        "FEM_ACCURACY_THREADS": os.environ.get("FEM_ACCURACY_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def traced_run(cls, args, workload):
    from tracer import Tracer, import_times

    timings, failures = [], []
    untraced_s = check_pass(run_pass(workload.traced_ops()), timings, failures)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            traced_workload = cls(args.seed, quick=args.quick)
        results = run_pass(traced_workload.traced_ops(), tracer)
    finally:
        tracer.uninstall()
    traced_s = check_pass(results, timings, failures)
    out_dir = HERE.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{cls.name}-seed{args.seed}.npz"
    tracer.save(spans_path)
    metrics = tracer.metrics(untraced_s, traced_s, import_times(workloads.cli_env(), workloads.ROOT))
    return timings, failures, {"per_layer": metrics, "spans_file": str(spans_path.relative_to(HERE.parent))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=float, default=1.0, help="passes over the op list; a fraction runs its first ops")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills a running CLI child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    warnings.simplefilter("ignore")

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, quick=args.quick)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return

    if args.trace:
        timings, failures, extra = traced_run(cls, args, workload)
    else:
        timings, failures, extra = [], [], {}
        ops = workload.ops()
        count = round(args.passes * len(ops))
        for start in range(0, count, len(ops)):
            check_pass(run_pass(ops[: count - start]), timings, failures)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    result = {
        "timings": timings,
        "failures": failures,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "sizes": workload.sizes(),
        "record": record(),
        **extra,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
