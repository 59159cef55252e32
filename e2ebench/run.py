"""End-to-end benchmark of the fem-accuracy toolkit.

Runs one workload (or all four, one after another) in fresh worker processes
started one at a time, and prints the end-to-end metrics by name and unit,
the failing ops, a run record, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics are
the per-layer ones of a traced run instead. See README.md in this directory.

Run from the repository root:

    python3 e2ebench/run.py --workload galerkin1d --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --quick
    python3 e2ebench/run.py --self-test
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "galerkin1d", "interp2d", "claims")

# Passes over the op list per 40 s of --seconds; a fractional pass runs the
# first ops of the list. One pass takes about 10 s (cli), 18 s (galerkin1d),
# 5.5 s (interp2d) and 9.5 s (claims) on the reference machine (2 shared
# vCPUs, numpy kernel backend), and the host's speed drifts by 10-20% over
# tens of seconds, so each run is made as long as the time limit of all runs
# allows. The op count is fixed before the run starts, so every run and every
# commit has the same sample count and the same tail percentile.
PASSES_PER_40S = {"cli": 2, "galerkin1d": 2.5, "interp2d": 6, "claims": 4}

# Every worker runs with single-threaded BLAS, like the library itself when
# FEM_ACCURACY_THREADS is unset. With the default pool a BLAS helper thread
# spins beside each galerkin1d op (process CPU time 25-35% above wall time),
# taking the second of two shared cores.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Fresh processes that only set up; with the measured run's own set-up they
# give the median reported as setup_s.
SETUP_PROBES = 2

# Every worker of one workload must be done this long after the workload started.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def spawn(argv, deadline):
    """Run worker.py to completion; return (seconds until READY, result dict or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, cwd=ROOT, env=os.environ | WORKER_ENV
    )
    out, ready = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise WorkerError(f"worker {argv} passed the deadline")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and b"\n" in out:
                ready = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        raise WorkerError(f"worker {argv} exited with code {proc.returncode}")
    return ready, (json.loads(lines[-1]) if len(lines) > 1 else None)


def tail(latencies):
    """Highest nearest-rank percentile with at least 10 samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - 10)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, or None when it is not a git repository itself."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace, quick, deadline):
    """Run one workload; return (summary for the last line, run record)."""
    base = ["--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    if trace:
        setup, result = spawn(base + ["--trace"], deadline)
        setups, passes = [setup], 1
    else:
        setups = [spawn(base + ["--setup-only"], deadline)[0] for _ in range(0 if quick else SETUP_PROBES)]
        passes = 1 if quick else max(1.0, PASSES_PER_40S[workload] * seconds / 40)
        setup, result = spawn(base + ["--passes", str(passes)], deadline)
        setups.append(setup)

    latencies = [t for _, t in result["timings"]]
    failures = result["failures"]
    tail_value, tail_pct, beyond = tail(latencies)
    e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
        "trace": bool(trace),
        "quick": quick,
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        **result["record"],
        "sizes": result["sizes"],
        "setup_samples_s": setups,
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond},
        "failed_ratio": len(failures) / len(latencies),
        "failures": failures,
        "timings": result["timings"],
    }
    if trace:
        record["per_layer"] = result["per_layer"]
        record["spans_file"] = result["spans_file"]
        metrics = result["per_layer"]
    else:
        record["end_to_end"] = e2e
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    summary = {
        "correct": not any(kind == "wrong" for f in failures for kind, _ in f["problems"]),
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": metrics,
    }
    return summary, record


def report(record, summary):
    """Human-readable block: the end-to-end metrics, failing ops, and where the record went."""
    w = record["workload"]
    lat = record["latency_tail"]
    passes = "one untraced and one traced pass" if record["trace"] else f"{record['passes']:g} pass(es)"
    print(f"== {w}: {lat['samples']} ops in {passes}, seed {record['seed']}")
    for name, unit in () if record["trace"] else END_TO_END:
        note = ""
        if name == "setup_s":
            note = f"median of {len(record['setup_samples_s'])} fresh processes"
        elif name == "latency_tail_s":
            note = f"p{lat['percentile']:.1f}, {lat['beyond']} of {lat['samples']} samples beyond"
        print(f"  {name:<16} {record['end_to_end'][name]:>14.6g} {unit:<4} {note}")
    failed, attempted = summary["failed"], summary["attempted"]
    print(f"  {'failed_ratio':<16} {failed / attempted:>14.6g} {'ratio':<4} {failed} of {attempted} ops")
    for f in record["failures"]:
        print(f"    failed op {f['index']}: {f['op']}: " + "; ".join(f"[{kind}] {why}" for kind, why in f["problems"]))
    if record["trace"]:
        for name, m in record["per_layer"].items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
        print(f"  spans written to {record['spans_file']}")
    keys = ("commit", "src_sha256", "python", "numpy", "scipy", "nproc", "kernel_backend", "FEM_ACCURACY_PURE", "FEM_ACCURACY_THREADS", "OPENBLAS_NUM_THREADS")
    print("  run record: " + json.dumps({k: record.get(k) for k in keys} | {"sizes": record["sizes"]}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40, help="measured time per run, in passes of nominal length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small op sizes, one pass, no set-up probes")
    ap.add_argument("--self-test", action="store_true", help="check the checks, then run every workload quickly")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fem_accuracy" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        deadline = time.perf_counter() + DEADLINE_S
        try:
            summary, record = measure(workload, args.seed, args.seconds, args.trace, args.quick, deadline)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        path = out_dir / f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        report(record, summary)
        print(f"  full record in {path.relative_to(ROOT)}")
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
