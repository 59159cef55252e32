"""Self-test of the benchmark.

Every output check is fed a real output, which must pass, and wrong values
(a perturbed error, a wrong slope, a nonzero exit code, a non-identity
matrix, ...), which must each count as a failed op. Then every workload runs
end to end at quick sizes, untraced, and one traced.

    python3 e2ebench/run.py --self-test
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

import run
import workloads as wl
from tracer import PER_LAYER
from worker import check_pass, run_pass


class Expectations:
    def __init__(self):
        self.failed = []

    def expect(self, label, problems, should_fail):
        ok = bool(problems) == should_fail
        print(f"  {'ok  ' if ok else 'FAIL'} {label}: {problems or 'passes'}")
        if not ok:
            self.failed.append(label)


def check_checks(t):
    import fem_accuracy as fa

    rows, slope = fa.convergence_study(fa.ModelProblem.sine(), 1, 0, 2.0, [8, 16, 32])
    t.expect("galerkin1d real output", wl.check_convergence(1, 0, (rows, slope)), False)
    perturbed = [dict(r) for r in rows]
    perturbed[-1]["pass"] = False
    t.expect("galerkin1d row over its bound", wl.check_convergence(1, 0, (perturbed, slope)), True)
    t.expect("galerkin1d wrong slope", wl.check_convergence(1, 0, (rows, slope + 0.5)), True)
    t.expect("galerkin1d slope off k+1-m", wl.check_convergence(2, 0, (rows, slope)), True)
    perturbed = [dict(r) for r in rows]
    perturbed[0]["error"] = float("nan")
    t.expect("galerkin1d NaN error", wl.check_convergence(1, 0, (perturbed, slope)), True)

    basis = fa.build_basis(2, 1)
    fn = fa.SinPiProduct(2)
    value, est = fa.interpolation_error(fn, fa.structured_mesh_2d(8), basis, 0, 2.0, with_estimate=True)
    reference = fa.interpolation_error(fn, fa.structured_mesh_2d(4), basis, 0, 2.0)
    t.expect("interp2d real output", wl.check_interpolation(1, 0, (value, est), reference), False)
    t.expect("interp2d perturbed error", wl.check_interpolation(1, 0, (value * 1.5, est), reference), True)
    t.expect("interp2d negative estimate", wl.check_interpolation(1, 0, (value, -1.0), reference), True)

    cli = wl.CliWorkload(0)
    reference = wl.CliReference()
    for argv in (wl.CLI_COMMANDS[2] + ("--seed", "0"), wl.CLI_COMMANDS[4] + ("--seed", "0")):
        rc, stdout = cli._in_process(argv)
        t.expect(f"cli real output of {argv[0]}", wl.check_cli(argv, (rc, stdout), reference), False)
        t.expect(f"cli nonzero rc of {argv[0]}", wl.check_cli(argv, (1, stdout), reference), True)
        t.expect(f"cli empty output of {argv[0]}", wl.check_cli(argv, (0, ""), reference), True)
        head, _, last = stdout.rstrip("\n").rpartition("\n")
        cells = last.split(",")
        column = -1 if argv[0] == "constant" else 1
        cells[column] = repr(float(cells[column]) * (1 + 1e-12))
        t.expect(f"cli perturbed headline of {argv[0]}", wl.check_cli(argv, (0, f"{head}\n{','.join(cells)}\n"), reference), True)
    argv = wl.CLI_COMMANDS[6]
    rc, stdout = cli._in_process(argv)
    t.expect("cli converge real output", wl.check_cli(argv, (rc, stdout), reference), False)
    t.expect("cli converge row failing", wl.check_cli(argv, (rc, stdout.replace("True", "False")), reference), True)

    basis = fa.build_basis(2, 2)
    matrix, pou = basis.evaluation_matrix(), basis.sum_polynomial().reduced()
    t.expect("claims exact identity", wl.check_unisolvence(2, (matrix, pou)), False)
    bad = [list(r) for r in matrix]
    bad[0][1] = Fraction(1, 10**12)
    t.expect("claims non-identity matrix", wl.check_unisolvence(2, (bad, pou)), True)
    t.expect("claims partition of unity off", wl.check_unisolvence(2, (matrix, {(0, 0): Fraction(1), (1, 0): Fraction(1, 3)})), True)
    check = fa.point_bound_check(basis, 1, samples=200, seed=0)
    t.expect("claims cap holds", wl.check_point_bound(2, 2, 1, check), False)
    t.expect("claims cap exceeded", wl.check_point_bound(2, 2, 1, dataclasses.replace(check, measured=check.bound * 2, passed=False)), True)
    t.expect("claims wrong cap", wl.check_point_bound(2, 2, 1, dataclasses.replace(check, bound=check.bound + 1)), True)
    caps = [fa.seminorm_bound_check(basis, fa.reference_simplex(2), 1, 2.0)]
    t.expect("claims seminorm cap holds", wl.check_seminorm_caps(caps), False)
    t.expect("claims seminorm cap exceeded", wl.check_seminorm_caps([dataclasses.replace(caps[0], passed=False)]), True)
    hs = fa.h_star_sequence(1, 2000, fa.SinPiSeminormModel())
    t.expect("claims h* asymptote", wl.check_hstar(hs), False)
    t.expect("claims h* off by 10%", wl.check_hstar(hs * 1.1), True)
    records = fa.weak_star_test(1, wl.WEAK_STAR_QS, fa.Bump(1.0, 2.0), fa.SinPiSeminormModel())
    t.expect("claims weak-* collapse", wl.check_weak_star(records, 2.0), False)
    bad = [dict(r) for r in records]
    bad[-1]["error"] = 2e-3
    t.expect("claims weak-* error too large", wl.check_weak_star(bad, 2.0), True)
    bad[-1]["error"] = 1e-5
    t.expect("claims weak-* error increasing", wl.check_weak_star(bad, 2.0), True)

    ops = [
        wl.Op("raises", lambda: 1 / 0, lambda out: []),
        wl.Op("checked wrong", lambda: 1, lambda out: [("wrong", "perturbed")]),
        wl.Op("passes", lambda: 1, lambda out: []),
    ]
    timings, failures = [], []
    check_pass(run_pass(ops), timings, failures)
    counted = [f["op"] for f in failures]
    t.expect("worker counts a raising op and a failed check", [] if counted == ["raises", "checked wrong"] else counted, False)


def quick_runs(t):
    for workload in run.WORKLOADS:
        summary, _ = run.measure(workload, 0, 1, 0, True, time.perf_counter() + run.DEADLINE_S)
        problems = [] if summary["correct"] and set(summary["metrics"]) == {n for n, _ in run.END_TO_END} else [summary]
        t.expect(f"quick run of {workload} ({summary['failed']} of {summary['attempted']} ops failed)", problems, False)
    summary, _ = run.measure("claims", 0, 1, 1, True, time.perf_counter() + run.DEADLINE_S)
    missing = sorted({n for n, _ in PER_LAYER} - set(summary["metrics"]))
    t.expect("quick traced run reports every per-layer metric", missing, False)


def main():
    t = Expectations()
    print("checks fed real and wrong outputs:")
    check_checks(t)
    print("quick runs:")
    quick_runs(t)
    print(f"self-test: {len(t.failed)} expectation(s) not met" + (f": {t.failed}" if t.failed else ""))
    return 1 if t.failed else 0
