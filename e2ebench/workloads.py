"""The four benchmark workloads: inputs, ops and output checks.

A workload builds its inputs once (the set-up), then offers a fixed list of
ops. Each op is run in a closed loop, one at a time and in list order; its
output is checked afterwards, outside the timed region, by a check that
returns a list of failures. A failure is ("wrong", why) when the output
contradicts an exact reference, a closed form or an in-process library value,
or ("claim", why) when the output is a measured number that misses one of the
paper's claims (error above its bound, fitted order off k + 1 - l, cap
exceeded). Either kind fails the op; only "wrong" makes the run incorrect.

Library names are looked up on the package at call time (``fa.name``), so a
traced run can wrap them without editing the library.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Tolerance of every fitted-order check; the acceptance suite uses the same.
ORDER_TOL = 0.15


@dataclass
class Op:
    """One benchmark operation: a call, and a check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _lib():
    import fem_accuracy

    return fem_accuracy


def _finite_positive(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


# --------------------------------------------------------------------------- cli

CLI_COMMANDS = (
    ("basis", "--n", "2", "--k", "3"),
    ("bounds", "--n", "1", "--k", "3", "--r", "2", "--samples", "2000"),
    ("constant", "--n", "1", "--m", "1", "--k", "4", "--p", "2.0"),
    ("prob", "--k1", "1", "--k2", "2", "--steps", "20"),
    ("hstar-seq", "--qmax", "50"),
    ("weakstar", "--q-list", "1,5,20"),
    ("converge", "--k", "1", "--meshes", "4,8"),
    ("converge", "--k", "3", "--m", "1", "--meshes", "16,32,64,128,256"),
    ("bounds", "--n", "2", "--k", "4", "--r", "2"),
)
CLI_QUICK = (CLI_COMMANDS[2], CLI_COMMANDS[6])


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_cli_rows(argv, stdout):
    """Rows of a CLI run: JSON lines for `basis`, CSV for everything else."""
    if argv[0] == "basis":
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return list(csv.DictReader(io.StringIO(stdout)))


class CliReference:
    """Headline values computed in-process, the independent route for the CLI."""

    def __init__(self):
        self._values = {}

    def get(self, argv):
        key = tuple(argv)
        if key not in self._values:
            self._values[key] = self._compute(argv)
        return self._values[key]

    @staticmethod
    def _compute(argv):
        fa = _lib()
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "prob":
            return fa.h_star_explicit(1, 0, 2.0, int(opts["--k1"]), int(opts["--k2"]))
        if argv[0] == "constant":
            bundle = fa.ConstantBundle(
                n=int(opts["--n"]), m=int(opts["--m"]), k=int(opts["--k"]), p=float(opts["--p"])
            )
            return fa.script_c(bundle)
        if argv[0] == "hstar-seq":
            qmax = int(opts["--qmax"])
            return float(fa.h_star_sequence(1, qmax, fa.SinPiSeminormModel(2.0))[qmax - 1])
        return None


def check_cli(argv, result, reference):
    """rc 0, parseable rows, and the headline equal to the library value."""
    rc, stdout = result
    if rc != 0:
        return [("wrong", f"exit code {rc}")]
    try:
        rows = parse_cli_rows(argv, stdout)
    except (ValueError, csv.Error) as exc:
        return [("wrong", f"unparseable output: {exc}")]
    if not rows:
        return [("wrong", "empty output")]
    expected = reference.get(argv)
    if argv[0] == "prob":
        got = float(rows[0]["h_star"])
    elif argv[0] == "constant":
        got = float(rows[0]["script_C"])
    elif argv[0] == "hstar-seq":
        got = float(rows[-1]["h_star"])
    else:
        got = expected = None
    if got != expected:
        return [("wrong", f"headline {got!r} differs from the library value {expected!r}")]
    if argv[0] == "converge":
        failing = [r["h"] for r in rows if r["pass"] != "True"]
        if failing:
            return [("claim", f"pass false at h = {', '.join(failing)}")]
    return []


class CliWorkload:
    """One fresh `python -m fem_accuracy.cli` process per op."""

    name = "cli"

    def __init__(self, seed, quick=False):
        import fem_accuracy.cli  # noqa: F401  (what every CLI process imports)

        self.commands = [cmd + ("--seed", str(seed)) for cmd in (CLI_QUICK if quick else CLI_COMMANDS)]
        self.reference = CliReference()
        self.env = cli_env()

    def sizes(self):
        return {"commands": [" ".join(c) for c in self.commands]}

    def _subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "fem_accuracy.cli", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def _in_process(argv):
        from contextlib import redirect_stdout

        fa = _lib()
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = fa.cli.main(list(argv))
        return rc, buf.getvalue()

    def _ops(self, call):
        return [
            Op(" ".join(argv), lambda a=argv: call(a), lambda out, a=argv: check_cli(a, out, self.reference))
            for argv in self.commands
        ]

    def ops(self):
        return self._ops(self._subprocess)

    def traced_ops(self):
        """The same commands through `cli.main` in this process, so spans reach the layers."""
        return self._ops(self._in_process)


# -------------------------------------------------------------------- galerkin1d

GALERKIN_MESHES = (32, 64, 128, 256, 512, 1024, 2048)
GALERKIN_QUICK_MESHES = (8, 16, 32)


def check_convergence(k, m, result):
    """Criterion-5 rules: every row passes, slope within ORDER_TOL of k + 1 - m."""
    import numpy as np

    rows, slope = result
    out = []
    for r in rows:
        if not (_finite_positive(r["error"]) and _finite_positive(r["bound"])) or r["pass"] is None:
            out.append(("wrong", f"malformed row at h = {r['h']}: error {r['error']}, bound {r['bound']}"))
    if out:
        return out
    refit = float(np.polyfit(np.log([r["h"] for r in rows]), np.log([r["error"] for r in rows]), 1)[0])
    if slope is None or not math.isclose(slope, refit, rel_tol=1e-9, abs_tol=1e-12):
        return [("wrong", f"returned slope {slope} differs from the refit {refit}")]
    failing = [f"{r['h']:.3g}" for r in rows if not r["pass"]]
    if failing:
        out.append(("claim", f"error above the bound at h = {', '.join(failing)}"))
    if abs(slope - (k + 1 - m)) > ORDER_TOL:
        out.append(("claim", f"slope {slope:.3f} is off {k + 1 - m} by more than {ORDER_TOL}"))
    return out


class GalerkinWorkload:
    """convergence_study of the sine problem over k, m and p."""

    name = "galerkin1d"

    def __init__(self, seed, quick=False):
        fa = _lib()
        self.problem = fa.ModelProblem.sine()
        self.meshes = list(GALERKIN_QUICK_MESHES if quick else GALERKIN_MESHES)
        self.cases = [(k, m, p) for k in (1, 2, 3) for m in (0, 1) for p in (2.0, 3.0)]

    def sizes(self):
        return {"meshes": self.meshes, "cases_k_m_p": self.cases}

    def ops(self):
        fa = _lib()
        return [
            Op(
                f"k={k} m={m} p={p}",
                lambda k=k, m=m, p=p: fa.convergence_study(self.problem, k, m, p, self.meshes),
                lambda out, k=k, m=m: check_convergence(k, m, out),
            )
            for k, m, p in self.cases
        ]

    traced_ops = ops


# ---------------------------------------------------------------------- interp2d

INTERP_CASES = ((1, 48), (2, 32), (3, 24))
INTERP_QUICK_CASES = ((1, 8), (2, 6))


def check_interpolation(k, l, result, reference):
    """Order against the half-resolution mesh within ORDER_TOL of k + 1 - l."""
    value, estimate = result
    if not (_finite_positive(value) and math.isfinite(estimate) and estimate >= 0):
        return [("wrong", f"malformed result: value {value}, estimate {estimate}")]
    order = math.log(reference / value) / math.log(2.0)
    if abs(order - (k + 1 - l)) > ORDER_TOL:
        return [("claim", f"order {order:.3f} is off {k + 1 - l} by more than {ORDER_TOL}")]
    return []


class InterpWorkload:
    """interpolation_error of sin(pi x) sin(pi y) on structured triangle meshes."""

    name = "interp2d"

    def __init__(self, seed, quick=False):
        fa = _lib()
        self.cases = INTERP_QUICK_CASES if quick else INTERP_CASES
        self.fn = fa.SinPiProduct(2)
        self.meshes = {s: fa.structured_mesh_2d(s) for _, s in self.cases}
        self.bases = {k: fa.build_basis(2, k) for k, _ in self.cases}
        self._references = {}

    def sizes(self):
        return {"k_per_side": [list(c) for c in self.cases], "l": [0, 1], "p": 2.0}

    def _run(self, k, l, mesh):
        return _lib().interpolation_error(self.fn, mesh, self.bases[k], l, 2.0, with_estimate=True)

    def reference(self, k, s, l):
        """Error on the half-resolution mesh, computed once and outside the timed loop."""
        key = (k, s, l)
        if key not in self._references:
            half = _lib().structured_mesh_2d(s // 2)
            self._references[key] = self._run(k, l, half)[0]
        return self._references[key]

    def ops(self):
        return [
            Op(
                f"k={k} s={s} l={l}",
                lambda k=k, s=s, l=l: self._run(k, l, self.meshes[s]),
                lambda out, k=k, s=s, l=l: check_interpolation(k, l, out, self.reference(k, s, l)),
            )
            for k, s in self.cases
            for l in (0, 1)
        ]

    traced_ops = ops


# ------------------------------------------------------------------------ claims

UNISOLVENCE_CASES = ((3, 7), (2, 10), (4, 5), (1, 30))
POINT_BOUND_CASES = ((2, 6), (3, 4))
WEAK_STAR_QS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
HSTAR_QMAX = 2000
QUICK = {"unisolvence": ((2, 3), (1, 5)), "point_bound": ((2, 2),), "seminorm_k": (1, 2), "hstar_qmax": 200}


def check_unisolvence(n, result):
    matrix, pou = result
    size = len(matrix)
    if any(matrix[i][j] != (1 if i == j else 0) for i in range(size) for j in range(size)):
        return [("wrong", "evaluation matrix is not exactly the identity")]
    if pou != {(0,) * n: Fraction(1)}:
        return [("wrong", f"partition of unity reduces to {pou}, not 1")]
    return []


def check_point_bound(n, k, r, check):
    cap = float(k) ** (n + 1) if r == 0 else float(k) ** (r * (n + 2))
    if check.bound != cap:
        return [("wrong", f"cap {check.bound} differs from the closed form {cap}")]
    if not (check.passed and check.measured <= cap):
        return [("claim", f"max {check.measured} exceeds the cap {cap}")]
    return []


def check_seminorm_caps(checks):
    failing = [f"k={c.params['k']} l={c.params['l']} p={c.params['p']}" for c in checks if not c.passed]
    return [("claim", f"seminorm cap exceeded at {'; '.join(failing)}")] if failing else []


def check_hstar(hs):
    q = len(hs)
    target = 1.0 / (math.e * math.pi)
    dev = abs(hs[-1] / q - target) / target
    return [("claim", f"h*_{q}/{q} is {100 * dev:.2f}% off 1/(e pi)")] if dev > 0.05 else []


def check_weak_star(records, bump_b):
    beyond = [r for r in records if r["h_star"] > bump_b]
    if not beyond:
        return [("claim", "no q clears the bump support")]
    errors = [r["error"] for r in beyond]
    out = []
    if any(e >= 1e-3 for e in errors):
        out.append(("claim", f"errors after h* clears the support: {', '.join(f'{e:.1e}' for e in errors)}"))
    if any(a < b for a, b in zip(errors, errors[1:])):
        out.append(("claim", "errors increase after h* clears the support"))
    return out


class ClaimsWorkload:
    """The paper's exact and theory checks: no mesh, no fem1d, no 2D norms."""

    name = "claims"

    def __init__(self, seed, quick=False):
        fa = _lib()
        self.seed = seed
        self.unisolvence = QUICK["unisolvence"] if quick else UNISOLVENCE_CASES
        self.point_bound = QUICK["point_bound"] if quick else POINT_BOUND_CASES
        self.seminorm_k = QUICK["seminorm_k"] if quick else tuple(range(1, 7))
        self.hstar_qmax = QUICK["hstar_qmax"] if quick else HSTAR_QMAX
        self.bases = {
            nk: fa.build_basis(*nk)
            for nk in set(self.unisolvence) | set(self.point_bound) | {(n, k) for n in (1, 2) for k in self.seminorm_k}
        }
        self.simplices = {n: fa.reference_simplex(n) for n in (1, 2)}
        self.models = {"sinpi": fa.SinPiSeminormModel(), "geometric": fa.GeometricSeminormModel(1.0)}
        self.bump_support = (1.0, 2.0)

    def sizes(self):
        return {
            "unisolvence_n_k": [list(c) for c in self.unisolvence],
            "point_bound_n_k": [list(c) for c in self.point_bound],
            "point_bound_r": [0, 1, 2],
            "seminorm_caps": {"n": [1, 2], "k": list(self.seminorm_k), "l": [0, 1], "p": [1.5, 2.0, 3.0]},
            "hstar_qmax": self.hstar_qmax,
            "weak_star_q": list(WEAK_STAR_QS),
        }

    def _unisolvence(self, nk):
        basis = self.bases[nk]
        return basis.evaluation_matrix(), basis.sum_polynomial().reduced()

    def _seminorm_caps(self, n):
        fa = _lib()
        return [
            fa.seminorm_bound_check(self.bases[(n, k)], self.simplices[n], l, p)
            for k in self.seminorm_k
            for l in (0, 1)
            for p in (1.5, 2.0, 3.0)
        ]

    def ops(self):
        fa = _lib()
        ops = [
            Op(f"unisolvence n={n} k={k}", lambda nk=(n, k): self._unisolvence(nk), lambda out, n=n: check_unisolvence(n, out))
            for n, k in self.unisolvence
        ]
        ops += [
            Op(
                f"point_bound n={n} k={k} r={r}",
                lambda nk=(n, k), r=r: fa.point_bound_check(self.bases[nk], r, seed=self.seed),
                lambda out, n=n, k=k, r=r: check_point_bound(n, k, r, out),
            )
            for n, k in self.point_bound
            for r in (0, 1, 2)
        ]
        ops += [Op(f"seminorm_caps n={n}", lambda n=n: self._seminorm_caps(n), check_seminorm_caps) for n in (1, 2)]
        ops.append(
            Op(f"h_star_sequence q<={self.hstar_qmax}", lambda: fa.h_star_sequence(1, self.hstar_qmax, self.models["sinpi"]), check_hstar)
        )
        ops += [
            Op(
                f"weak_star {name}",
                lambda model=model: fa.weak_star_test(1, WEAK_STAR_QS, fa.Bump(*self.bump_support), model),
                lambda out: check_weak_star(out, self.bump_support[1]),
            )
            for name, model in self.models.items()
        ]
        return ops

    traced_ops = ops


WORKLOADS = {w.name: w for w in (CliWorkload, GalerkinWorkload, InterpWorkload, ClaimsWorkload)}
