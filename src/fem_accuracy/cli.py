"""Command line interface.

Subcommands mirror the library layers: basis dumps, bound checks, the
error constant, probability curves, critical-size sequences, weak-*
pairings, and the 1D convergence study.  Output is CSV or JSON lines,
written to --out or stdout.  Runs are deterministic for a fixed --seed.
Exit codes: 0 success (and all embedded checks PASS), 1 a named check
failed, 2 usage error, 3 inadmissible parameters.  A library warning prints
once to stderr as `warning: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import warnings

# Library names are looked up on the package when a subcommand runs, so each
# subcommand imports only the layers it uses, and `constant`, --help and the
# arguments argparse rejects import no numpy.
import fem_accuracy as fa

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INADMISSIBLE = 3


def _emit(rows, fmt, out):
    """Write dict rows as CSV or JSON lines with stable column order."""
    if not rows:
        return
    if fmt == "json":
        text = "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
    else:
        cols = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _int_at_least(low):
    """argparse type: an integer no smaller than `low`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_float(text):
    """argparse type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _int_list(text):
    """argparse type: a nonempty comma-separated list of positive integers."""
    values = [_int_at_least(1)(t) for t in text.split(",") if t.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of positive integers")
    return values


def _model(name, p):
    return fa.SinPiSeminormModel(p) if name == "sinpi" else fa.GeometricSeminormModel(1.0)


# Each cmd_* returns (rows, failed): failed names the embedded checks that did
# not hold, or is None.


def cmd_basis(args):
    basis = fa.build_basis(args.n, args.k)
    rows = []
    for mi, node, poly in zip(basis.indices, basis.nodes, basis.polynomials):
        rows.append(
            {
                "multi_index": list(mi),
                "node": [str(c) for c in node],
                "terms": {" ".join(map(str, e)): str(c) for e, c in sorted(poly.terms.items(), reverse=True)},
            }
        )
    return rows, None


def cmd_bounds(args):
    from . import bounds

    bounds.check_arguments(args.n, args.k, args.r, args.l, args.p, args.samples)
    basis = fa.build_basis(args.n, args.k)
    checks = [fa.point_bound_check(basis, r, samples=args.samples, seed=args.seed) for r in range(args.r + 1)]
    checks.append(fa.seminorm_bound_check(basis, fa.reference_simplex(args.n), args.l, args.p))
    failed = [c.name for c in checks if not c.passed]
    return [c.to_record() for c in checks], ", ".join(failed) or None


def cmd_constant(args):
    bundle = fa.ConstantBundle(**{f.name: getattr(args, f.name) for f in dataclasses.fields(fa.ConstantBundle)})
    return [{**dataclasses.asdict(bundle), "script_C": fa.script_c(bundle)}], None


def _h_grid(args):
    """numpy.geomspace(hmin, hmax, steps), built as numpy builds it: evenly spaced log10 values."""
    if not 0 < args.hmin < args.hmax < math.inf or args.steps < 2:
        raise ValueError("need 0 < hmin < hmax and steps >= 2")
    lo = math.log10(args.hmin)
    step = (math.log10(args.hmax) - lo) / (args.steps - 1)
    return [args.hmin, *(10.0 ** (i * step + lo) for i in range(1, args.steps - 1)), args.hmax]


def cmd_prob(args):
    if (args.ck1 is None) != (args.ck2 is None):
        raise ValueError("give both --ck1 and --ck2, or neither")
    q = args.k2 - args.k1
    if args.ck1 is not None:
        hs = fa.h_star(args.ck1, args.ck2, q)
    else:
        hs = fa.h_star_explicit(
            args.n, args.m, args.p, args.k1, args.k2, seminorm_ratio=args.seminorm_ratio, cea_quotient=args.cea_ratio
        )
    law = fa.AccuracyLaw(h_star=hs, exponent=q)
    step = fa.AccuracyLaw(h_star=hs, exponent=q, kind="step")
    return [{"h": h, "probability": law(h), "step": step(h), "h_star": hs} for h in _h_grid(args)], None


def cmd_hstar_seq(args):
    qs = range(1, args.qmax + 1)
    hs = fa.h_stars(args.k, qs, _model(args.model, args.p), n=args.n, m=args.m, p=args.p)
    return [{"q": q, "h_star": h, "h_star_over_q": h / q} for q, h in zip(qs, hs)], None


def cmd_weakstar(args):
    model = _model(args.model, args.p)
    bump = fa.Bump(args.bump_a, args.bump_b)
    return fa.weak_star_test(args.k, args.q_list, bump, model, n=args.n, m=args.m, p=args.p), None


def cmd_converge(args):
    from . import fem1d

    problem = fem1d.ModelProblem.sine() if args.problem == "sine" else fem1d.ModelProblem.cubic()
    rows, slope = fem1d.convergence_study(problem, args.k, args.m, args.p, args.meshes, cea_ratio=args.cea_ratio)
    for row in rows:
        row["slope"] = slope
    violated = any(r["pass"] is False for r in rows)
    return rows, "error exceeded the bound" if violated else None


# The options several subcommands take, each declared once.  Every subparser
# adds its own action from these, so its set_defaults (k=2 for basis and
# bounds) leaves the other subcommands alone; argparse parent parsers would
# share one action between them.
SHARED_OPTIONS = {
    "--n": dict(type=_int_at_least(1), default=1),
    "--k": dict(type=_int_at_least(1), default=1),
    "--m": dict(type=_int_at_least(0), default=0),
    "--p": dict(type=_positive_float, default=2.0),
    "--cea-ratio": dict(type=float, default=1.0),
    "--model": dict(choices=["sinpi", "exp"], default="sinpi"),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--out": dict(default=None, help="output file (default stdout)"),
    "--seed": dict(type=int, default=0),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="fem-accuracy", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, shared, help, **defaults):
        """A subparser taking the SHARED_OPTIONS named in the string `shared`."""
        sp = sub.add_parser(name, help=help)
        for option in shared.split() + ["--format", "--out", "--seed"]:
            sp.add_argument(option, **SHARED_OPTIONS[option])
        sp.set_defaults(fn=fn, **defaults)
        return sp

    command("basis", cmd_basis, "--n --k", "dump the exact shape functions of one basis", k=2)

    sp = command("bounds", cmd_bounds, "--n --k --p", "pointwise and seminorm cap checks", k=2)
    sp.add_argument("--r", type=_int_at_least(0), default=2, help="max derivative order for the pointwise scan")
    sp.add_argument("--l", type=_int_at_least(0), default=1)
    sp.add_argument("--samples", type=_int_at_least(0), default=10000)

    sp = command("constant", cmd_constant, "--n --m --k --p --cea-ratio", "evaluate the error constant script_C(k)")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--lam", type=float, default=1.0)
    sp.add_argument("--h-cap", type=float, default=1.0)

    sp = command("prob", cmd_prob, "--n --m --p --cea-ratio", "accuracy-probability curve for a degree pair")
    sp.add_argument("--k1", type=_int_at_least(1), default=1)
    sp.add_argument("--k2", type=int, default=2)
    sp.add_argument("--ck1", type=float, default=None, help="explicit constant for k1")
    sp.add_argument("--ck2", type=float, default=None, help="explicit constant for k2")
    sp.add_argument("--seminorm-ratio", type=float, default=1.0)
    sp.add_argument("--hmin", type=float, default=0.01)
    sp.add_argument("--hmax", type=float, default=10.0)
    sp.add_argument("--steps", type=int, default=50)

    sp = command("hstar-seq", cmd_hstar_seq, "--k --n --m --p --model", "critical mesh sizes for growing degree gap")
    sp.add_argument("--qmax", type=_int_at_least(1), default=200)

    sp = command("weakstar", cmd_weakstar, "--k --n --m --p --model", "pairing error of the laws against the step limit")
    sp.add_argument("--q-list", type=_int_list, default="1,2,5,10,20,50,100,200")
    sp.add_argument("--bump-a", type=float, default=1.0)
    sp.add_argument("--bump-b", type=float, default=2.0)

    sp = command("converge", cmd_converge, "--k --m --p --cea-ratio", "1D Galerkin convergence study")
    sp.add_argument("--problem", choices=["sine", "cubic"], default="sine")
    sp.add_argument("--meshes", type=_int_list, default="8,16,32,64,128")

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    shown = set()

    def show(message, *_):  # each distinct warning once, without the file and line that raised it
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            rows, failed = args.fn(args)
            # basis rows hold lists and maps, which only JSON lines carry.
            _emit(rows, "json" if args.command == "basis" else args.format, args.out)
        except fa.AdmissibilityError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_INADMISSIBLE
        except ValueError as exc:
            # A failed solve (numpy's LinAlgError, a ValueError) is not a usage
            # error; without numpy loaded there was no solve.
            numpy = sys.modules.get("numpy")
            if numpy is not None and isinstance(exc, numpy.linalg.LinAlgError):
                raise
            ap.error(str(exc))
    if failed:
        print(f"FAIL: {failed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def __getattr__(name):
    # e2ebench/tracer.py patches and restores cli.Bump, which nothing here
    # reads (ROADMAP direction 6 deletes this).  Taken from probability, not
    # the package, so a Bump patched on the package is not restored here.
    if name == "Bump":
        from .probability import Bump

        return Bump
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
