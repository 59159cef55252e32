"""Acceptance suite: nine numbered end-to-end criteria.

Each criterion is one test so the verbose run shows one pass/fail line per
criterion; on success the test also prints a PASS line with the measured
numbers.  Stated runtime budgets are asserted with perf_counter inside the
tests themselves.

1. Exact unisolvence and partition of unity across (n, k) grids.
2. Pointwise caps on shape functions and barycentric derivatives.
3. Seminorm caps on the reference interval and triangle (and, beside it,
   on the reference tetrahedron).
4. Interpolation error bound and orders for the sine solution (and, beside
   it, interpolation orders on Kuhn-split cube meshes).
5. Galerkin convergence orders and error-below-bound on the full grid.
6. Probability-law shape: exact half at the crossing, monotonicity,
   limits, scaling invariance.
7. Linear growth of the critical mesh size with the degree gap.
8. Weak-* pairing error collapse once the crossing clears the bump.
9. Byte-identical CLI output across repeated seeded runs.
"""

import itertools
import math
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fem_accuracy.basis import build_basis
from fem_accuracy.bounds import point_bound_check, seminorm_bound_check
from fem_accuracy.constants import ConstantBundle
from fem_accuracy.fem1d import ModelProblem, assemble_and_solve_all, error_reports
from fem_accuracy.functions import SinPiProduct
from fem_accuracy.geometry import SimplexMesh, reference_simplex, uniform_mesh_1d
from fem_accuracy.norms import interpolation_error, seminorm
from fem_accuracy.probability import (
    AccuracyLaw,
    Bump,
    ElementPair,
    SinPiSeminormModel,
    h_star,
    h_star_sequence,
    weak_star_test,
)

from oracles import gradient_max, local_interp_bound, polynomial_integral, polynomial_product, size_and_regularity

# Tolerance on an observed convergence order, as in criterion 4.
ORDER_TOL = 0.15


def _report(num, title, elapsed, detail):
    print(f"criterion {num} ({title}): PASS in {elapsed:.2f}s - {detail}")


def test_criterion_1_unisolvence_and_partition_of_unity():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for k in range(1, 6):
            basis = build_basis(n, k)
            mat = basis.evaluation_matrix()
            for i in range(basis.size):
                for j in range(basis.size):
                    assert mat[i][j] == (1 if i == j else 0), (n, k, i, j)
            assert basis.sum_polynomial().reduced() == {(0,) * n: Fraction(1)}, (n, k)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"unisolvence suite took {elapsed:.1f}s"
    _report(1, "unisolvence", elapsed, f"{checked} bases exact in rational arithmetic")


def test_criterion_2_pointwise_caps():
    start = time.perf_counter()
    worst_margin = math.inf
    cases = 0
    for n in (1, 2):
        for k in range(1, 5):
            basis = build_basis(n, k)
            for r in (0, 1, 2):
                chk = point_bound_check(basis, r)
                assert chk.passed, chk.to_record()
                worst_margin = min(worst_margin, chk.bound / max(chk.measured, 1e-300))
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"point-cap suite took {elapsed:.1f}s"
    _report(2, "pointwise caps", elapsed, f"{cases} scans, tightest bound/measured = {worst_margin:.2f}")


def test_criterion_3_seminorm_caps():
    start = time.perf_counter()
    asserted = 0
    flagged = []
    for n in (1, 2):
        ref = reference_simplex(n)
        for k in range(1, 5):
            basis = build_basis(n, k)
            for l in (0, 1):
                for p in (1.5, 2.0, 3.0):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        chk = seminorm_bound_check(basis, ref, l, p)
                    if chk.params["admissible"]:
                        assert chk.passed, chk.to_record()
                        asserted += 1
                    else:
                        flagged.append((n, k, l, p))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"seminorm-cap suite took {elapsed:.1f}s"
    # Only the order-one caps of the linear triangle at small p sit outside
    # the hypothesis k + 1 > l + n/p.
    assert flagged == [(2, 1, 1, 1.5), (2, 1, 1, 2.0)]
    _report(3, "seminorm caps", elapsed, f"{asserted} admissible combinations within the cap")


def test_criterion_3_seminorm_caps_on_the_tetrahedron():
    ref = reference_simplex(3)
    asserted = 0
    flagged = []
    for k in (1, 2, 3):
        basis = build_basis(3, k)
        for l in (0, 1):
            for p in (1.5, 2.0, 3.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    chk = seminorm_bound_check(basis, ref, l, p)
                if chk.params["admissible"]:
                    assert chk.passed, chk.to_record()
                    asserted += 1
                else:
                    flagged.append((k, l, p))
        # Second route for the L^2 row: the exact rational integral of each
        # shape function squared over the reference tetrahedron.
        squares = [polynomial_integral(polynomial_product(poly, poly), 3) for poly in basis.polynomials]
        chk = seminorm_bound_check(basis, ref, 0, 2.0)
        assert chk.measured == pytest.approx(math.sqrt(max(squares)), rel=1e-12, abs=0)
    # k + 1 > l + 3/p fails for these five.
    assert flagged == [(1, 0, 1.5), (1, 1, 1.5), (1, 1, 2.0), (1, 1, 3.0), (2, 1, 1.5)]
    assert asserted == 13


def test_criterion_4_interpolation_bound_and_orders():
    start = time.perf_counter()
    fn = SinPiProduct()
    p = 2.0
    slopes = {}
    for k in (1, 2, 3):
        basis = build_basis(1, k)
        for l in (0, 1):
            errors, sizes = [], []
            for ne in (8, 16, 32):
                mesh = uniform_mesh_1d(0.0, 1.0, ne)
                err = interpolation_error(fn, mesh, basis, l, p)
                h, sigma = size_and_regularity(mesh)
                bundle = ConstantBundle(
                    n=1,
                    m=1,
                    k=k,
                    p=p,
                    sigma=max(sigma, 1.0),
                    lam=gradient_max(mesh),
                    h_cap=max(h, 1.0),
                )
                u_semi = seminorm(fn, mesh, k + 1, p, degree=2 * k + 8)
                rhs = local_interp_bound(bundle, u_semi, h, l)
                assert err <= rhs, (k, l, ne, err, rhs)
                errors.append(err)
                sizes.append(h)
            slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
            assert abs(slope - (k + 1 - l)) <= 0.15, (k, l, slope)
            slopes[(k, l)] = slope
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"k={k} l={l}: {s:.2f}" for (k, l), s in slopes.items())
    _report(4, "interpolation bound", elapsed, detail)


def kuhn_cube_mesh(per_side):
    """The unit cube in per_side^3 cells, each split into the six Kuhn tetrahedra."""
    ticks = np.arange(per_side + 1) / per_side
    z, y, x = np.meshgrid(ticks, ticks, ticks, indexing="ij")
    vertices = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    stride = np.array([1, per_side + 1, (per_side + 1) ** 2])
    cells = np.stack(np.meshgrid(*[np.arange(per_side)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    corner = cells @ stride
    # One tetrahedron per order of the three unit steps from a cell's corner.
    tets = [
        np.column_stack([corner, corner[:, None] + np.cumsum(stride[list(axes)])])
        for axes in itertools.permutations(range(3))
    ]
    return SimplexMesh(vertices=vertices, connectivity=np.concatenate(tets))


def test_criterion_4_interpolation_orders_on_tetrahedra():
    fn = SinPiProduct(3)
    coarse, fine = kuhn_cube_mesh(4), kuhn_cube_mesh(8)
    assert len(fine) == 6 * 8**3
    assert math.fsum(fine.element_measures) == pytest.approx(1.0, rel=1e-14)
    for k in (1, 2):
        basis = build_basis(3, k)
        for l in (0, 1):
            ratio = interpolation_error(fn, coarse, basis, l, 2.0) / interpolation_error(fn, fine, basis, l, 2.0)
            # The mesh size halves, so the observed order is log2 of the ratio.
            assert abs(math.log2(ratio) - (k + 1 - l)) <= ORDER_TOL, (k, l, math.log2(ratio))


def test_criterion_5_galerkin_convergence_grid():
    start = time.perf_counter()
    problem = ModelProblem.sine()
    counts = (8, 16, 32, 64, 128)
    meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in counts]
    slopes = {}
    for k in (1, 2, 3):
        solution = assemble_and_solve_all(problem, meshes, k)
        for m in (0, 1):
            for p in (1.5, 2.0, 3.0):
                errors, sizes = [], []
                for ne, rep in zip(counts, error_reports(solution, problem, m, p)):
                    assert rep["admissible"], (k, m, p)
                    assert rep["pass"], (k, m, p, ne, rep["error"], rep["bound"])
                    errors.append(rep["error"])
                    sizes.append(rep["h"])
                slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
                assert abs(slope - (k + 1 - m)) <= 0.15, (k, m, p, slope)
                slopes[(k, m, p)] = slope
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"Galerkin grid took {elapsed:.1f}s"
    worst = max(abs(s - (k + 1 - m)) for (k, m, _), s in slopes.items())
    _report(5, "Galerkin convergence", elapsed, f"18 combinations, max slope deviation {worst:.3f}")


def test_criterion_6_law_shape_and_scaling():
    start = time.perf_counter()
    for exponent in (1, 2, 5):
        law = AccuracyLaw(h_star=0.7374, exponent=exponent)
        # Exactly one half at the crossing.
        assert law(law.h_star) == 0.5
        # Strict decrease across a thousand-point grid.
        grid = np.linspace(1e-3, 8.0, 1000)
        vals = np.array(law(grid))
        assert np.all(np.diff(vals) < 0.0)
        # Limits 1 and 0, approached from inside.
        assert 1.0 - law(law.h_star * 1e-9) < 1e-8
        assert law(law.h_star * 1e9) < 1e-8
        assert np.all(vals < 1.0) and np.all(vals > 0.0)
    # Common scaling of the two constants cancels: bitwise for lossless
    # power-of-two factors, to rounding for generic ones.
    base = h_star(ElementPair(1, 3, 20.0, 9.0))
    for t in (2.0**-40, 0.125, 2.0, 2.0**17, 2.0**51):
        assert h_star(ElementPair(1, 3, 20.0 * t, 9.0 * t)) == base
    for t in (3.7, 0.000123, 1.0e8):
        scaled = h_star(ElementPair(1, 3, 20.0 * t, 9.0 * t))
        assert scaled == pytest.approx(base, rel=1e-14)
    elapsed = time.perf_counter() - start
    _report(6, "probability-law shape", elapsed, "half at crossing exact, strict decay, scaling invariant")


def test_criterion_7_critical_size_linear_growth():
    start = time.perf_counter()
    hs = h_star_sequence(1, 200, SinPiSeminormModel())
    target = 1.0 / (math.e * math.pi)
    rel_dev = abs(hs[199] / 200.0 - target) / target
    assert rel_dev <= 0.05, rel_dev
    diffs = np.diff(hs)
    non_increasing = np.nonzero(diffs <= 0.0)[0]
    increasing_from = int(non_increasing[-1]) + 2 if non_increasing.size else 1
    assert increasing_from <= 50, increasing_from
    assert np.all(diffs[increasing_from - 1 :] > 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"sequence suite took {elapsed:.1f}s"
    _report(
        7,
        "critical-size growth",
        elapsed,
        f"h*_200/200 deviates {100 * rel_dev:.2f}% from 1/(e*pi), increasing from q={increasing_from}",
    )


def test_criterion_8_weak_star_collapse():
    start = time.perf_counter()
    bump = Bump(1.0, 2.0)
    ladder = [1, 2, 5, 10, 20, 50, 100, 200]
    records = weak_star_test(1, ladder, bump, SinPiSeminormModel())
    beyond = [r for r in records if r["h_star"] > bump.b]
    assert beyond, "no ladder entry clears the bump support"
    first_clear = beyond[0]["q"]
    errors = [r["error"] for r in beyond]
    assert all(e < 1e-3 for e in errors), errors
    assert all(a >= b for a, b in zip(errors, errors[1:])), errors
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"weak-* suite took {elapsed:.1f}s"
    _report(
        8,
        "weak-* collapse",
        elapsed,
        f"first clearing q={first_clear}, errors {', '.join(f'{e:.1e}' for e in errors)}",
    )


def test_criterion_9_cli_determinism():
    start = time.perf_counter()
    script = shutil.which("fem-accuracy")
    base = [script] if script else [sys.executable, "-m", "fem_accuracy.cli"]
    commands = [
        ["basis", "--n", "2", "--k", "3"],
        ["bounds", "--n", "1", "--k", "3", "--r", "2", "--samples", "2000", "--seed", "7"],
        ["constant", "--n", "1", "--m", "1", "--k", "4", "--p", "2.0"],
        ["prob", "--k1", "1", "--k2", "2", "--steps", "20"],
        ["hstar-seq", "--qmax", "50"],
        ["weakstar", "--q-list", "1,5,20"],
        ["converge", "--k", "1", "--meshes", "4,8"],
    ]
    for extra in commands:
        cmd = base + extra
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, (extra, first.stderr.decode())
        assert second.returncode == 0, extra
        assert first.stdout == second.stdout, f"nondeterministic output: {extra}"
        assert first.stdout, extra
    elapsed = time.perf_counter() - start
    launcher = f"console script {script}" if script else "python -m fem_accuracy.cli"
    _report(
        9,
        "CLI determinism",
        elapsed,
        f"{len(commands)} subcommands byte-identical across two runs of {launcher}",
    )
