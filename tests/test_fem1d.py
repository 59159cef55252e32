import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fem_accuracy.basis import build_basis
from fem_accuracy.fem1d import (
    BACKWARD_ERROR_TOL,
    BOUND_ABS_SLACK,
    DiscreteSolution,
    MeshFamily,
    ModelProblem,
    assemble_and_solve_all,
    convergence_study,
    element_system,
    error_reports,
    excess_reduction,
    least_squares_order,
    solve_condensed,
    solve_quality,
)
from fem_accuracy.functions import Polynomial1D, SinPiProduct
from fem_accuracy.geometry import SimplexMesh, structured_mesh_2d, uniform_mesh_1d
from fem_accuracy.norms import (
    ESTIMATE_DEGREE_STEP,
    DifferenceField,
    PiecewisePolynomialField,
    element_blocks,
    element_powers,
)
from fem_accuracy.quadrature import interval_rule

from oracles import (
    Exp1D,
    element_dofs,
    exact_residual,
    exact_solve,
    global_coefficients,
    loglog_slope,
    one_element_mesh,
    rational_eval,
    simplex_mesh,
    solution_values,
)

# x - x^2 vanishes at both ends and lies in P_2.
QUADRATIC = ModelProblem(u=Polynomial1D([0.0, 1.0, -1.0]), name="quadratic")

# Tolerance on a fitted convergence order, as in the acceptance suite and the benchmark's checks.
ORDER_TOL = 0.15

# The unit roundoff eps/2 and gamma_m = m u / (1 - m u), the bound on m roundings in a row.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(m):
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


def graded_mesh(count=300):
    """Elements between the squares of a uniform grid: 300 have lengths from 1.1e-5 to 6.6e-3."""
    nodes = np.linspace(0.0, 1.0, count + 1) ** 2
    return SimplexMesh(vertices=nodes.reshape(-1, 1), connectivity=np.arange(count)[:, None] + np.arange(2))


def dense_free_system(a, b):
    """The uncondensed system on the free dofs, assembled densely from the element matrices
    (floats, or Fractions in object arrays).

    Returns (matrix, load, free): free holds the global dof of each unknown,
    all dofs but the two end vertices, in global order.
    """
    ne, k = a.shape[0], a.shape[1] - 1
    dofs = element_dofs(ne, k)
    ndof = ne * k + 1
    matrix, load = np.zeros((ndof, ndof), dtype=a.dtype), np.zeros(ndof, dtype=b.dtype)
    for e in range(ne):
        matrix[np.ix_(dofs[e], dofs[e])] += a[e]
        load[dofs[e]] += b[e]
    free = np.setdiff1d(np.arange(ndof), [0, ne])
    return matrix[np.ix_(free, free)], load[free], free


def dense_quality(matrix, load, x):
    """Relative residual and normwise backward error of x, norms by numpy."""
    r = matrix @ x - load
    scale = np.linalg.norm(matrix, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(load, np.inf)
    return np.linalg.norm(r) / np.linalg.norm(load), np.linalg.norm(r, np.inf) / scale


def position_order(ne, k, free):
    """The permutation of the free dofs that sorts them by position: local node c of
    element e sits at position e k + c, so the matrix in this order has half-bandwidth k."""
    position = np.empty(ne * k + 1)
    position[element_dofs(ne, k)] = np.arange(ne)[:, None] * k + np.arange(k + 1)
    return np.argsort(position[free])


def position_band(a, b):
    """Upper band storage ab[k + i - j, j] = A[i, j] of the free system in position order.

    Returns (ab, load, dof) with dof the global dof of each unknown.
    """
    k = a.shape[1] - 1
    matrix, load, free = dense_free_system(a, b)
    order = position_order(a.shape[0], k, free)
    matrix = matrix[np.ix_(order, order)]
    ab = np.zeros((k + 1, len(order)))
    for d in range(k + 1):
        ab[k - d, d:] = np.diagonal(matrix, d)
    return ab, load[order], free[order]


class TestModelProblem:
    def test_sine_right_hand_side(self):
        prob = ModelProblem.sine()
        x = np.array([[0.5]])
        assert prob.f_values(x)[0] == pytest.approx(math.pi**2 + 1.0, rel=1e-13)

    def test_cubic_right_hand_side(self):
        # u = x - x^3 gives f = -u'' + u = 7x - x^3.
        prob = ModelProblem.cubic()
        x = np.array([[0.5]])
        assert prob.f_values(x)[0] == pytest.approx(3.375, rel=1e-13)

    def test_one_dimensional_point_arrays(self):
        x = np.array([0.1, 0.2, 0.3])
        for prob in (ModelProblem.sine(), ModelProblem.cubic()):
            assert prob.f_values(x).tolist() == prob.f_values(x[:, None]).tolist() == [prob.f_values([[t]])[0] for t in x]
        for fn in (SinPiProduct(1), Polynomial1D([1.0, -2.0, 0.5]), Exp1D(0.7)):
            assert fn.deriv_values((1,), x).tolist() == fn.deriv_values((1,), x[:, None]).tolist()
            assert fn(x).shape == (3,)
        assert SinPiProduct(2).deriv_values((0, 1), [0.5, 0.25]).shape == (1,)

    def test_coordinate_count_checked(self):
        with pytest.raises(ValueError, match="dimension 2"):
            SinPiProduct(2).deriv_values((0, 0), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="dimension 2"):
            SinPiProduct(2).deriv_values((0, 0), np.zeros((4, 3)))
        for fn in (SinPiProduct(1), Polynomial1D([0.0, 1.0]), Exp1D()):
            with pytest.raises(ValueError, match="dimension 1"):
                fn.deriv_values((0,), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            ModelProblem.sine().f_values(np.zeros((2, 2, 1)))

    def test_boundary_values_vanish(self):
        for prob in (ModelProblem.sine(), ModelProblem.cubic(), QUADRATIC):
            ends = prob.u(np.array([[0.0], [1.0]]))
            assert np.allclose(ends, 0.0, atol=1e-14)


class TestSolver:
    def test_reproduces_cubic_exactly(self):
        # The exact solution lies in the P_3 trial space, so the Galerkin
        # solution matches it to rounding.
        prob = ModelProblem.cubic()
        sol = assemble_and_solve_all(prob, [uniform_mesh_1d(0.0, 1.0, 4)], 3)
        xs = np.linspace(0.0, 1.0, 37)
        got = solution_values(sol, xs)
        want = xs - xs**3
        assert np.max(np.abs(got - want)) < 1e-12

    def test_reproduces_cubic_on_graded_mesh_over_blocks(self):
        # The exact solution lies in P_3: on 300 elements of different
        # lengths the point values are exact to rounding.
        prob = ModelProblem.cubic()
        nodes = np.linspace(0.0, 1.0, 301) ** 2
        mesh = simplex_mesh([one_element_mesh([[a], [b]]) for a, b in zip(nodes[:-1], nodes[1:])])
        sol = assemble_and_solve_all(prob, [mesh], 3)
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(solution_values(sol, xs) - (xs - xs**3))) < 1e-11
        # 2500 elements fill one block of the error rule (degree 2k + 6, 7
        # points) and end in a partial one; an offset slip between blocks
        # would leave an O(1) error in the measured W^{1,2} norm (4.4e-10,
        # the round-off floor of elements down to 1.6e-7).
        mesh = graded_mesh(2500)
        blocks = element_blocks(len(mesh), interval_rule(2 * 3 + 6).size)
        assert len(blocks) == 2 and 0 < blocks[1][1] - blocks[1][0] < blocks[0][1] - blocks[0][0]
        assert error_reports(assemble_and_solve_all(prob, [mesh], 3), prob, 1, 2.0)[0]["error"] < 1e-8

    def test_point_values_match_exact_per_element_route(self):
        # Graded P3 solution evaluated by the solution_values oracle at every
        # node (element boundaries and both end points) and at points inside
        # elements, where it locates the element itself; the reference
        # locates each point by its own element and evaluates the element's
        # polynomial at exact rational barycentric coordinates.
        nodes = np.linspace(0.0, 1.0, 301) ** 2
        mesh = SimplexMesh(vertices=nodes.reshape(-1, 1), connectivity=np.arange(300)[:, None] + np.arange(2))
        sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], 3)
        coefficients = sol.field.coefficients
        xs = np.concatenate([nodes, np.random.default_rng(2).uniform(0.0, 1.0, 300)])
        expected = []
        for x in xs:
            e = min(int(np.sum(nodes[1:-1] <= x)), 299)
            a, b = Fraction(nodes[e]), Fraction(nodes[e + 1])
            t = (Fraction(x) - a) / (b - a)
            value = sum(Fraction(c) * rational_eval(poly, (1 - t, t)) for c, poly in zip(coefficients[e], sol.field.basis.polynomials))
            expected.append(float(value))
        assert np.max(np.abs(solution_values(sol, xs) - np.array(expected))) <= 1e-15

    def test_reproduces_quadratic_exactly(self):
        prob = QUADRATIC
        sol = assemble_and_solve_all(prob, [uniform_mesh_1d(0.0, 1.0, 3)], 2)
        xs = np.linspace(0.0, 1.0, 23)
        assert np.max(np.abs(solution_values(sol, xs) - (xs - xs**2))) < 1e-12

    @pytest.mark.parametrize("ne", [1, 2])
    def test_p1_on_one_or_two_elements(self, ne):
        # No unknown and one unknown: the vertex system is empty or 1 x 1.
        mesh = uniform_mesh_1d(0.0, 1.0, ne)
        sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], 1)
        a, b, sums = element_system(ModelProblem.sine(), mesh, build_basis(1, 1))
        dense, rhs, free = dense_free_system(a, b)
        x = global_coefficients(sol.field.coefficients)
        assert len(free) == ne - 1
        assert np.allclose(x[free], np.linalg.solve(dense, rhs), rtol=1e-15, atol=0)
        assert x[0] == x[ne] == 0.0
        assert sol.residuals[0] < 1e-15 and sol.backward_errors[0] < 1e-15

    def test_residual_reported_and_small(self):
        # 4.8e-14 and 1.7e-16 measured.  The tolerance flags a backward error 100 times
        # the largest a solve has shown, 3e-16.
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 16)], 2)
        assert sol.residuals[0] <= 1e-12 and sol.backward_errors[0] <= BACKWARD_ERROR_TOL < 100 * 3e-16

    def test_solve_memory_is_not_quadratic(self):
        # A dense copy of this 3071-unknown system alone would take 72 MB.
        mesh = uniform_mesh_1d(0.0, 1.0, 1024)
        # Fill the rule and basis caches.
        assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 2)], 3)
        tracemalloc.start()
        try:
            assemble_and_solve_all(ModelProblem.sine(), [mesh], 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_study_memory_is_not_meshes_times_largest(self):
        # Vertex systems padded to the longest of these 41 meshes took 62.9 MB.
        counts = list(range(1, 41)) + [16384]
        convergence_study(ModelProblem.sine(), 1, 0, 2.0, [1, 2])  # fills the rule and basis caches
        tracemalloc.start()
        try:
            convergence_study(ModelProblem.sine(), 1, 0, 2.0, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_backward_error_matches_dense_route(self):
        # Dual route: the uncondensed system assembled densely here, norms by numpy.
        mesh = uniform_mesh_1d(0.0, 1.0, 64)
        a, b, sums = element_system(ModelProblem.sine(), mesh, build_basis(1, 3))
        dense, rhs, free = dense_free_system(a, b)
        x = np.random.default_rng(3).standard_normal(len(free) + 2)
        quality = solve_quality(a, b, x[element_dofs(64, 3)])
        assert quality == pytest.approx(dense_quality(dense, rhs, x[free]), rel=1e-12)
        # The two end values are not unknowns, so they do not enter.
        x[[0, 64]] = 1e3
        assert solve_quality(a, b, x[element_dofs(64, 3)]) == quality
        # On the graded mesh the largest row sum is next to an end vertex.
        ga, gb, _ = element_system(ModelProblem.sine(), graded_mesh(), build_basis(1, 3))
        gdense, grhs, gfree = dense_free_system(ga, gb)
        gx = np.random.default_rng(4).standard_normal(len(gfree) + 2)
        assert solve_quality(ga, gb, gx[element_dofs(300, 3)]) == pytest.approx(dense_quality(gdense, grhs, gx[gfree]), rel=1e-12)

        sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], 3)
        x = global_coefficients(sol.field.coefficients)
        residual, backward = dense_quality(dense, rhs, x[free])
        assert np.allclose(x[free], np.linalg.solve(dense, rhs), rtol=1e-10, atol=1e-14)
        assert sol.backward_errors[0] < 1e-15
        assert sol.backward_errors[0] == pytest.approx(backward, abs=1e-16)
        # Both relative residuals against the exact residual r = A x - b of the same float
        # data.  A row of either route rounds at most 2k + 3 = 9 times (k + 1 element
        # products and their sum, or 2k + 1 row products of the dense matrix, the assembly and
        # the subtraction), so each computed residual is within gamma_9 (|A||x| + |b|) of r,
        # row by row; the two norms and their quotient round by a relative gamma_{ndof + 2}.
        r, scale, load = exact_residual(a, b, x)
        exact = math.sqrt(sum(v * v for v in r) / sum(v * v for v in load))
        slack = gamma(9) * math.sqrt(sum(v * v for v in scale) / sum(v * v for v in load)) + gamma(len(r) + 2) * exact
        assert abs(sol.residuals[0] - exact) <= slack and abs(residual - exact) <= slack

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("graded", [False, True])
    def test_matches_banded_cholesky(self, k, graded):
        # Second route: scipy's banded Cholesky on the position-ordered band
        # built here from the same element matrices.  Both solves are
        # backward stable, so they agree to eps times the condition number.
        from scipy.linalg import eigvals_banded, solveh_banded

        mesh = graded_mesh() if graded else uniform_mesh_1d(0.0, 1.0, 64)
        a, b, sums = element_system(ModelProblem.sine(), mesh, build_basis(1, k))
        ab, load, dof = position_band(a, b)
        want = solveh_banded(ab, load)
        eigs = eigvals_banded(ab)
        cond = eigs.max() / eigs.min()
        sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], k)
        assert np.array_equal(solve_condensed(a, b, sums, [len(mesh)]), sol.field.coefficients)
        x = global_coefficients(sol.field.coefficients)
        assert x[0] == x[len(mesh)] == 0.0
        assert np.max(np.abs(x[dof] - want)) <= np.finfo(float).eps * cond * np.max(np.abs(want))
        assert sol.backward_errors[0] < 1e-15
        # The graded mesh's condition number is large for its diagonal scaling
        # alone; a dense solve of the same system bounds the difference tighter.
        dense, rhs, free = dense_free_system(a, b)
        assert np.max(np.abs(x[free] - np.linalg.solve(dense, rhs))) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("ne,ok", [(256, True), (1024, False)])
    def test_residual_above_tolerance_is_flagged(self, ne, ok):
        # residual_ok reads the normwise backward error.  The relative residual of the P3
        # solve grows like eps times the condition number (5.1e-11 at 256, 4.0e-10 at 1024
        # elements) while its backward error stays near 2e-16, so the solve is not flagged.
        # Where ok is False the solution is moved off by a relative 1e-12, which gives a
        # backward error over 100 times the solve's, and that is flagged.
        mesh = uniform_mesh_1d(0.0, 1.0, ne)
        sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], 3)
        assert sol.backward_errors[0] < 1e-15
        if not ok:
            a, b, _ = element_system(ModelProblem.sine(), mesh, sol.field.basis)
            x = global_coefficients(sol.field.coefficients)
            x = (x * (1 + 1e-12 * np.random.default_rng(ne).standard_normal(len(x))))[element_dofs(ne, 3)]
            residual, backward = solve_quality(a, b, x)
            moved = DiscreteSolution(sol.family, PiecewisePolynomialField(sol.field.basis, x), [residual], [backward])
            assert moved.backward_errors[0] >= 100 * sol.backward_errors[0]
            sol = moved
        rep = error_reports(sol, ModelProblem.sine(), 0, 2.0)[0]
        assert rep["residual_ok"] is ok
        assert rep["residual_ok"] == (rep["backward_error"] <= BACKWARD_ERROR_TOL)
        assert (rep["residual"], rep["backward_error"]) == (sol.residuals[0], sol.backward_errors[0])

    def test_dirichlet_conditions(self):
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 8)], 3)
        assert sol.field.coefficients[0, 0] == sol.field.coefficients[7, 3] == 0.0
        assert solution_values(sol, 0.0)[0] == pytest.approx(0.0, abs=1e-14)
        assert solution_values(sol, 1.0)[0] == pytest.approx(0.0, abs=1e-14)

    def test_continuity_across_interfaces(self):
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 5)], 2)
        for vertex in (0.2, 0.4, 0.6, 0.8):
            left = solution_values(sol, vertex - 1e-12)[0]
            right = solution_values(sol, vertex + 1e-12)[0]
            assert left == pytest.approx(right, abs=1e-9)

    def test_global_numbering(self):
        # The solution is in element layout: each element's nodes left to right, so a vertex
        # value is held by both its elements.  The oracles' global numbering takes the vertices
        # left to right, then the interior node of each element.
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 3)], 2)
        coefficients = sol.field.coefficients
        assert coefficients.shape == (3, 3)
        assert np.array_equal(coefficients[1:, 0], coefficients[:-1, 2])
        dofs = element_dofs(3, 2)
        assert dofs.tolist() == [[0, 4, 1], [1, 5, 2], [2, 6, 3]]
        assert np.array_equal(global_coefficients(coefficients)[dofs], coefficients)

    def test_basis_built_once_per_degree(self, monkeypatch):
        from fem_accuracy import fem1d

        calls = []
        monkeypatch.setattr(fem1d, "build_basis", lambda n, k: calls.append((n, k)) or build_basis(n, k))
        fem1d._interval_basis.cache_clear()
        meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in (4, 8, 16)]
        solutions = [assemble_and_solve_all(ModelProblem.sine(), [mesh], 2) for mesh in meshes]
        assert calls == [(1, 2)]
        assert solutions[0].field.basis is solutions[2].field.basis

    @pytest.mark.parametrize("layout", ["rows reversed", "vertices reversed", "ends swapped"])
    def test_rejects_mesh_that_is_not_a_left_to_right_chain(self, layout):
        # The solve takes element e's ends as vertices e and e + 1.  In chain
        # order P2 on 16 elements has error 3.1e-5; with the rows reversed it
        # used to solve to 8e-2 with a residual of 3e-14, and the other two
        # layouts ended in a Cholesky failure.
        vertices, cells = np.linspace(0.0, 1.0, 17)[:, None], np.arange(16)[:, None] + np.arange(2)
        chain = assemble_and_solve_all(ModelProblem.sine(), [SimplexMesh(vertices, cells)], 2)
        assert error_reports(chain, ModelProblem.sine(), 0, 2.0)[0]["error"] < 1e-4
        if layout == "rows reversed":
            cells = cells[::-1]
        elif layout == "vertices reversed":
            vertices = vertices[::-1]
        else:
            cells = cells[:, ::-1]
        with pytest.raises(ValueError, match="one chain of elements left to right"):
            assemble_and_solve_all(ModelProblem.sine(), [SimplexMesh(vertices, cells)], 2)
        # A batch is checked mesh by mesh: a bad mesh after a good one is refused too.
        with pytest.raises(ValueError, match="one chain of elements left to right"):
            MeshFamily([uniform_mesh_1d(0.0, 1.0, 4), SimplexMesh(vertices, cells)])

    def test_rejects_2d_mesh(self):
        # Refused up front, before any arithmetic on the 2D vertex table.
        with warnings.catch_warnings(), pytest.raises(ValueError, match="restricted to 1D meshes"):
            warnings.simplefilter("error")
            assemble_and_solve_all(ModelProblem.sine(), [structured_mesh_2d(2)], 1)

    def test_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from fem_accuracy.fem1d import ModelProblem, convergence_study\n"
            "convergence_study(ModelProblem.sine(), 3, 1, 2.0, (32, 64))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_pointwise_accuracy_improves_with_degree(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 8)
        xs = np.linspace(0.05, 0.95, 19)
        exact = np.sin(np.pi * xs)
        errs = []
        for k in (1, 2, 3):
            sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], k)
            errs.append(np.max(np.abs(solution_values(sol, xs) - exact)))
        assert errs[0] > errs[1] > errs[2]


class TestSolutionValuesOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_the_field_at_rule_points(self, k):
        # Two routes to u_h: the oracle's barycentric Lagrange formula through
        # the nodal values, and the field's shape-function tables.  Against
        # exact rational values of the same polynomials the oracle is within
        # 9e-16 for k <= 5, while the tables' round-off grows about fourfold
        # per degree: the routes differ by up to 7e-16 for k <= 3, 1.4e-15 at
        # k = 4 and 4.8e-15 at k = 5.
        mesh, rule = graded_mesh(12), interval_rule(2 * k + 6)
        sol = assemble_and_solve_all(ModelProblem.sine(), [mesh], k)
        phys = rule.points @ mesh.element_vertices
        want = sol.field.deriv_block(mesh, 0, len(mesh), (0,), rule, phys)
        got = solution_values(sol, phys[:, :, 0].ravel()).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 1e-14


class TestLinearAlgebra:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 1023])
    def test_cyclic_reduction_matches_dense_solve(self, n):
        # excess_reduction's odd-even reduction, at sizes around its padding to 2^m - 1 unknowns.
        rng = np.random.default_rng(n)
        couplings, excesses, rhs = rng.uniform(0.1, 1.0, max(n - 1, 0)), rng.uniform(0.1, 1.0, n), rng.standard_normal(n)
        x = excess_reduction(couplings, excesses, rhs)
        assert x.shape == (n,)
        if n:
            diag = excesses + np.concatenate([[0.0], couplings]) + np.concatenate([couplings, [0.0]])
            want = np.linalg.solve(np.diag(diag) - np.diag(couplings, 1) - np.diag(couplings, -1), rhs)
            assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "diag,off",
        [
            ([-1.0, 3.0, 3.0], [-0.5, -0.5]),  # a negative diagonal: the first row's excess is negative
            ([2.0, 2.0, 2.0], [-1.9, -1.9]),  # indefinite: the middle row's excess is negative
            ([1.0, 1.0], [-1.0]),  # singular: both excesses are zero
            ([4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, -4.0], [-1.0] * 7),  # the last unknown, before the padding
        ],
    )
    def test_cyclic_reduction_rejects_indefinite(self, diag, off):
        # The tridiagonal matrix (diag, off) as excess_reduction takes it: couplings -off, row sums.
        diag, off = np.array(diag), np.array(off)
        excesses = diag + np.concatenate([[0.0], off]) + np.concatenate([off, [0.0]])
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError):
            warnings.simplefilter("error")
            excess_reduction(-off, excesses, np.ones(len(diag)))

    def test_nonpositive_coupling_rejected(self):
        # Positive definite and with positive row sums, but not an M-matrix.
        with pytest.raises(np.linalg.LinAlgError):
            excess_reduction(np.array([1.0, -1.0]), np.array([3.0, 4.0, 5.0]), np.ones(3))

    def test_one_indefinite_vertex_system_fails_the_batch(self):
        # The interior blocks stay positive definite; only mesh 1's vertex system breaks: once
        # by a coupling of the wrong sign, once by row sums, which stand in for a's vertex
        # diagonal, whose excesses are negative.
        meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in (4, 8, 16)]
        a, b, sums = element_system(ModelProblem.sine(), MeshFamily(meshes).mesh, build_basis(1, 2))
        solve_condensed(a, b, sums, [4, 8, 16])
        coupled, negative = a.copy(), sums.copy()
        coupled[4 + 3, 0, 2] = coupled[4 + 3, 2, 0] = 1e3
        negative[4 + 3] = -1.0
        for broken_a, broken_sums in [(coupled, sums), (a, negative)]:
            with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError):
                warnings.simplefilter("error")
                solve_condensed(broken_a, b, broken_sums, [4, 8, 16])

    def test_indefinite_interior_block_rejected(self):
        a, b, sums = element_system(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 8), build_basis(1, 3))
        solve_condensed(a, b, sums, [8])
        a[5, 1:3, 1:3] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            solve_condensed(a, b, sums, [8])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout,ne", [("uniform", 7), ("uniform", 16), ("graded", 6), ("graded", 10)])
    def test_vertex_values_match_exact_solve(self, k, layout, ne):
        # Second route: the system the solve stands for, from the same float element data,
        # solved exactly in Fractions.  It keeps a's off-diagonal entries and gives each
        # element's diagonal the values that make its rows sum to `sums`, as a's rows sum to
        # h M 1 in exact arithmetic.  Its vertex block is a tridiagonal M-matrix reduced with
        # additions only, so the vertex values stay within 4 (k + 1) eps of the largest one
        # (2.9 eps measured); a subtractive reduction of the same vertex block was up to 650
        # eps off, the eps/h^2 floor.
        mesh = graded_mesh(ne) if layout == "graded" else uniform_mesh_1d(0.0, 1.0, ne)
        a, b, sums = element_system(ModelProblem.sine(), mesh, build_basis(1, k))
        x = global_coefficients(solve_condensed(a, b, sums, [len(mesh)]))
        exact_a = [[[Fraction(v) for v in row] for row in element] for element in a.tolist()]
        for element, row_sums in zip(exact_a, sums.tolist()):
            for i, row in enumerate(element):
                row[i] = Fraction(row_sums[i]) - sum(row[:i] + row[i + 1 :])
        exact_b = np.array([[Fraction(v) for v in row] for row in b.tolist()], dtype=object)
        matrix, load, free = dense_free_system(np.array(exact_a, dtype=object), exact_b)
        order = position_order(len(mesh), k, free)  # banded, for the elimination
        want = dict(zip(free[order].tolist(), exact_solve(matrix[np.ix_(order, order)].tolist(), load[order].tolist())))
        vertices = range(1, len(mesh))
        scale = max(abs(want[v]) for v in vertices)
        worst = max(abs(Fraction(x[v]) - want[v]) for v in vertices)
        assert all(isinstance(v, Fraction) for v in want.values())
        assert worst <= 4 * (k + 1) * Fraction(np.finfo(float).eps) * scale


class TestErrorReport:
    def test_report_structure_and_bound(self):
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 16)], 2)
        rep = error_reports(sol, ModelProblem.sine(), 1, 2.0)[0]
        assert rep["problem"] == "sine"
        assert rep["k"] == 2 and rep["m"] == 1
        assert rep["h"] == pytest.approx(1.0 / 16.0, rel=1e-14)
        assert rep["elements"] == 16
        assert rep["backward_error"] <= BACKWARD_ERROR_TOL
        assert rep["residual_ok"] is True
        assert [s["l"] for s in rep["seminorms"]] == [0, 1]
        assert rep["admissible"] is True
        assert rep["error"] <= rep["bound"]
        assert rep["pass"] is True
        assert 0.0 < rep["bound_position"] <= 1.0

    def test_error_combines_seminorms(self):
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 8)], 1)
        rep = error_reports(sol, ModelProblem.sine(), 1, 2.0)[0]
        via_parts = math.fsum(s["value"] ** 2.0 for s in rep["seminorms"]) ** 0.5
        assert rep["error"] == pytest.approx(via_parts, rel=1e-13)

    def test_inadmissible_reports_no_bound(self):
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 4)], 1)
        rep = error_reports(sol, ModelProblem.sine(), 2, 2.0)[0]
        assert rep["admissible"] is False
        assert rep["bound"] is None
        assert rep["pass"] is None
        assert len(rep["seminorms"]) == 3

    def test_quadrature_estimates_reported(self):
        sol = assemble_and_solve_all(ModelProblem.sine(), [uniform_mesh_1d(0.0, 1.0, 8)], 2)
        rep = error_reports(sol, ModelProblem.sine(), 0, 2.0)[0]
        est = rep["seminorms"][0]["quad_error_estimate"]
        assert est < 1e-8

    @pytest.mark.parametrize(
        "name,k,m,p",
        [
            ("sine", 2, 0, 400.0),  # |u - u_h|^p underflows to 0, |u|^p overflows
            ("sine", 2, 0, 1e300),
            ("sine", 1, 2, 400.0),  # inadmissible: only the error passes
            ("cubic", 3, 0, 20.0),  # round-off errors near 1e-16: subnormal p-th powers
        ],
    )
    def test_powers_beyond_the_floats_raise(self, name, k, m, p):
        problem = getattr(ModelProblem, name)()
        solution = assemble_and_solve_all(problem, [uniform_mesh_1d(0.0, 1.0, ne) for ne in (1, 2, 3, 5, 21)], k)
        with pytest.raises(ValueError, match=re.escape(f"at p = {p:g}:")):
            error_reports(solution, problem, m, p)

    def test_underflow_of_negligible_terms_is_kept(self):
        # On one P1 element u_h = 0 and (u - u_h)' = pi cos(pi x) is 6e-17 at the
        # rule's midpoint: its 20th power underflows, yet the sum is near 1e9.
        problem = ModelProblem.sine()
        sol = assemble_and_solve_all(problem, [uniform_mesh_1d(0.0, 1.0, 1)], 1)
        err = DifferenceField(problem.u, sol.field)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            element_powers(err, sol.family.mesh, 1, 20.0, 2 * 1 + 6)
        fine = math.fsum(element_powers(err, sol.family.mesh, 1, 20.0, 2 * 1 + 6 + ESTIMATE_DEGREE_STEP)[0])
        assert error_reports(sol, problem, 1, 20.0)[0]["seminorms"][1]["value"] == fine ** (1.0 / 20.0)


class TestConvergence:
    @pytest.mark.parametrize(
        "k,m,expected",
        [(1, 0, 2.0), (2, 0, 3.0), (2, 1, 2.0)],
    )
    def test_orders(self, k, m, expected):
        rows, slope = convergence_study(ModelProblem.sine(), k, m, 2.0, [8, 16, 32])
        assert slope == pytest.approx(expected, abs=0.1)
        # Cross-check the reported slope against the oracle fit.
        hs = [r["h"] for r in rows]
        errs = [r["error"] for r in rows]
        assert slope == pytest.approx(loglog_slope(hs, errs), rel=1e-12)

    def test_rows_and_running_estimates(self):
        rows, slope = convergence_study(ModelProblem.sine(), 1, 0, 2.0, [8, 16])
        assert rows[0]["order_est"] is None
        assert rows[1]["order_est"] == pytest.approx(slope, abs=0.05)
        assert all(r["pass"] for r in rows)

    def test_bound_never_violated(self):
        for m in (0, 1):
            rows, _ = convergence_study(ModelProblem.sine(), 2, m, 2.0, [8, 16, 32])
            for r in rows:
                assert r["error"] <= r["bound"], r

    @pytest.mark.parametrize("k,m,p", [(k, m, p) for k in (1, 2, 3) for m in (0, 1) for p in (2.0, 3.0)])
    def test_studies_to_2048_elements_pass(self, k, m, p):
        # The galerkin1d benchmark's studies.  With the vertex system solved by subtraction, 5 of
        # these 12 failed on the vertex round-off floor, with slopes down to 1.5 against 4.
        rows, slope = convergence_study(ModelProblem.sine(), k, m, p, (32, 64, 128, 256, 512, 1024, 2048))
        assert all(r["pass"] for r in rows)
        assert abs(slope - (k + 1 - m)) <= ORDER_TOL
        # Second route: numpy's least-squares fit (LAPACK).
        assert slope == pytest.approx(loglog_slope([r["h"] for r in rows], [r["error"] for r in rows]), rel=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1.0, 3.0, 0.7])
    def test_slope_of_an_exact_power_law(self, s, scale):
        # Errors C h^s are exact at h = 2^-j, so only the logarithms and the sums round.
        hs = [2.0**-j for j in range(5, 12)]
        assert abs(least_squares_order(hs, [scale * h**s for h in hs]) - s) <= 8 * np.finfo(float).eps * s

    def test_zero_errors_give_no_slope(self):
        # u = 0: every error is exactly zero, and log(0) has no slope; order_est's rule.
        zero = ModelProblem(u=Polynomial1D([0.0]), name="zero")
        rows, slope = convergence_study(zero, 2, 1, 2.0, [4, 8, 16])
        assert [r["error"] for r in rows] == [0.0, 0.0, 0.0]
        assert slope is None and [r["order_est"] for r in rows] == [None, None, None]
        assert least_squares_order([0.5, 0.25], [1e-3, 0.0]) is None

    @pytest.mark.parametrize("m", [0, 1])
    def test_cubic_in_p3_stays_below_the_slack(self, m):
        # u = x - x^3 lies in P3, so every error is round-off; it reached 1.4e-10 at 1,024 elements.
        rows, _ = convergence_study(ModelProblem.cubic(), 3, m, 2.0, (8, 64, 256, 1024, 2048))
        assert all(r["error"] < BOUND_ABS_SLACK and r["pass"] for r in rows)

    def test_single_mesh_slope_is_none(self):
        rows, slope = convergence_study(ModelProblem.sine(), 1, 0, 2.0, [8])
        assert slope is None
        assert len(rows) == 1


def per_mesh_reports(problem, meshes, k, m, p, cea_ratio=1.0):
    """The reference route: each mesh solved and measured on its own."""
    return [error_reports(assemble_and_solve_all(problem, [mesh], k), problem, m, p, cea_ratio)[0] for mesh in meshes]


def graded_family():
    """Graded meshes of 4 to 40 elements, one with repeated vertex coordinates."""
    nodes = np.linspace(0.0, 1.0, 13) ** 2
    split = simplex_mesh([one_element_mesh([[a], [b]]) for a, b in zip(nodes[:-1], nodes[1:])])
    return [graded_mesh(4), graded_mesh(8), split, graded_mesh(40)]


def assert_each_mesh_solves_as_alone(batch, problem, k):
    """Each mesh's rows of a batch's coefficients, and its solve quality, have the bits of the mesh solved alone."""
    offsets = batch.family.offsets
    for j, mesh in enumerate(batch.family.meshes):
        alone = assemble_and_solve_all(problem, [mesh], k)
        assert np.array_equal(batch.field.coefficients[offsets[j] : offsets[j + 1]], alone.field.coefficients)
        assert (batch.residuals[j], batch.backward_errors[j]) == (alone.residuals[0], alone.backward_errors[0])


def study_values(rows, slope):
    return [(r["h"], r["error"], r["bound"], r["order_est"], r["pass"]) for r in rows], slope


def per_mesh_study(problem, counts, k, m, p, cea_ratio=1.0):
    """convergence_study's rows and slope from the per-mesh reports."""
    reports = per_mesh_reports(problem, [uniform_mesh_1d(0.0, 1.0, ne) for ne in counts], k, m, p, cea_ratio)
    hs, errors = [r["h"] for r in reports], [r["error"] for r in reports]
    orders = [None] + [math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]) for i in range(1, len(counts))]
    rows = [(r["h"], r["error"], r["bound"], order, r["pass"]) for r, order in zip(reports, orders)]
    return rows, least_squares_order(hs, errors)


class TestBatch:
    """A batch of meshes gives the bits of solving and measuring each alone.

    The solve holds this for any meshes.  The seminorm passes weight each
    element's values by one (elements x points) @ (points,) product, and
    OpenBLAS rounds the last rows of such a product differently when their
    count is not a multiple of 4 (at 8 or more points): a mesh whose elements
    end a block alone but not in its family moves in its last bits (see the
    README).  The bitwise cases use element counts that are multiples of 4;
    the other counts are held to the rounding of those sums.
    """

    CASES = [(k, m, p) for k in (1, 2, 3) for m in range(min(k, 2) + 1) for p in (1.5, 2.0, 3.0)]

    @pytest.mark.parametrize("k,m,p", CASES)
    def test_convergence_study_equals_per_mesh_loop(self, k, m, p):
        counts = [4, 8, 12, 24]
        got = study_values(*convergence_study(ModelProblem.sine(), k, m, p, counts, cea_ratio=1.5))
        assert got == per_mesh_study(ModelProblem.sine(), counts, k, m, p, 1.5)

    @pytest.mark.parametrize("k,m,p", CASES)
    def test_graded_batch_equals_per_mesh_loop(self, k, m, p):
        meshes = graded_family()
        batch = assemble_and_solve_all(QUADRATIC, meshes, k)
        assert_each_mesh_solves_as_alone(batch, QUADRATIC, k)
        assert error_reports(batch, QUADRATIC, m, p) == per_mesh_reports(QUADRATIC, meshes, k, m, p)

    @pytest.mark.parametrize("k,m,p", CASES)
    def test_any_counts_solve_bitwise_and_measure_to_rounding(self, k, m, p):
        counts = [2, 3, 5, 21]
        meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in counts]
        assert_each_mesh_solves_as_alone(assemble_and_solve_all(ModelProblem.sine(), meshes, k), ModelProblem.sine(), k)
        (rows, slope), (want_rows, want_slope) = (
            study_values(*convergence_study(ModelProblem.sine(), k, m, p, counts)),
            per_mesh_study(ModelProblem.sine(), counts, k, m, p),
        )
        # Sums of at most 9 positive products in another order: within
        # 9 eps relative, and their p-th roots within that over p.
        for got, want in zip(rows, want_rows):
            assert got[0] == want[0] and got[4] == want[4]
            assert got[1] == pytest.approx(want[1], rel=9 * np.finfo(float).eps)
            if want[2] is None:
                assert got[2] is None
            else:
                assert got[2] == pytest.approx(want[2], rel=9 * np.finfo(float).eps)
        assert [r[3] for r in rows[1:]] == pytest.approx([r[3] for r in want_rows[1:]], abs=1e-13)
        assert slope == pytest.approx(want_slope, abs=1e-13)

    def test_study_over_several_blocks_equals_per_mesh_loop(self):
        # 4,064 elements: the family's seminorm passes span two blocks.
        counts = [32, 64, 128, 256, 512, 1024, 2048]
        assert len(element_blocks(sum(counts), interval_rule(2 * 3 + 6).size)) > 1
        got = study_values(*convergence_study(ModelProblem.sine(), 3, 1, 2.0, counts))
        assert got == per_mesh_study(ModelProblem.sine(), counts, 3, 1, 2.0)
