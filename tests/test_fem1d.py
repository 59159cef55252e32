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
    RESIDUAL_REL_TOL,
    MeshFamily,
    ModelProblem,
    assemble_and_solve,
    assemble_and_solve_all,
    convergence_study,
    cyclic_reduction,
    element_dofs,
    element_system,
    empirical_crossover,
    error_report,
    error_reports,
    solve_condensed,
    solve_quality,
)
from fem_accuracy.functions import Exp1D, Polynomial1D, SinPiProduct
from fem_accuracy.geometry import Simplex, SimplexMesh, structured_mesh_2d, uniform_mesh_1d
from fem_accuracy.norms import ESTIMATE_DEGREE_STEP, AnalyticField, DifferenceField, element_blocks, element_powers
from fem_accuracy.quadrature import interval_rule

from oracles import loglog_slope, rational_eval, simplex_mesh

# x - x^2 vanishes at both ends and lies in P_2.
QUADRATIC = ModelProblem(u=Polynomial1D([0.0, 1.0, -1.0]), name="quadratic")


def graded_mesh(count=300):
    """Elements between the squares of a uniform grid: 300 have lengths from 1.1e-5 to 6.6e-3."""
    nodes = np.linspace(0.0, 1.0, count + 1) ** 2
    return SimplexMesh(vertices=nodes.reshape(-1, 1), connectivity=np.arange(count)[:, None] + np.arange(2))


def dense_free_system(a, b):
    """The uncondensed system on the free dofs, assembled densely from the element matrices.

    Returns (matrix, load, free): free holds the global dof of each unknown,
    all dofs but the two end vertices, in global order.
    """
    ne, k = a.shape[0], a.shape[1] - 1
    dofs = element_dofs(ne, k)
    ndof = ne * k + 1
    matrix, load = np.zeros((ndof, ndof)), np.zeros(ndof)
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


def position_band(a, b):
    """Upper band storage ab[k + i - j, j] = A[i, j] of the free system in position order.

    Local node c of element e sits at position e k + c, so the matrix has
    half-bandwidth k.  Returns (ab, load, dof) with dof the global dof of
    each unknown.
    """
    ne, k = a.shape[0], a.shape[1] - 1
    matrix, load, free = dense_free_system(a, b)
    position = np.empty(ne * k + 1)
    position[element_dofs(ne, k)] = np.arange(ne)[:, None] * k + np.arange(k + 1)
    order = np.argsort(position[free])
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
        sol = assemble_and_solve(prob, uniform_mesh_1d(0.0, 1.0, 4), 3)
        xs = np.linspace(0.0, 1.0, 37)
        got = sol(xs)
        want = xs - xs**3
        assert np.max(np.abs(got - want)) < 1e-12

    def test_reproduces_cubic_on_graded_mesh_over_blocks(self):
        # The exact solution lies in P_3: on 300 elements of different
        # lengths the point values are exact to rounding.
        prob = ModelProblem.cubic()
        nodes = np.linspace(0.0, 1.0, 301) ** 2
        mesh = simplex_mesh([Simplex([[a], [b]]) for a, b in zip(nodes[:-1], nodes[1:])])
        sol = assemble_and_solve(prob, mesh, 3)
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(sol(xs) - (xs - xs**3))) < 1e-11
        # 2500 elements fill one block of the error rule (degree 2k + 6, 7
        # points) and end in a partial one; an offset slip between blocks
        # would leave an O(1) error in the measured W^{1,2} norm (4.4e-10,
        # the round-off floor of elements down to 1.6e-7).
        mesh = graded_mesh(2500)
        blocks = element_blocks(len(mesh), interval_rule(2 * 3 + 6).size)
        assert len(blocks) == 2 and 0 < blocks[1][1] - blocks[1][0] < blocks[0][1] - blocks[0][0]
        assert error_report(assemble_and_solve(prob, mesh, 3), prob, 1, 2.0)["error"] < 1e-8

    def test_point_values_match_exact_per_element_route(self):
        # Graded P3 solution evaluated at every node (element boundaries and
        # both end points) and at points inside elements; the reference
        # locates each point by its own element and evaluates the element's
        # polynomial at exact rational barycentric coordinates.
        nodes = np.linspace(0.0, 1.0, 301) ** 2
        mesh = SimplexMesh(vertices=nodes.reshape(-1, 1), connectivity=np.arange(300)[:, None] + np.arange(2))
        sol = assemble_and_solve(ModelProblem.sine(), mesh, 3)
        coefficients = sol.as_field().coefficients
        xs = np.concatenate([nodes, np.random.default_rng(2).uniform(0.0, 1.0, 300)])
        expected = []
        for x in xs:
            e = min(int(np.sum(nodes[1:-1] <= x)), 299)
            a, b = Fraction(nodes[e]), Fraction(nodes[e + 1])
            t = (Fraction(x) - a) / (b - a)
            value = sum(Fraction(c) * rational_eval(poly, (1 - t, t)) for c, poly in zip(coefficients[e], sol.basis.polynomials))
            expected.append(float(value))
        assert np.max(np.abs(sol(xs) - np.array(expected))) <= 1e-15

    def test_reproduces_quadratic_exactly(self):
        prob = QUADRATIC
        sol = assemble_and_solve(prob, uniform_mesh_1d(0.0, 1.0, 3), 2)
        xs = np.linspace(0.0, 1.0, 23)
        assert np.max(np.abs(sol(xs) - (xs - xs**2))) < 1e-12

    @pytest.mark.parametrize("ne", [1, 2])
    def test_p1_on_one_or_two_elements(self, ne):
        # No unknown and one unknown: the vertex system is empty or 1 x 1.
        mesh = uniform_mesh_1d(0.0, 1.0, ne)
        sol = assemble_and_solve(ModelProblem.sine(), mesh, 1)
        a, b = element_system(ModelProblem.sine(), mesh, build_basis(1, 1))
        dense, rhs, free = dense_free_system(a, b)
        assert len(free) == ne - 1
        assert np.allclose(sol.coefficients[free], np.linalg.solve(dense, rhs), rtol=1e-15, atol=0)
        assert sol.coefficients[0] == sol.coefficients[ne] == 0.0
        assert sol.residual < 1e-15 and sol.backward_error < 1e-15

    def test_residual_reported_and_small(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 16), 2)
        assert sol.residual <= RESIDUAL_REL_TOL

    def test_solve_memory_is_not_quadratic(self):
        # A dense copy of this 3071-unknown system alone would take 72 MB.
        mesh = uniform_mesh_1d(0.0, 1.0, 1024)
        assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 2), 3)  # fills the rule and basis caches
        tracemalloc.start()
        try:
            assemble_and_solve(ModelProblem.sine(), mesh, 3)
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
        a, b = element_system(ModelProblem.sine(), mesh, build_basis(1, 3))
        dense, rhs, free = dense_free_system(a, b)
        x = np.random.default_rng(3).standard_normal(len(free) + 2)
        quality = solve_quality(a, b, x)
        assert quality == pytest.approx(dense_quality(dense, rhs, x[free]), rel=1e-12)
        # The two end values are not unknowns, so they do not enter.
        x[[0, 64]] = 1e3
        assert solve_quality(a, b, x) == quality
        # On the graded mesh the largest row sum is next to an end vertex.
        ga, gb = element_system(ModelProblem.sine(), graded_mesh(), build_basis(1, 3))
        gdense, grhs, gfree = dense_free_system(ga, gb)
        gx = np.random.default_rng(4).standard_normal(len(gfree) + 2)
        assert solve_quality(ga, gb, gx) == pytest.approx(dense_quality(gdense, grhs, gx[gfree]), rel=1e-12)

        sol = assemble_and_solve(ModelProblem.sine(), mesh, 3)
        residual, backward = dense_quality(dense, rhs, sol.coefficients[free])
        assert np.allclose(sol.coefficients[free], np.linalg.solve(dense, rhs), rtol=1e-10, atol=1e-14)
        assert sol.backward_error < 1e-15
        assert sol.backward_error == pytest.approx(backward, abs=1e-16)
        assert sol.residual == pytest.approx(residual, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("graded", [False, True])
    def test_matches_banded_cholesky(self, k, graded):
        # Second route: scipy's banded Cholesky on the position-ordered band
        # built here from the same element matrices.  Both solves are
        # backward stable, so they agree to eps times the condition number.
        from scipy.linalg import eigvals_banded, solveh_banded

        mesh = graded_mesh() if graded else uniform_mesh_1d(0.0, 1.0, 64)
        a, b = element_system(ModelProblem.sine(), mesh, build_basis(1, k))
        ab, load, dof = position_band(a, b)
        want = solveh_banded(ab, load)
        eigs = eigvals_banded(ab)
        cond = eigs.max() / eigs.min()
        sol = assemble_and_solve(ModelProblem.sine(), mesh, k)
        assert np.array_equal(solve_condensed(a, b, [len(mesh)])[0], sol.coefficients)
        assert sol.coefficients[0] == sol.coefficients[len(mesh)] == 0.0
        assert np.max(np.abs(sol.coefficients[dof] - want)) <= np.finfo(float).eps * cond * np.max(np.abs(want))
        assert sol.backward_error < 1e-15
        # The graded mesh's condition number is large for its diagonal scaling
        # alone; a dense solve of the same system bounds the difference tighter.
        dense, rhs, free = dense_free_system(a, b)
        assert np.max(np.abs(sol.coefficients[free] - np.linalg.solve(dense, rhs))) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("ne,ok", [(256, True), (1024, False)])
    def test_residual_above_tolerance_is_flagged(self, ne, ok):
        # The P3 residual grows with the mesh: 2.5e-11 at 256, 4.3e-10 at 1024 elements.
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, ne), 3)
        rep = error_report(sol, ModelProblem.sine(), 0, 2.0)
        assert rep["residual_ok"] is ok
        assert rep["residual_ok"] == (rep["residual"] <= RESIDUAL_REL_TOL)
        assert rep["backward_error"] == sol.backward_error < 1e-15

    def test_dirichlet_conditions(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 8), 3)
        assert sol.coefficients[0] == 0.0
        assert sol.coefficients[8] == 0.0
        assert sol(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-14)
        assert sol(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_continuity_across_interfaces(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 5), 2)
        for vertex in (0.2, 0.4, 0.6, 0.8):
            left = sol(np.array([vertex - 1e-12]))[0]
            right = sol(np.array([vertex + 1e-12]))[0]
            assert left == pytest.approx(right, abs=1e-9)

    def test_global_numbering(self):
        # Vertices left to right, then the interior node of each element.
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 3), 2)
        dofs = element_dofs(3, 2)
        assert dofs.tolist() == [[0, 4, 1], [1, 5, 2], [2, 6, 3]]
        assert np.array_equal(sol.as_field().coefficients, sol.coefficients[dofs])

    def test_basis_built_once_per_degree(self, monkeypatch):
        from fem_accuracy import fem1d

        calls = []
        monkeypatch.setattr(fem1d, "build_basis", lambda n, k: calls.append((n, k)) or build_basis(n, k))
        fem1d._interval_basis.cache_clear()
        solutions = [assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, ne), 2) for ne in (4, 8, 16)]
        assert calls == [(1, 2)]
        assert solutions[0].basis is solutions[2].basis

    @pytest.mark.parametrize("layout", ["rows reversed", "vertices reversed", "ends swapped"])
    def test_rejects_mesh_that_is_not_a_left_to_right_chain(self, layout):
        # The solve numbers element e's ends as dofs e and e + 1.  In chain
        # order P2 on 16 elements has error 3.1e-5; with the rows reversed it
        # used to solve to 8e-2 with a residual of 3e-14, and the other two
        # layouts ended in a Cholesky failure.
        vertices, cells = np.linspace(0.0, 1.0, 17)[:, None], np.arange(16)[:, None] + np.arange(2)
        chain = assemble_and_solve(ModelProblem.sine(), SimplexMesh(vertices, cells), 2)
        assert error_report(chain, ModelProblem.sine(), 0, 2.0)["error"] < 1e-4
        if layout == "rows reversed":
            cells = cells[::-1]
        elif layout == "vertices reversed":
            vertices = vertices[::-1]
        else:
            cells = cells[:, ::-1]
        with pytest.raises(ValueError, match="one chain of elements left to right"):
            assemble_and_solve(ModelProblem.sine(), SimplexMesh(vertices, cells), 2)
        # A batch is checked mesh by mesh: a bad mesh after a good one is refused too.
        with pytest.raises(ValueError, match="one chain of elements left to right"):
            MeshFamily([uniform_mesh_1d(0.0, 1.0, 4), SimplexMesh(vertices, cells)])

    def test_rejects_2d_mesh(self):
        # Refused up front, before any arithmetic on the 2D vertex table.
        with warnings.catch_warnings(), pytest.raises(ValueError, match="restricted to 1D meshes"):
            warnings.simplefilter("error")
            assemble_and_solve(ModelProblem.sine(), structured_mesh_2d(2), 1)

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
            sol = assemble_and_solve(ModelProblem.sine(), mesh, k)
            errs.append(np.max(np.abs(sol(xs) - exact)))
        assert errs[0] > errs[1] > errs[2]


class TestLinearAlgebra:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 1023])
    def test_cyclic_reduction_matches_dense_solve(self, n):
        # Sizes around the padding to 2^m - 1 unknowns.
        rng = np.random.default_rng(n)
        diag, off, rhs = 2.5 + rng.random(n), rng.uniform(-1.0, 1.0, max(n - 1, 0)), rng.standard_normal(n)
        x = cyclic_reduction(diag, off, rhs)
        assert x.shape == (n,)
        if n:
            want = np.linalg.solve(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), rhs)
            assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "diag,off",
        [
            ([-1.0, 3.0, 3.0], [0.5, 0.5]),  # a negative pivot on the first level
            ([2.0, 2.0, 2.0], [1.9, 1.9]),  # the reduced pivot is negative
            ([1.0, 1.0], [1.0]),  # singular: the reduced pivot is zero
            ([4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, -4.0], [1.0] * 7),  # the last unknown, after padding
        ],
    )
    def test_cyclic_reduction_rejects_indefinite(self, diag, off):
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError):
            warnings.simplefilter("error")
            cyclic_reduction(np.array(diag), np.array(off), np.ones(len(diag)))

    def test_one_indefinite_vertex_system_fails_the_batch(self):
        # The interior blocks stay positive definite; only mesh 1's vertex system is not.
        meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in (4, 8, 16)]
        a, b = element_system(ModelProblem.sine(), MeshFamily(meshes).mesh, build_basis(1, 2))
        solve_condensed(a, b, [4, 8, 16])
        a[4 + 3, 0, 0] = -1e3
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError):
            warnings.simplefilter("error")
            solve_condensed(a, b, [4, 8, 16])

    def test_indefinite_interior_block_rejected(self):
        a, b = element_system(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 8), build_basis(1, 3))
        solve_condensed(a, b, [8])
        a[5, 1:3, 1:3] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            solve_condensed(a, b, [8])


class TestErrorReport:
    def test_report_structure_and_bound(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 16), 2)
        rep = error_report(sol, ModelProblem.sine(), 1, 2.0)
        assert rep["problem"] == "sine"
        assert rep["k"] == 2 and rep["m"] == 1
        assert rep["h"] == pytest.approx(1.0 / 16.0, rel=1e-14)
        assert rep["elements"] == 16
        assert rep["residual"] <= RESIDUAL_REL_TOL
        assert rep["residual_ok"] is True
        assert [s["l"] for s in rep["seminorms"]] == [0, 1]
        assert rep["admissible"] is True
        assert rep["error"] <= rep["bound"]
        assert rep["pass"] is True
        assert 0.0 < rep["bound_position"] <= 1.0

    def test_error_combines_seminorms(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 8), 1)
        rep = error_report(sol, ModelProblem.sine(), 1, 2.0)
        via_parts = math.fsum(s["value"] ** 2.0 for s in rep["seminorms"]) ** 0.5
        assert rep["error"] == pytest.approx(via_parts, rel=1e-13)

    def test_inadmissible_reports_no_bound(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 4), 1)
        rep = error_report(sol, ModelProblem.sine(), 2, 2.0)
        assert rep["admissible"] is False
        assert rep["bound"] is None
        assert rep["pass"] is None
        assert len(rep["seminorms"]) == 3

    def test_quadrature_estimates_reported(self):
        sol = assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 8), 2)
        rep = error_report(sol, ModelProblem.sine(), 0, 2.0)
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
        solutions = assemble_and_solve_all(problem, [uniform_mesh_1d(0.0, 1.0, ne) for ne in (1, 2, 3, 5, 21)], k)
        with pytest.raises(ValueError, match=re.escape(f"at p = {p:g}:")):
            error_reports(solutions, problem, m, p)

    def test_underflow_of_negligible_terms_is_kept(self):
        # On one P1 element u_h = 0 and (u - u_h)' = pi cos(pi x) is 6e-17 at the
        # rule's midpoint: its 20th power underflows, yet the sum is near 1e9.
        problem, sol = ModelProblem.sine(), assemble_and_solve(ModelProblem.sine(), uniform_mesh_1d(0.0, 1.0, 1), 1)
        err = DifferenceField(AnalyticField(problem.u), sol.as_field())
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            element_powers(err, sol.mesh, 1, 20.0, 2 * 1 + 6)
        fine = math.fsum(element_powers(err, sol.mesh, 1, 20.0, 2 * 1 + 6 + ESTIMATE_DEGREE_STEP)[0])
        assert error_report(sol, problem, 1, 20.0)["seminorms"][1]["value"] == fine ** (1.0 / 20.0)


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

    def test_single_mesh_slope_is_none(self):
        rows, slope = convergence_study(ModelProblem.sine(), 1, 0, 2.0, [8])
        assert slope is None
        assert len(rows) == 1


class TestEmpiricalCrossover:
    def test_sine_pair_model_value(self):
        rows = empirical_crossover(ModelProblem.sine(), 1, 2, 0, 2.0, [8, 16])
        # Measured seminorm ratio is 1/pi, so the crossing sits at (20/9)/pi.
        assert rows[0]["h_star_model"] == pytest.approx((20.0 / 9.0) / math.pi, rel=1e-6)
        for row in rows:
            assert row["higher_wins"] is True
            assert 0.0 <= row["probability_model"] <= 1.0
            assert row["error_k2"] <= row["error_k1"]

    def test_explicit_ratio_bypasses_measurement(self):
        rows = empirical_crossover(
            ModelProblem.sine(), 1, 2, 0, 2.0, [8], seminorm_ratio=1.0 / math.pi
        )
        assert rows[0]["h_star_model"] == pytest.approx((20.0 / 9.0) / math.pi, rel=1e-12)

    def test_probability_reflects_fine_mesh(self):
        rows = empirical_crossover(ModelProblem.sine(), 1, 3, 0, 2.0, [32])
        assert rows[0]["probability_model"] > 0.9


def per_mesh_reports(problem, meshes, k, m, p, cea_ratio=1.0):
    """The reference route: each mesh solved and measured on its own."""
    return [error_report(assemble_and_solve(problem, mesh, k), problem, m, p, cea_ratio) for mesh in meshes]


def graded_family():
    """Graded meshes of 4 to 40 elements, one with repeated vertex coordinates."""
    nodes = np.linspace(0.0, 1.0, 13) ** 2
    split = simplex_mesh([Simplex([[a], [b]]) for a, b in zip(nodes[:-1], nodes[1:])])
    return [graded_mesh(4), graded_mesh(8), split, graded_mesh(40)]


def study_values(rows, slope):
    return [(r["h"], r["error"], r["bound"], r["order_est"], r["pass"]) for r in rows], slope


def per_mesh_study(problem, counts, k, m, p, cea_ratio=1.0):
    """convergence_study's rows and slope from the per-mesh reports."""
    reports = per_mesh_reports(problem, [uniform_mesh_1d(0.0, 1.0, ne) for ne in counts], k, m, p, cea_ratio)
    hs, errors = [r["h"] for r in reports], [r["error"] for r in reports]
    orders = [None] + [math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]) for i in range(1, len(counts))]
    rows = [(r["h"], r["error"], r["bound"], order, r["pass"]) for r, order in zip(reports, orders)]
    return rows, float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


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
        solutions = assemble_and_solve_all(QUADRATIC, meshes, k)
        alone = [assemble_and_solve(QUADRATIC, mesh, k) for mesh in meshes]
        for batched, single in zip(solutions, alone):
            assert np.array_equal(batched.coefficients, single.coefficients)
            assert (batched.residual, batched.backward_error) == (single.residual, single.backward_error)
        assert error_reports(solutions, QUADRATIC, m, p) == per_mesh_reports(QUADRATIC, meshes, k, m, p)

    @pytest.mark.parametrize("k,m,p", CASES)
    def test_any_counts_solve_bitwise_and_measure_to_rounding(self, k, m, p):
        counts = [2, 3, 5, 21]
        meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in counts]
        alone = [assemble_and_solve(ModelProblem.sine(), mesh, k) for mesh in meshes]
        for batched, single in zip(assemble_and_solve_all(ModelProblem.sine(), meshes, k), alone):
            assert np.array_equal(batched.coefficients, single.coefficients)
            assert (batched.residual, batched.backward_error) == (single.residual, single.backward_error)
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

    def test_report_of_one_solution_from_a_batch(self):
        solutions = assemble_and_solve_all(ModelProblem.sine(), graded_family(), 2)
        problem = ModelProblem.sine()
        assert error_report(solutions[2], problem, 1, 2.0) == error_reports(solutions, problem, 1, 2.0)[2]
        with pytest.raises(ValueError, match="one degree"):
            error_reports([solutions[0], assemble_and_solve(problem, solutions[1].mesh, 3)], problem, 0, 2.0)

    @pytest.mark.parametrize("k1,k2,m,p", [(1, 2, 0, 2.0), (1, 3, 1, 1.5), (2, 3, 0, 3.0)])
    def test_empirical_crossover_equals_per_mesh_loop(self, k1, k2, m, p):
        counts = [4, 8, 16]
        rows = empirical_crossover(ModelProblem.sine(), k1, k2, m, p, counts)
        meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in counts]
        e1, e2 = ([r["error"] for r in per_mesh_reports(ModelProblem.sine(), meshes, k, m, p)] for k in (k1, k2))
        assert [(r["h"], r["error_k1"], r["error_k2"]) for r in rows] == list(zip([mesh.h for mesh in meshes], e1, e2))
