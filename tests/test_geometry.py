import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from fem_accuracy.basis import build_basis
from fem_accuracy.fem1d import ModelProblem, convergence_study
from fem_accuracy.functions import SinPiProduct
from fem_accuracy import geometry
from fem_accuracy.geometry import (
    DegenerateSimplexError,
    SimplexMesh,
    reference_simplex,
    simplex_geometry,
    structured_mesh_2d,
    uniform_mesh_1d,
)
from fem_accuracy.norms import element_blocks, interpolation_error
from fem_accuracy.quadrature import simplex_rule

from oracles import barycentric, gradient_max, interval_geometry, one_element_mesh, simplex_mesh, size_and_regularity

COORD_TOL = 1e-12


class TestSimplex:
    def test_reference_interval(self):
        s = reference_simplex(1)
        assert s.n == 1
        assert s.element_measures[0] == pytest.approx(1.0, abs=COORD_TOL)
        assert size_and_regularity(s)[0] == pytest.approx(1.0, abs=COORD_TOL)

    def test_reference_triangle(self):
        s = reference_simplex(2)
        assert s.element_measures[0] == pytest.approx(0.5, abs=COORD_TOL)
        assert size_and_regularity(s)[0] == pytest.approx(math.sqrt(2.0), abs=COORD_TOL)

    def test_barycentric_vertices_and_centroid(self):
        s = one_element_mesh([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        for q in range(3):
            lam = barycentric(s, s.vertices[q])
            expected = np.zeros(3)
            expected[q] = 1.0
            assert np.allclose(lam, expected, atol=COORD_TOL)
        centroid = s.vertices.mean(axis=0)
        assert np.allclose(barycentric(s, centroid), [1 / 3] * 3, atol=COORD_TOL)

    def test_barycentric_physical_round_trip(self):
        s = one_element_mesh([[0.1, -0.3], [1.5, 0.2], [0.4, 2.0]])
        lam = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]])
        back = barycentric(s, lam @ s.vertices)
        assert np.allclose(back, lam, atol=1e-12)

    def test_gradients_rows_sum_to_zero(self):
        s = one_element_mesh([[0.0, 0.0], [1.3, 0.1], [0.2, 0.9]])
        g = s.element_gradients[0]
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_gradient_scaling_interval(self):
        # lambda varies by one across the element, so the gradient is 1/h.
        for h in (0.25, 1.0, 3.0):
            s = one_element_mesh([[0.0], [h]])
            assert gradient_max(s) == pytest.approx(1.0 / h, rel=1e-13)

    def test_gradient_scaling_triangle(self):
        base = one_element_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        scaled = one_element_mesh([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        assert gradient_max(scaled) == pytest.approx(10.0 * gradient_max(base), rel=1e-12)

    def test_inscribed_diameter_interval(self):
        assert one_element_mesh([[1.0], [3.5]]).element_inscribed[0] == pytest.approx(2.5, rel=1e-13)

    def test_inscribed_diameter_right_triangle(self):
        s = one_element_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert s.element_inscribed[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)

    def test_inscribed_diameter_equilateral(self):
        s = one_element_mesh([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        assert s.element_inscribed[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_inscribed_diameter_tetrahedron(self):
        # Regular tetrahedron with edge a: inradius a / (2 sqrt(6)).
        a = 1.0
        s = one_element_mesh(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.5, math.sqrt(3.0) / 2.0, 0.0],
                [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
            ]
        )
        assert s.element_inscribed[0] == pytest.approx(a / math.sqrt(6.0), rel=1e-10)

    def test_degenerate_rejected(self):
        # The constructor only checks the table; the geometry, built on first
        # use, names the one element.
        for vertices in ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[0.5], [0.5]]):
            with pytest.raises(DegenerateSimplexError, match="at element 0"):
                one_element_mesh(vertices).element_measures
        with pytest.raises(DegenerateSimplexError, match="degenerate 3-simplex at element 0"):
            SimplexMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [[0, 1, 2, 3]]).element_measures

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SimplexMesh([[0.0, 0.0], [1.0, 0.0]], [[0, 1]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_the_one_element_mesh(self, n):
        s = reference_simplex(n)
        assert len(s) == 1 and s.connectivity.tolist() == [list(range(n + 1))]
        assert s.vertices.tolist() == np.vstack([np.zeros((1, n)), np.eye(n)]).tolist()
        assert len(s.simplices) == 1 and s.simplices[0].vertices.tolist() == s.vertices.tolist()
        assert s.simplices[0].connectivity.tolist() == s.connectivity.tolist()


@seed(20240817)
@given(
    st.lists(st.floats(-5, 5), min_size=6, max_size=6),
    st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_barycentric_partition_property(coords, raw):
    verts = np.array(coords).reshape(3, 2)
    s = one_element_mesh(verts)
    try:
        s.element_measures
    except DegenerateSimplexError:
        return
    lam = np.array(raw) / sum(raw)
    x = lam @ s.vertices
    lam_back = barycentric(s, x)
    assert abs(lam_back.sum() - 1.0) < 1e-9
    assert np.allclose(lam_back, lam, atol=1e-7 * max(1.0, gradient_max(s)))


class TestMesh:
    def test_uniform_1d(self):
        mesh = uniform_mesh_1d(0.0, 1.0, 7)
        assert len(mesh) == 7
        h, sigma = size_and_regularity(mesh)
        assert h == pytest.approx(1.0 / 7.0, rel=1e-13)
        assert sigma == pytest.approx(1.0, rel=1e-13)
        assert math.fsum(mesh.element_measures) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_1d_validation(self):
        with pytest.raises(ValueError):
            uniform_mesh_1d(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            uniform_mesh_1d(1.0, 0.0, 4)

    def test_element_arrays_stack_simplices_on_first_use(self):
        mesh = structured_mesh_2d(3)
        assert not {"element_vertices", "element_gradients", "element_measures"} & set(vars(mesh))
        assert mesh.element_vertices.shape == mesh.element_gradients.shape == (18, 3, 2)
        for e, s in enumerate(mesh.simplices):
            assert np.array_equal(mesh.element_vertices[e], s.vertices)
            assert np.array_equal(mesh.element_gradients[e], s.element_gradients[0])
            assert mesh.element_measures[e] == s.element_measures[0]
        assert mesh.element_gradients is mesh.element_gradients
        assert not mesh.element_measures.flags.writeable

    @pytest.mark.parametrize("per_side", [1, 2, 4])
    def test_structured_2d(self, per_side):
        mesh = structured_mesh_2d(per_side)
        assert len(mesh) == 2 * per_side**2
        assert math.fsum(mesh.element_measures) == pytest.approx(1.0, rel=1e-12)
        h, sigma = size_and_regularity(mesh)
        assert h == pytest.approx(math.sqrt(2.0) / per_side, rel=1e-12)
        # Right isoceles triangles have h/rho = 1 + sqrt(2) at any scale.
        assert sigma == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_mesh_measure_additivity(self):
        mesh = structured_mesh_2d(3)
        assert math.fsum(mesh.element_measures) == pytest.approx(1.0, abs=1e-13)

    def test_gradient_max_tracks_refinement(self):
        coarse = uniform_mesh_1d(0.0, 1.0, 4)
        fine = uniform_mesh_1d(0.0, 1.0, 16)
        assert gradient_max(fine) == pytest.approx(4.0 * gradient_max(coarse), rel=1e-12)

    def test_table_of_one_cell(self):
        mesh = structured_mesh_2d(1)
        assert mesh.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        assert mesh.connectivity.tolist() == [[0, 1, 2], [1, 3, 2]]
        assert size_and_regularity(mesh) == (1.4142135623730951, 2.4142135623730954)
        assert not mesh.vertices.flags.writeable and not mesh.connectivity.flags.writeable

    def test_degenerate_table_element_named(self):
        mesh = SimplexMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], [[0, 1, 2], [0, 1, 3]])
        with pytest.raises(DegenerateSimplexError, match="element 1"):
            mesh.element_measures

    def test_degenerate_table_rejected_at_load(self):
        # The constructor only checks the table; the geometry, built on first
        # use, names the zero-length interval.
        mesh = SimplexMesh([[0.0], [0.5], [0.5], [1.0]], [[0, 1], [1, 2], [2, 3]])
        with pytest.raises(DegenerateSimplexError, match="element 1"):
            mesh.element_measures

    @pytest.mark.parametrize(
        "connectivity",
        [[[0, 1], [1, 2]], [[0, 1, 2], [1, 2]], [[0, 1, 2], [1, 2, 3]], [[0, 1, 2], [-1, 1, 2]], []],
        ids=["interval-in-plane", "ragged", "missing-vertex", "negative-index", "empty"],
    )
    def test_bad_table_rejected(self, connectivity):
        with pytest.raises(ValueError):
            SimplexMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], connectivity)


def jittered_table_2d(per_side, seed):
    """Vertex table and connectivity of structured_mesh_2d with interior vertices moved."""
    mesh = structured_mesh_2d(per_side)
    verts = mesh.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += np.random.default_rng(seed).uniform(-0.2, 0.2, (interior.sum(), 2)) / per_side
    return verts, mesh.connectivity.tolist()


def graded_table_1d(count):
    nodes = np.linspace(0.0, 1.0, count + 1) ** 2
    return nodes.reshape(-1, 1), [[e, e + 1] for e in range(count)]


def kuhn_table_3d(seed):
    """The six tetrahedra of the Kuhn split of a unit cube with moved corners."""
    corners = np.array([[x, y, z] for z in (0.0, 1.0) for y in (0.0, 1.0) for x in (0.0, 1.0)])
    corners += np.random.default_rng(seed).uniform(-0.1, 0.1, corners.shape)
    tets = [[0, 1, 3, 7], [0, 1, 5, 7], [0, 2, 3, 7], [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 6, 7]]
    return corners, tets


def loop_geometry(v):
    """One simplex at a time, as the per-element code computed it: measure,
    diameter, barycentric gradients and inscribed diameter."""
    n = v.shape[1]
    measure = abs(float(np.linalg.det(v[1:] - v[0]))) / math.factorial(n)
    diff = v[:, None, :] - v[None, :, :]
    diameter = float(np.sqrt((diff * diff).sum(axis=2)).max())
    aug = np.empty((n + 1, n + 1))
    aug[0, :] = 1.0
    aug[1:, :] = v.T
    return measure, diameter, np.linalg.inv(aug)[:, 1:], 2.0 * n * measure / math.fsum(loop_facets(v))


def loop_facets(v):
    """Facet measures of one simplex, facet q omitting vertex q."""
    n = v.shape[1]
    facets = []
    for q in range(n + 1):
        pts = np.delete(v, q, axis=0)
        edges = pts[1:] - pts[0]
        facets.append(math.sqrt(max(float(np.linalg.det(edges @ edges.T)), 0.0)) / math.factorial(n - 1))
    return facets


def awkward_table(n, seed, count=300):
    """Random n-simplices, slivers (one vertex near the centroid of the others)
    and needles (n vertices in a tiny cluster, one far), each scaled by a
    factor between 1e-6 and 1e6 and shifted as far."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, (count, n + 1, n))
    third = count // 3
    v[third : 2 * third, n] = v[third : 2 * third, :n].mean(axis=1) + 1e-4 * rng.uniform(-1.0, 1.0, (third, n))
    v[2 * third :, 1:n] = v[2 * third :, :1] + 1e-4 * rng.uniform(-1.0, 1.0, (count - 2 * third, n - 1, n))
    scale = 10.0 ** rng.uniform(-6.0, 6.0, (count, 1, 1))
    v = (v + rng.uniform(-1.0, 1.0, (count, 1, n))) * scale
    return v.reshape(-1, n), np.arange(count * (n + 1)).reshape(count, n + 1)


class TestFacetSums:
    @staticmethod
    def count_fsum(monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(geometry.math, "fsum", lambda values: calls.append(1) or fsum(values))
        return calls

    @pytest.mark.parametrize(
        "table",
        [awkward_table(2, seed=1), awkward_table(3, seed=2), jittered_table_2d(12, seed=3)],
        ids=["awkward-2d", "awkward-3d", "jittered-2d"],
    )
    def test_inscribed_diameters_match_fsum_route_bitwise(self, table, monkeypatch):
        verts, conn = table
        vertices = np.asarray(verts)[np.asarray(conn)]
        loops = [loop_geometry(v) for v in vertices]
        # The plain left-to-right facet sum is not correctly rounded on some
        # rows, so a route summing without fsum would fail here.
        facets = [loop_facets(v) for v in vertices]
        assert any(sum(f) != math.fsum(f) for f in facets)
        calls = self.count_fsum(monkeypatch)
        inscribed = simplex_geometry(vertices)[3]
        assert len(calls) == len(vertices)
        assert inscribed.tolist() == [loop[3] for loop in loops]
        mesh = SimplexMesh(verts, conn)
        assert size_and_regularity(mesh)[1] == max(loop[1] / loop[3] for loop in loops)

    def test_intervals_never_take_the_fsum_route(self, monkeypatch):
        verts, conn = graded_table_1d(300)
        calls = self.count_fsum(monkeypatch)
        inscribed = simplex_geometry(np.asarray(verts)[np.asarray(conn)])[3]
        assert calls == []
        assert inscribed.tolist() == [interval_geometry(*np.asarray(verts)[c, 0])[3] for c in conn]


class TestBatchedGeometry:
    @pytest.mark.parametrize(
        "table",
        [jittered_table_2d(17, seed=3), graded_table_1d(300), kuhn_table_3d(seed=4)],
        ids=["jittered-2d", "graded-1d", "kuhn-3d"],
    )
    def test_matches_per_simplex_bitwise(self, table):
        verts, conn = table
        mesh = SimplexMesh(verts, conn)
        singles = [one_element_mesh(verts[idx]) for idx in conn]
        if mesh.n == 2:
            # 578 triangles: a degree-10 seminorm (36 rule points) walks them
            # in one full block and a partial one.
            blocks = element_blocks(len(mesh), simplex_rule(2, 10).size)
            assert len(blocks) == 2 and 0 < blocks[1][1] - blocks[1][0] < blocks[0][1] - blocks[0][0]
        # Intervals against their exact length rounded once (the det of a
        # per-simplex loop can be an ulp off it), other simplices against the loop.
        oracle = (lambda v: interval_geometry(*v[:, 0])) if mesh.n == 1 else loop_geometry
        for e, s in enumerate(singles):
            measure, diameter, gradients, inscribed = oracle(np.array(verts)[conn[e]])
            assert (s.element_measures[0], size_and_regularity(s)[0], s.element_inscribed[0]) == (measure, diameter, inscribed)
            assert np.array_equal(s.element_gradients[0], gradients)
            assert np.array_equal(mesh.element_vertices[e], s.vertices)
            assert np.array_equal(mesh.element_gradients[e], s.element_gradients[0])
            assert mesh.element_measures[e] == s.element_measures[0]
        assert gradient_max(mesh) == max(gradient_max(s) for s in singles)
        stacked = simplex_mesh(singles)
        assert np.array_equal(stacked.element_gradients, mesh.element_gradients)
        assert gradient_max(stacked) == gradient_max(mesh)

    @staticmethod
    def count_simplices(monkeypatch):
        """Record each one-element mesh built."""
        built = []
        init = SimplexMesh.__init__

        def counting(self, vertices, connectivity):
            init(self, vertices, connectivity)
            if len(self) == 1:
                built.append(1)

        monkeypatch.setattr(SimplexMesh, "__init__", counting)
        return built

    def test_studies_build_no_simplex(self, monkeypatch):
        built = self.count_simplices(monkeypatch)
        convergence_study(ModelProblem.sine(), 3, 1, 2.0, [32 * 2**i for i in range(7)])
        interpolation_error(SinPiProduct(2), structured_mesh_2d(24), build_basis(2, 3), 1, 2.0)
        assert built == []
        reference_simplex(1)
        assert built == [1]

    def test_simplices_built_on_access(self, monkeypatch):
        mesh = structured_mesh_2d(4)
        built = self.count_simplices(monkeypatch)
        assert hasattr(mesh, "simplices")
        assert len(mesh) == len(mesh.simplices) == 32
        assert built == []
        s = mesh.simplices[5]
        assert built == [1]
        ref = one_element_mesh(mesh.element_vertices[5])
        assert np.array_equal(s.vertices, ref.vertices)
        assert np.array_equal(s.element_gradients[0], ref.element_gradients[0])
        assert (s.element_measures[0], size_and_regularity(s)[0], s.element_inscribed[0]) == (ref.element_measures[0], size_and_regularity(ref)[0], ref.element_inscribed[0])
        assert np.array_equal(mesh.simplices[-1].vertices, mesh.element_vertices[31])
        assert sum(1 for _ in mesh.simplices) == 32
        with pytest.raises(IndexError):
            mesh.simplices[32]


class TestIntervalGeometry:
    @staticmethod
    def count_linalg(monkeypatch):
        calls = []
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
        return calls

    def test_calls_no_linear_algebra(self, monkeypatch):
        verts, conn = graded_table_1d(300)
        calls = self.count_linalg(monkeypatch)
        mesh = SimplexMesh(verts, conn)
        assert size_and_regularity(mesh)[1] == 1.0 and gradient_max(mesh) > 0.0 and math.fsum(mesh.element_measures) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(barycentric(one_element_mesh([[0.25], [1.0]]), [0.625]), [0.5, 0.5], atol=1e-15)
        assert calls == []
        # The counter sees the general route.
        assert size_and_regularity(structured_mesh_2d(1))[1] > 1.0
        assert "inv" in calls and "det" in calls

    def test_reversed_intervals(self):
        verts, conn = graded_table_1d(300)
        mesh = SimplexMesh(verts, [c[::-1] for c in conn])
        for e, (c, s) in enumerate(zip(conn, mesh.simplices)):
            measure, diameter, gradients, inscribed = interval_geometry(verts[c[1], 0], verts[c[0], 0])
            assert (s.element_measures[0], size_and_regularity(s)[0], s.element_inscribed[0]) == (measure, diameter, inscribed)
            assert mesh.element_measures[e] == measure
            assert np.array_equal(mesh.element_gradients[e], gradients)
        assert mesh.element_gradients[0, 0, 0] > 0.0 > mesh.element_gradients[0, 1, 0]
        assert size_and_regularity(mesh)[1] == 1.0
        s = one_element_mesh([[1.0], [0.25]])
        assert (s.element_measures[0], size_and_regularity(s)[0], s.element_inscribed[0]) == (0.75, 0.75, 0.75)
        assert np.allclose(barycentric(s, [[1.0], [0.25], [0.4375]]), [[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]], atol=1e-15)

    def test_zero_length_interval_named(self):
        mesh = SimplexMesh([[0.0], [0.5], [0.5], [1.0]], [[0, 1], [1, 2], [2, 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSimplexError) as exc:
                mesh.element_measures
        assert str(exc.value) == "degenerate 1-simplex at element 1: volume 0.000e+00 with diameter 0.000e+00"
