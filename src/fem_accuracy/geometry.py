"""Simplex geometry and structured meshes.

simplex_geometry computes the geometry of a stack of simplices, an (E, n+1, n)
vertex array, with batched array operations and each element's facet measures
summed by math.fsum; intervals take a closed form in their signed length,
with no linear algebra call.  A SimplexMesh is a vertex table with an (E, n+1)
connectivity whose per-element arrays it builds on first use.  It is the
one domain type: a single simplex is the one-element SimplexMesh over its
n+1 vertices (`reference_simplex`), and an element asked for by index is
built as one.  Everything here is immutable after construction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property

import numpy as np

# Volume below this fraction of diameter^n / n! counts as degenerate.
VOLUME_REL_TOL = 1e-12


class DegenerateSimplexError(ValueError):
    """Raised when the requested simplex has (numerically) zero volume."""


def simplex_geometry(vertices):
    """Geometry of a stack of simplices, vertices of shape (E, n+1, n).

    Returns read-only (inverse, measures, diameters, inscribed).  Row q of
    inverse[e], shape (n+1, n+1), gives lambda_q(x) = inverse[e, q] . (1, x),
    so its columns 1..n are the barycentric gradients.  The others have shape
    (E,): n-volume, diameter h_K and inscribed-ball diameter rho_K.  For an
    interval [x0, x1] of signed length L = x1 - x0 all three are |L| and the
    rows of inverse are (x1/L, -1/L) and (-x0/L, 1/L).
    Raises DegenerateSimplexError naming the first element whose vertices are
    affinely dependent within VOLUME_REL_TOL.
    """
    count, n = len(vertices), vertices.shape[2]
    if n == 1:
        x0, x1 = vertices[:, 0, 0], vertices[:, 1, 0]
        length = x1 - x0
        measures = diameters = np.abs(length)
    else:
        measures = np.abs(np.linalg.det(vertices[:, 1:] - vertices[:, :1])) / math.factorial(n)
        diff = vertices[:, :, None, :] - vertices[:, None, :, :]
        diameters = np.sqrt((diff * diff).sum(axis=3)).max(axis=(1, 2))
    degenerate = np.flatnonzero(measures <= VOLUME_REL_TOL * diameters**n / math.factorial(n))
    if degenerate.size:
        e = degenerate[0]
        raise DegenerateSimplexError(
            f"degenerate {n}-simplex at element {e}: volume {measures[e]:.3e} with diameter {diameters[e]:.3e}"
        )
    if n == 1:
        ones = np.ones(count)
        inverse = np.stack([x1, -ones, -x0, ones], axis=1).reshape(count, 2, 2) / length[:, None, None]
        inscribed = measures
    else:
        inverse = np.linalg.inv(np.concatenate([np.ones((count, 1, n + 1)), vertices.transpose(0, 2, 1)], axis=1))
        # Facet q omits vertex q; its (n-1)-measure is the root of the Gram
        # determinant of its edges.
        facets = np.empty((count, n + 1))
        for q in range(n + 1):
            edges = np.delete(vertices, q, axis=1)
            edges = edges[:, 1:] - edges[:, :1]
            gram = np.linalg.det(edges @ edges.transpose(0, 2, 1))
            facets[:, q] = np.sqrt(np.maximum(gram, 0.0)) / math.factorial(n - 1)
        sums = np.array([math.fsum(f) for f in facets.tolist()])
        inscribed = 2.0 * n * measures / sums
    for a in (inverse, measures, diameters, inscribed):
        a.setflags(write=False)
    return inverse, measures, diameters, inscribed


class _SimplexSequence(Sequence):
    """Read-only view of a mesh's elements that builds a one-element mesh per access."""

    def __init__(self, mesh):
        self._mesh = mesh

    def __len__(self):
        return len(self._mesh)

    def __getitem__(self, index):
        return SimplexMesh(self._mesh.element_vertices[index], [range(self._mesh.n + 1)])


class SimplexMesh:
    """A vertex table and the connectivity of simplices over it.

    Parameters
    ----------
    vertices : array_like, shape (P, n)
        Vertex coordinates, kept as the read-only `vertices`.
    connectivity : array_like of int, shape (E, n+1)
        Vertex indices of every element, kept as the read-only
        `connectivity`.  A degenerate element raises DegenerateSimplexError
        at the first use of the geometry.
    """

    def __init__(self, vertices, connectivity):
        points, cells = np.array(vertices, dtype=np.float64), np.array(connectivity)
        if points.ndim != 2 or cells.ndim != 2 or cells.shape[1] != points.shape[1] + 1 or not cells.size:
            raise ValueError(f"need (P, n) vertices and (E, n+1) connectivity, got {points.shape}, {cells.shape}")
        if not np.issubdtype(cells.dtype, np.integer) or cells.min() < 0 or cells.max() >= len(points):
            raise ValueError("connectivity must hold indices into the vertex table")
        self.n = points.shape[1]
        points.setflags(write=False)
        cells.setflags(write=False)
        self.vertices, self.connectivity = points, cells

    def __len__(self):
        return len(self.connectivity)

    @property
    def simplices(self):
        """The elements as one-element meshes, each built when it is accessed."""
        return _SimplexSequence(self)

    @cached_property
    def element_vertices(self):
        """Vertices of every element, shape (E, n+1, n)."""
        out = self.vertices[self.connectivity]
        out.setflags(write=False)
        return out

    @cached_property
    def _geometry(self):
        return simplex_geometry(self.element_vertices)

    @cached_property
    def element_gradients(self):
        """Barycentric gradients of every element, shape (E, n+1, n)."""
        return self._geometry[0][:, :, 1:]

    @cached_property
    def element_measures(self):
        """Measure of every element, shape (E,)."""
        return self._geometry[1]

    @cached_property
    def element_inscribed(self):
        """Inscribed-ball diameter of every element, shape (E,)."""
        return self._geometry[3]


def reference_simplex(n):
    """Unit reference simplex: [0,1] for n=1, the right triangle for n=2, etc."""
    return SimplexMesh(np.vstack([np.zeros((1, n)), np.eye(n)]), [range(n + 1)])


def uniform_mesh_1d(a, b, count):
    """Uniform partition of [a, b] into `count` intervals."""
    if count < 1:
        raise ValueError("count must be positive")
    if not b > a:
        raise ValueError("need b > a")
    verts = np.linspace(a, b, count + 1).reshape(-1, 1)
    return SimplexMesh(verts, np.arange(count)[:, None] + np.arange(2))


def structured_mesh_2d(per_side):
    """Unit square split into per_side^2 cells of two right triangles each.

    Vertex j * (per_side + 1) + i sits at (x_i, y_j); cell (i, j), taken row
    by row, gives (i, j), (i+1, j), (i, j+1) and (i+1, j), (i+1, j+1), (i, j+1).
    """
    if per_side < 1:
        raise ValueError("per_side must be positive")
    m = per_side
    xs = np.linspace(0.0, 1.0, m + 1)
    j, i = np.divmod(np.arange(m * m), m)
    c = j * (m + 1) + i
    verts = np.stack([np.tile(xs, m + 1), np.repeat(xs, m + 1)], axis=1)
    conn = np.stack([c, c + 1, c + m + 1, c + 1, c + m + 2, c + m + 1], axis=1).reshape(-1, 3)
    return SimplexMesh(verts, conn)
