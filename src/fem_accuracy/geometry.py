"""Simplex geometry and structured meshes.

A Simplex is n+1 affinely independent vertices in R^n.  It owns the exact
affine map between physical and barycentric coordinates, the constant
gradients of the barycentric coordinate functions, its measure, diameter,
and inscribed-ball diameter.  SimplexMesh is a flat collection of simplices
with the mesh-wide quantities (h, shape regularity sigma, gradient maximum)
precomputed, plus stacked per-element arrays (vertices, barycentric
gradients, measures) built on first use for whole-mesh array work.
Everything here is immutable after construction.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

# Volume below this fraction of diameter^n / n! counts as degenerate.
VOLUME_REL_TOL = 1e-12


class DegenerateSimplexError(ValueError):
    """Raised when the requested simplex has (numerically) zero volume."""


class Simplex:
    """An n-simplex given by its n+1 vertices.

    Parameters
    ----------
    vertices : array_like, shape (n+1, n)
        Vertex coordinates, one row per vertex.

    Raises
    ------
    DegenerateSimplexError
        If the vertices are affinely dependent within VOLUME_REL_TOL.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=np.float64)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise ValueError(f"expected (n+1, n) vertex array, got shape {v.shape}")
        n = v.shape[1]

        edges = v[1:] - v[0]
        volume = abs(float(np.linalg.det(edges))) / math.factorial(n)
        diff = v[:, None, :] - v[None, :, :]
        diameter = float(np.sqrt((diff * diff).sum(axis=2)).max())
        if volume <= VOLUME_REL_TOL * diameter**n / math.factorial(n):
            raise DegenerateSimplexError(
                f"degenerate {n}-simplex: volume {volume:.3e} with diameter {diameter:.3e}"
            )

        # Rows of A^{-1} give lambda_q(x) = A^{-1}[q] . (1, x); the constant
        # part sits in column 0 and the gradient in the remaining columns.
        aug = np.empty((n + 1, n + 1))
        aug[0, :] = 1.0
        aug[1:, :] = v.T
        inv = np.linalg.inv(aug)

        v.setflags(write=False)
        inv.setflags(write=False)
        grads = inv[:, 1:].copy()
        grads.setflags(write=False)

        self._vertices = v
        self._n = n
        self._measure = volume
        self._diameter = diameter
        self._inv = inv
        self._grads = grads
        self._rho = None

    @property
    def vertices(self):
        return self._vertices

    @property
    def n(self):
        return self._n

    @property
    def measure(self):
        """n-dimensional volume."""
        return self._measure

    @property
    def diameter(self):
        """Largest pairwise vertex distance h_K."""
        return self._diameter

    def barycentric(self, x):
        """Barycentric coordinates of physical points.

        Parameters
        ----------
        x : array_like, shape (n,) or (npts, n)

        Returns
        -------
        ndarray, shape (n+1,) or (npts, n+1)
            Coordinates summing to one; nonnegative iff the point lies
            inside the simplex.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = x.reshape(1, -1) if single else x
        if pts.shape[1] != self._n:
            raise ValueError(f"points have dimension {pts.shape[1]}, simplex has {self._n}")
        ones = np.ones((pts.shape[0], 1))
        lam = np.hstack([ones, pts]) @ self._inv.T
        return lam[0] if single else lam

    def to_physical(self, lam):
        """Physical coordinates of barycentric points (inverse of barycentric)."""
        lam = np.asarray(lam, dtype=np.float64)
        return lam @ self._vertices

    def barycentric_gradients(self):
        """Constant gradients of the barycentric coordinates.

        Returns
        -------
        ndarray, shape (n+1, n)
            Row q holds grad lambda_q; the rows sum to the zero vector.
        """
        return self._grads

    @property
    def gradient_max(self):
        """Largest absolute entry of the barycentric gradient matrix."""
        return float(np.abs(self._grads).max())

    def facet_measures(self):
        """(n-1)-measures of the n+1 facets (facet q omits vertex q).

        A facet of a 1-simplex is a single point and counts as measure one,
        which makes the inscribed-diameter formula uniform across n.
        """
        out = []
        for q in range(self._n + 1):
            pts = np.delete(self._vertices, q, axis=0)
            edges = pts[1:] - pts[0]
            gram = edges @ edges.T
            out.append(math.sqrt(max(float(np.linalg.det(gram)), 0.0)) / math.factorial(self._n - 1))
        return out

    def inscribed_diameter(self):
        """Diameter rho of the largest inscribed ball (2 * inradius)."""
        if self._rho is None:
            self._rho = 2.0 * self._n * self._measure / math.fsum(self.facet_measures())
        return self._rho

    def to_dict(self):
        return {"n": self._n, "vertices": self._vertices.tolist()}

    def __repr__(self):
        return f"Simplex(n={self._n}, measure={self._measure:.6g})"


class SimplexMesh:
    """A collection of simplices covering a domain.

    Parameters
    ----------
    simplices : sequence of Simplex
    domain_measure : float, optional
        Known measure of the covered domain, used by check_cover.
    vertices, connectivity : optional
        Shared vertex table and per-element vertex indices; kept only for
        serialization.
    """

    def __init__(self, simplices, domain_measure=None, vertices=None, connectivity=None):
        simplices = tuple(simplices)
        if not simplices:
            raise ValueError("mesh needs at least one simplex")
        n = simplices[0].n
        if any(s.n != n for s in simplices):
            raise ValueError("mixed-dimension mesh")
        self.simplices = simplices
        self.n = n
        self.h = max(s.diameter for s in simplices)
        self.sigma = max(s.diameter / s.inscribed_diameter() for s in simplices)
        self.gradient_max = max(s.gradient_max for s in simplices)
        self.domain_measure = domain_measure
        self._vertices = None if vertices is None else np.asarray(vertices, dtype=np.float64)
        self._connectivity = None if connectivity is None else [list(c) for c in connectivity]

    def __len__(self):
        return len(self.simplices)

    def __iter__(self):
        return iter(self.simplices)

    @staticmethod
    def _stack(arrays):
        out = np.array(arrays, dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def element_vertices(self):
        """Vertices of every element, shape (E, n+1, n)."""
        return self._stack([s.vertices for s in self.simplices])

    @cached_property
    def element_gradients(self):
        """Barycentric gradients of every element, shape (E, n+1, n)."""
        return self._stack([s.barycentric_gradients() for s in self.simplices])

    @cached_property
    def element_measures(self):
        """Measure of every element, shape (E,)."""
        return self._stack([s.measure for s in self.simplices])

    def measure(self):
        """Sum of element measures (order-independent accumulation)."""
        return math.fsum(s.measure for s in self.simplices)

    def check_cover(self, tol=1e-12):
        """True when the element measures add up to the stated domain measure."""
        if self.domain_measure is None:
            raise ValueError("mesh has no recorded domain measure")
        return abs(self.measure() - self.domain_measure) <= tol * self.domain_measure

    def to_json(self, indent=None):
        """Serialize to JSON with a shared vertex table when available."""
        payload = {
            "n": self.n,
            "h": self.h,
            "sigma": self.sigma,
            "domain_measure": self.domain_measure,
        }
        if self._vertices is not None and self._connectivity is not None:
            payload["vertices"] = self._vertices.tolist()
            payload["simplices"] = self._connectivity
        else:
            payload["elements"] = [s.to_dict() for s in self.simplices]
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if "vertices" in payload:
            verts = np.asarray(payload["vertices"], dtype=np.float64)
            conn = payload["simplices"]
            simplices = [Simplex(verts[idx]) for idx in conn]
            return cls(simplices, payload.get("domain_measure"), verts, conn)
        simplices = [Simplex(e["vertices"]) for e in payload["elements"]]
        return cls(simplices, payload.get("domain_measure"))


def reference_simplex(n):
    """Unit reference simplex: [0,1] for n=1, the right triangle for n=2, etc."""
    verts = np.zeros((n + 1, n))
    for i in range(n):
        verts[i + 1, i] = 1.0
    return Simplex(verts)


def uniform_mesh_1d(a, b, count):
    """Uniform partition of [a, b] into `count` intervals."""
    if count < 1:
        raise ValueError("count must be positive")
    if not b > a:
        raise ValueError("need b > a")
    nodes = np.linspace(a, b, count + 1)
    verts = nodes.reshape(-1, 1)
    conn = [[i, i + 1] for i in range(count)]
    simplices = [Simplex(verts[idx]) for idx in conn]
    return SimplexMesh(simplices, domain_measure=b - a, vertices=verts, connectivity=conn)


def structured_mesh_2d(per_side):
    """Unit square split into per_side^2 cells of two right triangles each."""
    if per_side < 1:
        raise ValueError("per_side must be positive")
    m = per_side
    xs = np.linspace(0.0, 1.0, m + 1)
    verts = np.array([[x, y] for y in xs for x in xs])

    def vid(i, j):
        return j * (m + 1) + i

    conn = []
    for j in range(m):
        for i in range(m):
            conn.append([vid(i, j), vid(i + 1, j), vid(i, j + 1)])
            conn.append([vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    simplices = [Simplex(verts[idx]) for idx in conn]
    return SimplexMesh(simplices, domain_measure=1.0, vertices=verts, connectivity=conn)
