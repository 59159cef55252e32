"""Continuous P_k Galerkin solver for -u'' + u = f on an interval.

Homogeneous Dirichlet conditions and a manufactured exact solution.  Element
matrices scale reference-interval tables, built once per degree, by the
element length (exact in 1D).  Global dofs are the vertices left
to right, then the k-1 interior nodes of each element.  The solve is numpy
only: static condensation of the interior nodes, then cyclic reduction of the
tridiagonal vertex system.  Error reports measure W^{m,p} seminorms of u - u_h, estimate
orders from log-log slopes and compare with script_C(k) h^{k+1-m} |u|_{k+1,p}.

Several meshes are solved and measured as one batch: a MeshFamily stacks
their elements into one mesh, so one element system, one condensation, one
back-substitution and one seminorm pass per rule and order serve them all.
Only the O(n) steps are taken per mesh: the cyclic reduction of its vertex
system, and its sums, sizes and bounds.  A single mesh is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import build_basis, tabulate
from .bounds import ConstantBundle, script_c
from .functions import AnalyticFunction, Polynomial1D, SinPiProduct
from .geometry import SimplexMesh, uniform_mesh_1d
from .norms import (
    ESTIMATE_DEGREE_STEP,
    AnalyticField,
    DifferenceField,
    PiecewisePolynomialField,
    SobolevIndex,
    element_powers,
    seminorm,
)
from .quadrature import interval_rule

# Residual threshold for a solve to count as converged.
RESIDUAL_REL_TOL = 1e-10

# Absolute slack for the measured-error-below-bound verdict.  When the
# exact solution lies in the trial space both sides vanish and the
# measured error is pure floating-point noise; without the slack that
# noise would be reported as a bound violation.
BOUND_ABS_SLACK = 1e-12

# Underflow moves a sum of p-th powers at least this large by at most 2^-105
# relative for each rounding in the underflow range that fed it.
UNDERFLOW_SAFE_SUM = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class ModelProblem:
    """Manufactured problem -u'' + u = f, u(0) = u(1) = 0.

    u is an AnalyticFunction; f is derived from it, so any smooth u with
    homogeneous boundary values defines a valid problem.
    """

    u: AnalyticFunction
    name: str = "custom"

    def f_values(self, x):
        return -self.u.deriv_values((2,), x) + self.u.deriv_values((0,), x)

    @classmethod
    def sine(cls):
        return cls(u=SinPiProduct(1), name="sine")

    @classmethod
    def cubic(cls):
        # x - x^3 vanishes at both ends and is exactly representable by P_3.
        return cls(u=Polynomial1D([0.0, 1.0, 0.0, -1.0]), name="cubic")


class MeshFamily:
    """1D meshes stacked into one SimplexMesh, so that they are solved and measured as one batch.

    The family's vertex table stacks the meshes' tables, and its connectivity
    stacks theirs, each offset by the vertices before it; its geometry arrays
    equal the meshes' arrays element by element.  Mesh j holds the family's
    elements offsets[j]:offsets[j + 1].  Every mesh must be one chain of
    elements left to right, the layout element_dofs numbers; anything else
    raises ValueError.
    """

    def __init__(self, meshes):
        self.meshes = tuple(meshes)
        if not self.meshes or any(mesh.n != 1 for mesh in self.meshes):
            raise ValueError("the Galerkin solve needs one or more meshes and is restricted to 1D meshes")
        self.counts = np.array([len(mesh) for mesh in self.meshes])
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        starts = np.cumsum([0] + [len(mesh.vertices) for mesh in self.meshes[:-1]])
        self.mesh = SimplexMesh(
            np.concatenate([mesh.vertices for mesh in self.meshes]),
            np.concatenate([mesh.connectivity + start for mesh, start in zip(self.meshes, starts)]),
        )
        left, right = self.mesh.element_vertices[:, 0, 0], self.mesh.element_vertices[:, 1, 0]
        chained = left[1:] == right[:-1]
        chained[self.offsets[1:-1] - 1] = True  # the last element of one mesh and the first of the next
        if not (chained.all() and np.all(right > left)):
            raise ValueError(
                "a 1D mesh must be one chain of elements left to right: element e + 1 starts where "
                "element e ends, and each element's second vertex lies right of its first"
            )

    def sums(self, powers):
        """math.fsum of each mesh's columns of a (rows, E) array, one float per mesh."""
        return [math.fsum(powers[:, lo:hi].ravel().tolist()) for lo, hi in zip(self.offsets[:-1], self.offsets[1:])]

    def maxima(self, values):
        """Largest of each mesh's entries of an (E,) array, one float per mesh."""
        return np.maximum.reduceat(values, self.offsets[:-1]).tolist()


class DiscreteSolution:
    """Galerkin solution: mesh, basis, global coefficient vector and solve quality.

    residual is ||A x - b||_2 / ||b||_2 of the uncondensed system; backward_error
    is the normwise ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).  family
    is the MeshFamily the mesh was solved in.
    """

    def __init__(self, mesh, basis, coefficients, residual, backward_error, family):
        self.mesh = mesh
        self.family = family
        self.basis = basis
        self.k = basis.k
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        self.residual = float(residual)
        self.backward_error = float(backward_error)
        self._field = None

    def as_field(self):
        if self._field is None:
            dofs = element_dofs(len(self.mesh), self.k)
            self._field = PiecewisePolynomialField(self.basis, self.coefficients[dofs])
        return self._field

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        verts = self.mesh.element_vertices[:, :, 0]
        x0, h = verts[:, 0], verts[:, 1] - verts[:, 0]
        idx = np.clip(np.searchsorted(x0, x, side="right") - 1, 0, len(self.mesh) - 1)
        t = (x - x0[idx]) / h[idx]
        table = tabulate(self.basis.polynomials, np.stack([1.0 - t, t], axis=1), 0)[0]
        return np.einsum("pa,ap->p", self.as_field().coefficients[idx], table)


def element_dofs(ne, k):
    """Global dofs of the k+1 local nodes of every element, shape (ne, k+1)."""
    elements = np.arange(ne)
    dofs = np.empty((ne, k + 1), dtype=np.int64)
    dofs[:, 0] = elements
    dofs[:, k] = elements + 1
    dofs[:, 1:k] = ne + 1 + elements[:, None] * (k - 1) + np.arange(k - 1)
    return dofs


@cache
def _reference_system(k):
    """Reference mass and stiffness (exactness 2k), the load rule (exactness 2k + 8) and its value table."""
    basis, rule, load_rule = _interval_basis(k), interval_rule(2 * k), interval_rule(2 * k + 8)
    vals, dlam = basis.table(rule, 0), basis.table(rule, 1)
    # On the reference interval lambda_1 = x = 1 - lambda_0, so d/dx = d/dlambda_1 - d/dlambda_0.
    mass, stiff = (np.einsum("q,aq,bq->ab", rule.weights, v, v) for v in (vals[0], dlam[1] - dlam[0]))
    return mass, stiff, load_rule, basis.table(load_rule, 0)[0]


def element_system(problem, mesh, basis):
    """Element matrices a (ne, k+1, k+1) and loads b (ne, k+1): reference stiffness
    and mass (exactness 2k) scaled by the element length; the load rule has
    exactness 2k + 8 because f is generally not polynomial.  Reference tables
    are built once per basis.k."""
    mass_ref, stiff_ref, load_rule, load_vals = _reference_system(basis.k)
    verts = mesh.element_vertices
    h = (verts[:, 1, 0] - verts[:, 0, 0])[:, None]
    fvals = problem.f_values((load_rule.points @ verts).reshape(-1, 1)).reshape(len(h), -1)
    b = h * (load_vals * (load_rule.weights * fvals)[:, None, :]).sum(axis=2)
    return stiff_ref / h[:, :, None] + mass_ref * h[:, :, None], b


def _lower_solve(low, y):
    """Solve low z = y for a stack of lower triangular low, y of shape (E, m, c)."""
    z = np.zeros_like(y)
    for i in range(low.shape[1]):
        z[:, i] = (y[:, i] - np.einsum("ej,ejc->ec", low[:, i, :i], z[:, :i])) / low[:, i, i, None]
    return z


def cyclic_reduction(diag, off, rhs):
    """Solve the symmetric tridiagonal system (diagonal diag, off-diagonal off) by
    odd-even cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7(4),
    1970) padded to 2^m - 1 unknowns: m array steps.  The eliminated diagonals are
    LDL^T pivots of the permuted matrix; one that is not positive raises LinAlgError."""
    n = len(diag)
    size = 2 ** n.bit_length() - 1
    d, r, e = np.ones(size), np.zeros(size), np.zeros(size + 1)
    d[:n], r[:n], e[1:n] = diag, rhs, off  # e[i] couples unknowns i - 1 and i
    levels = []
    while len(d) > 1 and np.all(d[0::2] > 0):
        levels.append((d, r, e))
        left, right = e[1:-1:2] / d[0:-1:2], e[2::2] / d[2::2]
        d = d[1::2] - left * e[1:-1:2] - right * e[2::2]
        r = r[1::2] - left * r[0:-1:2] - right * r[2::2]
        e = np.concatenate([[0.0], -right[:-1] * e[3:-1:2], [0.0]])
    if not np.all(d[0::2] > 0):
        raise np.linalg.LinAlgError("tridiagonal system is not positive definite")
    x = r / d
    for d, r, e in reversed(levels):
        known = np.concatenate([[0.0], x, [0.0]])
        x = np.empty(len(d))
        x[1::2] = known[1:-1]
        x[0::2] = (r[0::2] - e[0::2] * known[:-1] - e[1::2] * known[1:]) / d[0::2]
    return x[:n]


def solve_condensed(a, b, counts):
    """Global coefficients, with zero end values, of stacked element systems (a, b).

    counts are the element counts of the meshes whose systems a and b stack, in
    order; one coefficient vector per mesh is returned.  Each element's interior
    unknowns are eliminated with a batched Cholesky factor L of its interior
    block (LinAlgError if not positive definite); the 2x2 Schur complements
    form each mesh's tridiagonal vertex system, which its own cyclic_reduction
    call solves, and the interior values follow by back-substitution with L."""
    k, counts = a.shape[1] - 1, np.asarray(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ends, inner = [0, k], slice(1, k)
    chol = np.linalg.cholesky(a[:, inner, inner])
    y = _lower_solve(chol, np.concatenate([a[:, inner][:, :, ends], b[:, inner, None]], axis=2))
    yv, yb = y[:, :, :2], y[:, :, 2:]
    schur = a[:, ends][:, :, ends] - np.einsum("eiv,eiw->evw", yv, yv)
    load = b[:, ends] - np.einsum("eiv,eic->ev", yv, yb)
    # Mesh j numbers its vertices left to right from firsts[j] = offsets[j] + j.
    firsts = offsets[:-1] + np.arange(len(counts))
    pairs = (np.arange(len(a)) + np.repeat(np.arange(len(counts)), counts))[:, None] + np.arange(2)
    nv = len(a) + len(counts)
    diag = np.bincount(pairs.ravel(), np.diagonal(schur, axis1=1, axis2=2).ravel(), nv)
    rhs = np.bincount(pairs.ravel(), load.ravel(), nv)
    # A mesh's unknowns are its inner vertices, coupled through its inner elements.
    xv = np.zeros(nv)
    for first, ne, lo, hi in zip(firsts, counts, offsets[:-1], offsets[1:]):
        free = slice(first + 1, first + ne)
        xv[free] = cyclic_reduction(diag[free], schur[lo + 1 : hi - 1, 0, 1], rhs[free])
    # L^T x = z is solved as the lower triangular system of both reversed.
    xi = _lower_solve(chol.transpose(0, 2, 1)[:, ::-1, ::-1], (yb - yv @ xv[pairs].reshape(-1, 2, 1))[:, ::-1])
    return [
        np.concatenate([xv[first : first + ne + 1], xi[lo:hi, ::-1].ravel()])
        for first, ne, lo, hi in zip(firsts, counts, offsets[:-1], offsets[1:])
    ]


def solve_quality(a, b, x):
    """Residual ||A x - b||_2 / ||b||_2 and normwise backward error ||A x - b||_inf /
    (||A||_inf ||x||_inf + ||b||_inf) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 7.1) of the uncondensed system on the free dofs, applied
    element by element.  Values of x at the two end vertices are ignored."""
    dofs = element_dofs(a.shape[0], a.shape[1] - 1)
    free = np.ones(len(x), dtype=bool)
    free[[0, a.shape[0]]] = False
    x = np.where(free, x, 0.0)

    def assembled(values):
        return np.bincount(dofs.ravel(), values.ravel(), len(x))[free]

    rhs = assembled(b)
    r = assembled(np.einsum("eab,eb->ea", a, x[dofs])) - rhs
    a_norm = np.max(assembled(np.abs(a) @ free[dofs, None]), initial=0.0)
    residual = np.linalg.norm(r) / max(np.linalg.norm(rhs), np.finfo(float).tiny)
    scale = a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs), initial=0.0)
    return residual, (float(np.max(np.abs(r), initial=0.0) / scale) if scale > 0 else 0.0)


@cache
def _interval_basis(k):
    return build_basis(1, k)


def assemble_and_solve_all(problem, meshes, k):
    """Assemble and solve the P_k Galerkin system on each of some 1D meshes, as one batch.

    The meshes share one MeshFamily, one element_system call and one
    solve_condensed call.  Returns one DiscreteSolution per mesh, with the
    relative algebraic residual and the normwise backward error of its own
    uncondensed system.
    """
    family = MeshFamily(meshes)
    basis = _interval_basis(k)
    a, b = element_system(problem, family.mesh, basis)
    solutions = []
    for mesh, x, lo, hi in zip(family.meshes, solve_condensed(a, b, family.counts), family.offsets, family.offsets[1:]):
        solutions.append(DiscreteSolution(mesh, basis, x, *solve_quality(a[lo:hi], b[lo:hi], x), family))
    return solutions


def assemble_and_solve(problem, mesh, k):
    """Assemble and solve the P_k Galerkin system on a 1D mesh: the batch of one.

    Returns a DiscreteSolution with its relative algebraic residual and its
    normwise backward error, both taken on the uncondensed system.
    """
    return assemble_and_solve_all(problem, [mesh], k)[0]


def _power_sums(family, field, l, p, degree):
    """Each mesh's sum of element_powers over the family.

    ValueError naming p where float over- or underflow can have moved a sum:
    on any overflow, and on underflow when a sum is below UNDERFLOW_SAFE_SUM
    (a zero sum without underflow is exact).
    """
    underflows = []
    try:
        with np.errstate(over="raise", under="call", call=lambda *_: underflows.append(True)):
            sums = family.sums(element_powers(field, family.mesh, l, p, degree))
        if not (underflows and min(sums) < UNDERFLOW_SAFE_SUM):
            return sums
    except (FloatingPointError, OverflowError):
        pass
    raise ValueError(
        f"the W^{{m,p}} seminorms cannot be measured in floats at p = {p:g}: their p-th powers over- or underflow"
    )


def error_reports(solutions, problem, m, p, cea_ratio=1.0):
    """error_report of each of some solutions of one degree, measured as one batch.

    The error fields are stacked over the MeshFamily of the solutions' meshes
    (the one they were solved in, when they are its meshes in order).  Each
    seminorm is one element_powers pass over the family per rule and order,
    summed per mesh; h and the gradient maximum are maxima over each mesh's
    elements of the family's geometry.  A sum of p-th powers that float over-
    or underflow can have moved raises ValueError (see _power_sums).
    """
    basis, k = solutions[0].basis, solutions[0].k
    if any(s.basis is not basis for s in solutions):
        raise ValueError("error_reports needs solutions of one degree")
    family = solutions[0].family
    if family.meshes != tuple(s.mesh for s in solutions):
        family = MeshFamily([s.mesh for s in solutions])
    admissible = SobolevIndex(m=m, p=p, n=1).admissible(k)
    coefficients = np.concatenate([s.as_field().coefficients for s in solutions])
    err = DifferenceField(AnalyticField(problem.u), PiecewisePolynomialField(basis, coefficients))
    degree = 2 * k + 6
    seminorms = [[] for _ in solutions]
    for l in range(m + 1):
        coarse, fine = (_power_sums(family, err, l, p, d) for d in (degree, degree + ESTIMATE_DEGREE_STEP))
        for entries, c, f in zip(seminorms, coarse, fine):
            value = f ** (1.0 / p)
            entries.append({"l": l, "p": p, "value": value, "quad_error_estimate": abs(value - c ** (1.0 / p))})

    hs = family.maxima(family.mesh.element_measures)
    lams = family.maxima(np.abs(family.mesh.element_gradients).max(axis=(1, 2)))
    if admissible:
        u_powers = _power_sums(family, AnalyticField(problem.u), k + 1, p, degree)
    reports = []
    for j, solution in enumerate(solutions):
        total = math.fsum(s["value"] ** p for s in seminorms[j]) ** (1.0 / p)
        bound = None
        position = None
        if admissible:
            bundle = ConstantBundle(
                n=1,
                m=m,
                k=k,
                p=p,
                sigma=1.0,  # an interval's diameter and inscribed diameter are both its length
                lam=lams[j],
                cea_ratio=cea_ratio,
                h_cap=max(hs[j], 1.0),
            )
            bound = script_c(bundle) * hs[j] ** (k + 1 - m) * u_powers[j] ** (1.0 / p)
            position = total / bound if bound > 0 else math.inf
        reports.append(
            {
                "problem": problem.name,
                "k": k,
                "m": m,
                "p": p,
                "h": hs[j],
                "elements": len(solution.mesh),
                "residual": solution.residual,
                "residual_ok": solution.residual <= RESIDUAL_REL_TOL,
                "backward_error": solution.backward_error,
                "seminorms": seminorms[j],
                "error": total,
                "admissible": admissible,
                "bound": bound,
                "bound_position": position,
                "pass": (total <= bound + BOUND_ABS_SLACK) if bound is not None else None,
            }
        )
    return reports


def error_report(solution, problem, m, p, cea_ratio=1.0):
    """Seminorms of u - u_h for l = 0..m, the W^{m,p} norm, and the bound: the batch of one.

    The bound side uses script_C(k) built from the mesh quantities (the
    gradient maximum over elements, and the regularity sigma = 1 of intervals)
    times h^{k+1-m} |u|_{k+1,p}.  The report states where the measured error lands
    inside the bound interval; nothing stronger than measured <= bound is
    asserted.  residual_ok flags a solve whose relative
    residual exceeds RESIDUAL_REL_TOL; backward_error is the solve's
    normwise backward error.
    """
    return error_reports([solution], problem, m, p, cea_ratio)[0]


def convergence_study(problem, k, m, p, element_counts, cea_ratio=1.0):
    """Solve on a family of uniform meshes and estimate the order.

    Returns (rows, order): rows carry {k, m, p, h, error, bound, order_est}
    with order_est the running two-point slope, and order the least-squares
    log-log slope across the family.  The element counts must be distinct.
    All meshes are solved and measured as one batch.
    """
    if len(set(element_counts)) < len(element_counts):
        raise ValueError(f"element counts must be distinct, got {','.join(map(str, element_counts))}")
    meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in element_counts]
    reports = error_reports(assemble_and_solve_all(problem, meshes, k), problem, m, p, cea_ratio=cea_ratio)
    hs = [rep["h"] for rep in reports]
    errors = [rep["error"] for rep in reports]
    rows = [
        {
            "k": k,
            "m": m,
            "p": p,
            "h": hs[i],
            "error": errors[i],
            "bound": rep["bound"],
            "order_est": (
                math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]) if i > 0 and errors[i] > 0 else None
            ),
            "pass": rep["pass"],
        }
        for i, rep in enumerate(reports)
    ]
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0]) if len(hs) > 1 else None
    return rows, slope


def empirical_crossover(problem, k1, k2, m, p, element_counts, seminorm_ratio=None):
    """Tabulate measured errors of two degrees against the predicted law.

    For each mesh the row records both errors, their ratio, the model
    critical size from the explicit formula (seminorm ratio measured from
    the exact solution unless supplied), and the nonlinear-law value at h.
    """
    from .probability import AccuracyLaw, h_star_explicit

    meshes = [uniform_mesh_1d(0.0, 1.0, ne) for ne in element_counts]
    if seminorm_ratio is None:
        degree = 2 * max(k1, k2) + 8
        s1 = seminorm(problem.u, meshes[0], k1 + 1, p, degree=degree)
        s2 = seminorm(problem.u, meshes[0], k2 + 1, p, degree=degree)
        seminorm_ratio = s1 / s2
    hs = h_star_explicit(1, m, p, k1, k2, seminorm_ratio=seminorm_ratio)
    law = AccuracyLaw(h_star=hs, exponent=k2 - k1, kind="nonlinear")
    reports = [error_reports(assemble_and_solve_all(problem, meshes, k), problem, m, p) for k in (k1, k2)]
    return [
        {
            "h": r1["h"],
            "error_k1": r1["error"],
            "error_k2": r2["error"],
            "higher_wins": r2["error"] <= r1["error"],
            "h_star_model": hs,
            "probability_model": float(law(r1["h"])),
        }
        for r1, r2 in zip(*reports)
    ]
