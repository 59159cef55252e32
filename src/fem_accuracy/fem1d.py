"""Continuous P_k Galerkin solver for -u'' + u = f on an interval.

Homogeneous Dirichlet conditions and a manufactured exact solution.  Element
matrices scale reference-interval tables, built once per degree, by the
element length (exact in 1D).  Solutions stay in element layout: row e of
an (E, k+1) array holds element e's values at its nodes j/k, left to right.
The solve is numpy only: static condensation of the interior nodes, then
odd-even reduction of the tridiagonal vertex system, kept as couplings and
row excesses.  Error reports measure W^{m,p} seminorms of u - u_h, estimate
orders from log-log slopes and compare with script_C(k) h^{k+1-m} |u|_{k+1,p}.

Several meshes are solved and measured as one batch: a MeshFamily stacks
their elements into one mesh, so one element system, one condensation, one
back-substitution and one seminorm pass per rule and order serve them all,
and one DiscreteSolution holds u_h on all of them.
Only the O(n) steps are taken per mesh: the reduction of its vertex system,
and its sizes and bounds; norms sums its element powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import build_basis
from .constants import ConstantBundle, SobolevIndex, script_c
from .functions import AnalyticFunction, Polynomial1D, SinPiProduct
from .geometry import SimplexMesh, uniform_mesh_1d
from .kernels import table
from .norms import (
    DifferenceField,
    PiecewisePolynomialField,
    estimated_seminorms,
    group_seminorms,
    sobolev_norm,
)
from .quadrature import interval_rule

# Normwise backward error above which a solve is flagged (residual_ok false).
# The solves measured stay at or below 3e-16, so a solve 100 times worse is flagged.
BACKWARD_ERROR_TOL = 1e-14

# Absolute slack for the measured-error-below-bound verdict.  When the
# exact solution lies in the trial space both sides vanish and the
# measured error is pure floating-point noise; without the slack that
# noise would be reported as a bound violation.
BOUND_ABS_SLACK = 1e-12


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
    elements left to right, so that element e ends where element e + 1
    starts; anything else raises ValueError.
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

    def maxima(self, values):
        """Largest of each mesh's entries of an (E,) array, one float per mesh."""
        return np.maximum.reduceat(values, self.offsets[:-1]).tolist()


@dataclass(frozen=True)
class DiscreteSolution:
    """Galerkin solutions on the meshes of a MeshFamily, solved as one batch.

    field is u_h on family.mesh: row e of its (E, k+1) coefficients holds
    element e's values at its nodes j/k, left to right.  residuals[j] is
    ||A x - b||_2 / ||b||_2 of mesh j's uncondensed system and
    backward_errors[j] the normwise ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).
    """

    family: MeshFamily
    field: PiecewisePolynomialField
    residuals: list
    backward_errors: list


@cache
def _reference_system(k):
    """Reference mass and stiffness (exactness 2k), the load rule (exactness 2k + 8) and its value table."""
    basis, rule, load_rule = _interval_basis(k), interval_rule(2 * k), interval_rule(2 * k + 8)
    vals, dlam = table(basis, rule, 0), table(basis, rule, 1)
    # On the reference interval lambda_1 = x = 1 - lambda_0, so d/dx = d/dlambda_1 - d/dlambda_0.
    mass, stiff = (np.einsum("q,aq,bq->ab", rule.weights, v, v) for v in (vals[0], dlam[1] - dlam[0]))
    return mass, stiff, load_rule, table(basis, load_rule, 0)[0]


def element_system(problem, mesh, basis):
    """Element matrices a (ne, k+1, k+1), loads b (ne, k+1) and row sums (ne, k+1):
    reference stiffness and mass (exactness 2k) scaled by the element length;
    the load rule has exactness 2k + 8 because f is generally not polynomial.
    Stiffness annihilates constants, so the row sums are h times those of the
    reference mass, without the cancellation of summing a's rows.  Reference
    tables are built once per basis.k."""
    mass_ref, stiff_ref, load_rule, load_vals = _reference_system(basis.k)
    verts = mesh.element_vertices
    h = (verts[:, 1, 0] - verts[:, 0, 0])[:, None]
    fvals = problem.f_values((load_rule.points @ verts).reshape(-1, 1)).reshape(len(h), -1)
    b = h * (load_vals * (load_rule.weights * fvals)[:, None, :]).sum(axis=2)
    return stiff_ref / h[:, :, None] + mass_ref * h[:, :, None], b, h * mass_ref.sum(axis=1)


def _lower_solve(low, y):
    """Solve low z = y for a stack of lower triangular low, y of shape (E, m, c)."""
    z = np.zeros_like(y)
    for i in range(low.shape[1]):
        z[:, i] = (y[:, i] - np.einsum("ej,ejc->ec", low[:, i, :i], z[:, :i])) / low[:, i, i, None]
    return z


def excess_reduction(couplings, excesses, rhs):
    """Solve the tridiagonal M-matrix system with couplings c[i] = -A[i, i + 1] > 0 and row
    excesses e = A 1 > 0 by odd-even reduction padded to 2^m - 1 unknowns: m array steps.
    Eliminating unknown j adds c e_j / d_j to a neighbour's excess, d_j = e_j + its couplings,
    so no step subtracts (Grassmann, Taksar & Heyman, Oper. Res. 33(5), 1985); a coupling or
    excess that is not positive raises LinAlgError."""
    if not (np.all(couplings > 0) and np.all(excesses > 0)):
        raise np.linalg.LinAlgError("tridiagonal system is not a diagonally dominant M-matrix")
    n = len(excesses)
    size = 2 ** n.bit_length() - 1
    e, r, c = np.ones(size), np.zeros(size), np.zeros(size + 1)
    e[:n], r[:n], c[1:n] = excesses, rhs, couplings  # c[i] couples unknowns i - 1 and i
    levels = []
    while len(e) > 1:
        d = e[0::2] + c[0::2] + c[1::2]
        levels.append((d, r, c))
        left, right = c[1:-1:2] / d[:-1], c[2::2] / d[1:]
        e = e[1::2] + left * e[0:-1:2] + right * e[2::2]
        r = r[1::2] + left * r[0:-1:2] + right * r[2::2]
        c = np.concatenate([[0.0], right[:-1] * c[3:-1:2], [0.0]])
    x = r / e
    for d, r, c in reversed(levels):
        known = np.concatenate([[0.0], x, [0.0]])
        x = np.empty(len(r))
        x[1::2] = known[1:-1]
        x[0::2] = (r[0::2] + c[0::2] * known[:-1] + c[1::2] * known[1:]) / d
    return x[:n]


def solve_condensed(a, b, sums, counts):
    """Coefficients (E, k+1) in element layout, zero at each mesh's two ends, of stacked
    element systems (a, b).

    sums are a's row sums, read in place of its vertex diagonal, and counts the
    element counts of the meshes whose systems a and b stack, in order.  Each
    element's interior unknowns are eliminated with a batched Cholesky factor L
    of its interior block (LinAlgError if not positive definite).  The 2x2
    Schur complements couple the vertices by y_0.y_k - a_0k, y = L^-1 a_IV, and
    have the row sums sums_V - y^T L^-1 sums_I, with no 1/h part.  Each mesh's
    couplings and excesses (row sums, plus the coupling to a Dirichlet end) go
    to its own excess_reduction call; the interior values follow by
    back-substitution."""
    k, counts = a.shape[1] - 1, np.asarray(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ends, inner = [0, k], slice(1, k)
    chol = np.linalg.cholesky(a[:, inner, inner])
    y = _lower_solve(chol, np.concatenate([a[:, inner][:, :, ends], b[:, inner, None], sums[:, inner, None]], axis=2))
    yv, yb, ys = y[:, :, :2], y[:, :, 2:3], y[:, :, 3]
    couplings = np.einsum("ei,ei->e", yv[:, :, 0], yv[:, :, 1]) - a[:, 0, k]
    excess = sums[:, ends] - np.einsum("eiv,ei->ev", yv, ys)
    excess[offsets[:-1], 1] += couplings[offsets[:-1]]  # a mesh's first and last couplings lead to its ends
    excess[offsets[1:] - 1, 0] += couplings[offsets[1:] - 1]
    load = b[:, ends] - np.einsum("eiv,eic->ev", yv, yb)
    # Mesh j numbers its vertices left to right from firsts[j] = offsets[j] + j.
    firsts = offsets[:-1] + np.arange(len(counts))
    pairs = (np.arange(len(a)) + np.repeat(np.arange(len(counts)), counts))[:, None] + np.arange(2)
    nv = len(a) + len(counts)
    excesses = np.bincount(pairs.ravel(), excess.ravel(), nv)
    rhs = np.bincount(pairs.ravel(), load.ravel(), nv)
    # A mesh's unknowns are its inner vertices, coupled through its inner elements.
    xv = np.zeros(nv)
    for first, ne, lo, hi in zip(firsts, counts, offsets[:-1], offsets[1:]):
        free = slice(first + 1, first + ne)
        xv[free] = excess_reduction(couplings[lo + 1 : hi - 1], excesses[free], rhs[free])
    # L^T x = z is solved as the lower triangular system of both reversed.
    xi = _lower_solve(chol.transpose(0, 2, 1)[:, ::-1, ::-1], (yb - yv @ xv[pairs].reshape(-1, 2, 1))[:, ::-1])
    x = np.empty((len(a), k + 1))
    x[:, ends], x[:, inner] = xv[pairs], xi[:, ::-1, 0]
    return x


def solve_quality(a, b, x):
    """Residual ||A x - b||_2 / ||b||_2 and normwise backward error ||A x - b||_inf /
    (||A||_inf ||x||_inf + ||b||_inf) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 7.1) of one mesh's uncondensed system on the free nodes, applied
    element by element to x in element layout.  Its values at the mesh's two ends are
    ignored.  The rows are the inner vertices left to right, then the interior nodes
    element by element."""
    ne, k = a.shape[0], a.shape[1] - 1
    pairs = (np.arange(ne)[:, None] + np.arange(2)).ravel()
    free = np.ones((ne, k + 1, 1), dtype=bool)
    free[0, 0] = free[-1, k] = False
    x = np.where(free[:, :, 0], x, 0.0)

    def assembled(values):
        vertices = np.bincount(pairs, values[:, [0, k]].ravel(), ne + 1)[1:ne]
        return np.concatenate([vertices, values[:, 1:k].ravel()])

    rhs = assembled(b)
    r = assembled(np.einsum("eab,eb->ea", a, x)) - rhs
    a_norm = np.max(assembled(np.abs(a) @ free), initial=0.0)
    residual = np.linalg.norm(r) / max(np.linalg.norm(rhs), np.finfo(float).tiny)
    scale = a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs), initial=0.0)
    return float(residual), (float(np.max(np.abs(r), initial=0.0) / scale) if scale > 0 else 0.0)


@cache
def _interval_basis(k):
    return build_basis(1, k)


def assemble_and_solve_all(problem, meshes, k):
    """Assemble and solve the P_k Galerkin system on each of some 1D meshes, as one batch.

    The meshes share one MeshFamily, one element_system call and one
    solve_condensed call.  Returns one DiscreteSolution, with the relative
    algebraic residual and the normwise backward error of each mesh's own
    uncondensed system.
    """
    family = MeshFamily(meshes)
    basis = _interval_basis(k)
    a, b, sums = element_system(problem, family.mesh, basis)
    x = solve_condensed(a, b, sums, family.counts)
    quality = [solve_quality(a[lo:hi], b[lo:hi], x[lo:hi]) for lo, hi in zip(family.offsets, family.offsets[1:])]
    residuals, backward_errors = map(list, zip(*quality))
    return DiscreteSolution(family, PiecewisePolynomialField(basis, x), residuals, backward_errors)


def _require_cea_ratio(cea_ratio):
    if not 1.0 <= cea_ratio < math.inf:  # ConstantBundle's rule and message, also where no bundle is built
        raise ValueError("need finite lam > 0, cea_ratio >= 1, h_cap > 0")


def error_reports(solution, problem, m, p, cea_ratio=1.0):
    """Seminorms of u - u_h for l = 0..m, the W^{m,p} norm and the bound
    script_C(k) h^{k+1-m} |u|_{k+1,p} on each mesh of a DiscreteSolution.

    script_C(k) takes each mesh's gradient maximum and the regularity sigma = 1
    of intervals; a report states where the error lands inside the bound, and
    flags a normwise backward error above BACKWARD_ERROR_TOL (residual_ok).  Each
    seminorm is one norms.group_seminorms pass per rule and order over the
    solution's MeshFamily, with a group per mesh; norms owns the sums, their
    roots and the W^{m,p} total (sobolev_norm), and its ValueError refuses what
    floats cannot hold.
    """
    family, k = solution.family, solution.field.basis.k
    _require_cea_ratio(cea_ratio)
    admissible = SobolevIndex(m=m, p=p, n=1).admissible(k)
    err = DifferenceField(problem.u, solution.field)
    degree = 2 * k + 6
    seminorms = [[] for _ in family.meshes]
    for l in range(m + 1):
        estimates = estimated_seminorms(err, family.mesh, l, p, degree, family.offsets)
        for entries, (value, estimate) in zip(seminorms, estimates):
            entries.append({"l": l, "p": p, "value": value, "quad_error_estimate": estimate})

    hs = family.maxima(family.mesh.element_measures)
    lams = family.maxima(np.abs(family.mesh.element_gradients).max(axis=(1, 2)))
    if admissible:
        u_seminorms = group_seminorms(problem.u, family.mesh, k + 1, p, degree, family.offsets)
    reports = []
    for j, mesh in enumerate(family.meshes):
        total = sobolev_norm([s["value"] for s in seminorms[j]], p)
        bound = position = None
        if admissible:
            # sigma = 1: an interval's diameter and inscribed diameter are both its length.
            bundle = ConstantBundle(
                n=1, m=m, k=k, p=p, sigma=1.0, lam=lams[j], cea_ratio=cea_ratio, h_cap=max(hs[j], 1.0)
            )
            bound = script_c(bundle) * hs[j] ** (k + 1 - m) * u_seminorms[j]
            position = total / bound if bound > 0 else math.inf
        reports.append(
            {
                "problem": problem.name,
                "k": k,
                "m": m,
                "p": p,
                "h": hs[j],
                "elements": len(mesh),
                "residual": solution.residuals[j],
                "residual_ok": solution.backward_errors[j] <= BACKWARD_ERROR_TOL,
                "backward_error": solution.backward_errors[j],
                "seminorms": seminorms[j],
                "error": total,
                "admissible": admissible,
                "bound": bound,
                "bound_position": position,
                "pass": (total <= bound + BOUND_ABS_SLACK) if bound is not None else None,
            }
        )
    return reports


def convergence_study(problem, k, m, p, element_counts, cea_ratio=1.0):
    """Solve on a family of uniform meshes and estimate the order.

    Returns (rows, order): rows carry {k, m, p, h, error, bound, order_est}
    with order_est the running two-point slope, and order the least-squares
    log-log slope across the family.  The element counts must be distinct.
    All meshes are solved and measured as one batch.
    """
    if len(set(element_counts)) < len(element_counts):
        raise ValueError(f"element counts must be distinct, got {','.join(map(str, element_counts))}")
    _require_cea_ratio(cea_ratio)  # before the solves, not after them
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
    return rows, least_squares_order(hs, errors)


def least_squares_order(hs, errors):
    """Least-squares slope of log(error) on log(h) by math.fsum; None below two meshes or at a zero error."""
    if len(hs) < 2 or not min(errors) > 0:
        return None
    x, y = [math.log(h) for h in hs], [math.log(e) for e in errors]
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    return math.fsum((a - xm) * (b - ym) for a, b in zip(x, y)) / math.fsum((a - xm) ** 2 for a in x)
