"""Continuous P_k Galerkin solver for -u'' + u = f on an interval.

Homogeneous Dirichlet conditions and a manufactured exact solution.  Element
matrices scale reference-interval tables, built once per degree, by the
element length (exact in 1D).  Global dofs are the vertices left
to right, then the k-1 interior nodes of each element.  The solve is numpy
only: static condensation of the interior nodes, then cyclic reduction of the
tridiagonal vertex system.  Error reports measure W^{m,p} seminorms of u - u_h, estimate
orders from log-log slopes and compare with script_C(k) h^{k+1-m} |u|_{k+1,p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import build_basis, tabulate
from .bounds import ConstantBundle, script_c
from .functions import AnalyticFunction, Polynomial1D, SinPiProduct
from .geometry import uniform_mesh_1d
from .norms import AnalyticField, DifferenceField, PiecewisePolynomialField, SobolevIndex, seminorm, seminorm_with_estimate
from .quadrature import interval_rule

# Residual threshold for a solve to count as converged.
RESIDUAL_REL_TOL = 1e-10

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


class DiscreteSolution:
    """Galerkin solution: mesh, basis, global coefficient vector and solve quality.

    residual is ||A x - b||_2 / ||b||_2 of the uncondensed system; backward_error
    is the normwise ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).
    """

    def __init__(self, mesh, basis, coefficients, residual, backward_error):
        self.mesh = mesh
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


def solve_condensed(a, b):
    """Global coefficients of the element systems (a, b) with zero end values.

    Each element's interior unknowns are eliminated with a batched Cholesky
    factor L of its interior block (LinAlgError if not positive definite); the
    2x2 Schur complements form the tridiagonal vertex system of cyclic_reduction,
    and the interior values follow by back-substitution with L."""
    ne, k = a.shape[0], a.shape[1] - 1
    ends, inner = [0, k], slice(1, k)
    chol = np.linalg.cholesky(a[:, inner, inner])
    y = _lower_solve(chol, np.concatenate([a[:, inner][:, :, ends], b[:, inner, None]], axis=2))
    yv, yb = y[:, :, :2], y[:, :, 2:]
    schur = a[:, ends][:, :, ends] - np.einsum("eiv,eiw->evw", yv, yv)
    load = b[:, ends] - np.einsum("eiv,eic->ev", yv, yb)
    pairs = element_dofs(ne, 1).ravel()
    diag = np.bincount(pairs, np.diagonal(schur, axis1=1, axis2=2).ravel(), ne + 1)
    rhs = np.bincount(pairs, load.ravel(), ne + 1)
    xv = np.concatenate([[0.0], cyclic_reduction(diag[1:ne], schur[1:-1, 0, 1], rhs[1:ne]), [0.0]])
    # L^T x = z is solved as the lower triangular system of both reversed.
    xi = _lower_solve(chol.transpose(0, 2, 1)[:, ::-1, ::-1], (yb - yv @ xv[pairs].reshape(ne, 2, 1))[:, ::-1])
    return np.concatenate([xv, xi[:, ::-1].ravel()])


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


def assemble_and_solve(problem, mesh, k):
    """Assemble and solve the P_k Galerkin system on a 1D mesh.

    Returns a DiscreteSolution with its relative algebraic residual and its
    normwise backward error, both taken on the uncondensed system.
    """
    if mesh.n != 1:
        raise ValueError("assemble_and_solve is restricted to 1D meshes")
    basis = _interval_basis(k)
    a, b = element_system(problem, mesh, basis)
    coefficients = solve_condensed(a, b)
    return DiscreteSolution(mesh, basis, coefficients, *solve_quality(a, b, coefficients))


def error_field(solution, problem):
    return DifferenceField(AnalyticField(problem.u), solution.as_field())


def error_report(solution, problem, m, p, cea_ratio=1.0):
    """Seminorms of u - u_h for l = 0..m, the W^{m,p} norm, and the bound.

    The bound side uses script_C(k) built from the mesh quantities (the
    gradient maximum over elements and the regularity max(sigma, 1)) times
    h^{k+1-m} |u|_{k+1,p}.  The report states where the measured error lands
    inside the bound interval; nothing stronger than measured <= bound is
    asserted.  residual_ok flags a solve whose relative
    residual exceeds RESIDUAL_REL_TOL; backward_error is the solve's
    normwise backward error.
    """
    mesh, k = solution.mesh, solution.k
    idx = SobolevIndex(m=m, p=p, n=1)
    admissible = idx.admissible(k)
    err = error_field(solution, problem)
    degree = 2 * k + 6
    seminorms = []
    powers = []
    for l in range(m + 1):
        value, est = seminorm_with_estimate(err, mesh, l, p, degree=degree)
        seminorms.append({"l": l, "p": p, "value": value, "quad_error_estimate": est})
        powers.append(value**p)
    total = math.fsum(powers) ** (1.0 / p)

    bound = None
    position = None
    if admissible:
        bundle = ConstantBundle(
            n=1,
            m=m,
            k=k,
            p=p,
            sigma=max(mesh.sigma, 1.0),
            lam=mesh.gradient_max,
            cea_ratio=cea_ratio,
            h_cap=max(mesh.h, 1.0),
        )
        u_seminorm = seminorm(problem.u, mesh, k + 1, p, degree=degree)
        bound = script_c(bundle) * mesh.h ** (k + 1 - m) * u_seminorm
        position = total / bound if bound > 0 else math.inf
    return {
        "problem": problem.name,
        "k": k,
        "m": m,
        "p": p,
        "h": mesh.h,
        "elements": len(mesh),
        "residual": solution.residual,
        "residual_ok": solution.residual <= RESIDUAL_REL_TOL,
        "backward_error": solution.backward_error,
        "seminorms": seminorms,
        "error": total,
        "admissible": admissible,
        "bound": bound,
        "bound_position": position,
        "pass": (total <= bound + BOUND_ABS_SLACK) if bound is not None else None,
    }


def convergence_study(problem, k, m, p, element_counts, cea_ratio=1.0):
    """Solve on a family of uniform meshes and estimate the order.

    Returns (rows, order): rows carry {k, m, p, h, error, bound, order_est}
    with order_est the running two-point slope, and order the least-squares
    log-log slope across the family.  The element counts must be distinct.
    """
    if len(set(element_counts)) < len(element_counts):
        raise ValueError(f"element counts must be distinct, got {','.join(map(str, element_counts))}")
    rows = []
    errors = []
    hs = []
    for ne in element_counts:
        mesh = uniform_mesh_1d(0.0, 1.0, ne)
        sol = assemble_and_solve(problem, mesh, k)
        rep = error_report(sol, problem, m, p, cea_ratio=cea_ratio)
        hs.append(mesh.h)
        errors.append(rep["error"])
        rows.append(
            {
                "k": k,
                "m": m,
                "p": p,
                "h": mesh.h,
                "error": rep["error"],
                "bound": rep["bound"],
                "order_est": (
                    math.log(errors[-2] / errors[-1]) / math.log(hs[-2] / hs[-1])
                    if len(errors) > 1 and errors[-1] > 0
                    else None
                ),
                "pass": rep["pass"],
            }
        )
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0]) if len(hs) > 1 else None
    return rows, slope


def empirical_crossover(problem, k1, k2, m, p, element_counts, seminorm_ratio=None):
    """Tabulate measured errors of two degrees against the predicted law.

    For each mesh the row records both errors, their ratio, the model
    critical size from the explicit formula (seminorm ratio measured from
    the exact solution unless supplied), and the nonlinear-law value at h.
    """
    from .probability import AccuracyLaw, h_star_explicit

    if seminorm_ratio is None:
        mesh0 = uniform_mesh_1d(0.0, 1.0, element_counts[0])
        degree = 2 * max(k1, k2) + 8
        s1 = seminorm(problem.u, mesh0, k1 + 1, p, degree=degree)
        s2 = seminorm(problem.u, mesh0, k2 + 1, p, degree=degree)
        seminorm_ratio = s1 / s2
    hs = h_star_explicit(1, m, p, k1, k2, seminorm_ratio=seminorm_ratio)
    law = AccuracyLaw(h_star=hs, exponent=k2 - k1, kind="nonlinear")
    rows = []
    for ne in element_counts:
        mesh = uniform_mesh_1d(0.0, 1.0, ne)
        e1 = error_report(assemble_and_solve(problem, mesh, k1), problem, m, p)["error"]
        e2 = error_report(assemble_and_solve(problem, mesh, k2), problem, m, p)["error"]
        rows.append(
            {
                "h": mesh.h,
                "error_k1": e1,
                "error_k2": e2,
                "higher_wins": e2 <= e1,
                "h_star_model": hs,
                "probability_model": float(law(mesh.h)),
            }
        )
    return rows
