"""Continuous P_k Galerkin solver for -u'' + u = f on an interval.

Desk-scale validation problem: homogeneous Dirichlet conditions, a
manufactured exact solution, element matrices from reference-element
quadrature (they scale exactly with the element length in 1D), and a
symmetric banded direct solve.  The global degree-of-freedom convention is
vertices first (left to right), then the k-1 interior nodes of each
element; the solver permutes to position order internally so the matrix
stays banded with half-bandwidth k.

Error reports measure W^{m,p} seminorms of u - u_h by quadrature, estimate
convergence orders from log-log slopes, and compare against the explicit
bound script_C(k) h^{k+1-m} |u|_{k+1,p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import build_basis, chain_rule_weights, tabulate
from .bounds import ConstantBundle, script_c
from .functions import AnalyticFunction, Polynomial1D, SinPiProduct
from .geometry import uniform_mesh_1d
from .norms import (
    AnalyticField,
    DifferenceField,
    PiecewisePolynomialField,
    SobolevIndex,
    seminorm,
    seminorm_with_estimate,
)
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

    @classmethod
    def quadratic(cls):
        return cls(u=Polynomial1D([0.0, 1.0, -1.0]), name="quadratic")


class DiscreteSolution:
    """Galerkin solution: mesh, basis, and global coefficient vector."""

    def __init__(self, mesh, basis, coefficients, residual):
        self.mesh = mesh
        self.basis = basis
        self.k = basis.k
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        self.residual = float(residual)
        self._field = None

    def global_index(self, element, local):
        """Global dof of local node `local` (0..k) of element `element`."""
        k = self.k
        ne = len(self.mesh)
        if local == 0:
            return element
        if local == k:
            return element + 1
        return ne + 1 + element * (k - 1) + (local - 1)

    def as_field(self):
        if self._field is None:
            ne = len(self.mesh)
            dofs = [[self.global_index(e, a) for a in range(self.basis.size)] for e in range(ne)]
            self._field = PiecewisePolynomialField(self.basis.polynomials, self.coefficients[dofs])
        return self._field

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        coefficients = self.as_field().coefficients
        verts = np.array([s.vertices[0, 0] for s in self.mesh.simplices] + [self.mesh.simplices[-1].vertices[1, 0]])
        idx = np.clip(np.searchsorted(verts, x, side="right") - 1, 0, len(self.mesh) - 1)
        out = np.empty_like(x)
        for e in np.unique(idx):
            sel = idx == e
            lam = self.mesh.simplices[e].barycentric(x[sel].reshape(-1, 1))
            out[sel] = coefficients[e] @ tabulate(self.basis.polynomials, lam, 0)[0]
        return out


def _local_dof_positions(basis):
    # Node with index (k-i, i) sits at relative position i/k.
    return [float(node[1]) for node in basis.nodes]


def assemble_and_solve(problem, mesh, k, rhs_degree=None):
    """Assemble and solve the P_k Galerkin system on a 1D mesh.

    Element stiffness and mass are computed once on the reference interval
    with exactness >= 2k and scaled per element; the load vector uses a
    rule of exactness >= 2k + 8 because f is generally not polynomial.
    Returns a DiscreteSolution with its relative algebraic residual.
    """
    if mesh.n != 1:
        raise ValueError("assemble_and_solve is restricted to 1D meshes")
    basis = build_basis(1, k)
    nloc = basis.size
    ne = len(mesh)
    ndof = ne + 1 + ne * (k - 1)

    rule = interval_rule(2 * k)
    vals = tabulate(basis.polynomials, rule.points, 0)[0]
    ref_unit = uniform_mesh_1d(0.0, 1.0, 1).simplices[0]
    dvals = np.tensordot(chain_rule_weights(ref_unit, (1,)), tabulate(basis.polynomials, rule.points, 1), axes=1)
    mass_ref = np.einsum("q,aq,bq->ab", rule.weights, vals, vals)
    stiff_ref = np.einsum("q,aq,bq->ab", rule.weights, dvals, dvals)

    load_rule = interval_rule(rhs_degree if rhs_degree is not None else 2 * k + 8)
    load_vals = tabulate(basis.polynomials, load_rule.points, 0)[0]

    def gdof(e, a):
        if a == 0:
            return e
        if a == k:
            return e + 1
        return ne + 1 + e * (k - 1) + (a - 1)

    # Positions of every dof, for the band-preserving permutation.
    positions = np.empty(ndof)
    rel = _local_dof_positions(basis)
    for e, simplex in enumerate(mesh.simplices):
        x0 = simplex.vertices[0, 0]
        h = simplex.vertices[1, 0] - x0
        for a in range(nloc):
            positions[gdof(e, a)] = x0 + rel[a] * h

    boundary = {0, ne}
    free = [d for d in range(ndof) if d not in boundary]
    order = sorted(free, key=lambda d: positions[d])
    rank = {d: i for i, d in enumerate(order)}
    nfree = len(order)

    # Symmetric banded storage, upper form: ab[k + i - j, j] = A[i, j].
    ab = np.zeros((k + 1, nfree))
    rhs = np.zeros(nfree)
    for e, simplex in enumerate(mesh.simplices):
        h = simplex.vertices[1, 0] - simplex.vertices[0, 0]
        a_elem = stiff_ref / h + mass_ref * h
        phys = simplex.to_physical(load_rule.points)
        fvals = problem.f_values(phys)
        b_elem = h * (load_vals * (load_rule.weights * fvals)).sum(axis=1)
        gl = [gdof(e, a) for a in range(nloc)]
        for a in range(nloc):
            ga = gl[a]
            if ga in boundary:
                continue
            ia = rank[ga]
            rhs[ia] += b_elem[a]
            for b in range(nloc):
                gb = gl[b]
                if gb in boundary:
                    continue
                ib = rank[gb]
                if ia <= ib:
                    ab[k + ia - ib, ib] += a_elem[a, b]

    from scipy.linalg import solveh_banded

    sol = solveh_banded(ab, rhs, lower=False)

    # Residual relative to the load, with A x taken from the band storage.
    ax = ab[k] * sol
    for d in range(1, k + 1):
        band = ab[k - d, d:]
        ax[:-d] += band * sol[d:]
        ax[d:] += band * sol[:-d]
    res = np.linalg.norm(ax - rhs) / max(np.linalg.norm(rhs), np.finfo(float).tiny)

    coefficients = np.zeros(ndof)
    for d, i in rank.items():
        coefficients[d] = sol[i]
    return DiscreteSolution(mesh, basis, coefficients, res)


def error_field(solution, problem):
    return DifferenceField(AnalyticField(problem.u), solution.as_field())


def error_report(solution, problem, m, p, sigma=None, cea_ratio=1.0):
    """Seminorms of u - u_h for l = 0..m, the W^{m,p} norm, and the bound.

    The bound side uses script_C(k) built from the mesh quantities (the
    gradient maximum over elements; sigma defaults to the mesh's own
    regularity) times h^{k+1-m} |u|_{k+1,p}.  The report states where the
    measured error lands inside the bound interval; nothing stronger than
    measured <= bound is asserted.
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
            sigma=sigma if sigma is not None else max(mesh.sigma, 1.0),
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
        "seminorms": seminorms,
        "error": total,
        "admissible": admissible,
        "bound": bound,
        "bound_position": position,
        "pass": (total <= bound + BOUND_ABS_SLACK) if bound is not None else None,
    }


def convergence_study(problem, k, m, p, element_counts, sigma=None, cea_ratio=1.0):
    """Solve on a family of uniform meshes and estimate the order.

    Returns (rows, order): rows carry {k, m, p, h, error, bound, order_est}
    with order_est the running two-point slope, and order the least-squares
    log-log slope across the family.
    """
    rows = []
    errors = []
    hs = []
    for ne in element_counts:
        mesh = uniform_mesh_1d(0.0, 1.0, ne)
        sol = assemble_and_solve(problem, mesh, k)
        rep = error_report(sol, problem, m, p, sigma=sigma, cea_ratio=cea_ratio)
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
