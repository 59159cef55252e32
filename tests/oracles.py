"""Independent reference computations used by the tests.

These deliberately avoid the package's own quadrature and evaluation
paths: monomial integrals over a simplex come from the closed-form
factorial formula, polynomial evaluation is done in exact rational
arithmetic, and one-dimensional integrals come from scipy's adaptive
quadrature, so each test compares two genuinely different routes.
"""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np

from fem_accuracy.basis import BarycentricPolynomial
from fem_accuracy.constants import log_k_factor
from fem_accuracy.functions import AnalyticFunction
from fem_accuracy.geometry import SimplexMesh, simplex_geometry
from fem_accuracy.probability import _panel_integral

# pi to 60 significant digits.
PI_60 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


class Exp1D(AnalyticFunction):
    """exp(a x); derivatives multiply by a^r."""

    n = 1

    def __init__(self, a=1.0):
        self.a = float(a)

    def deriv_values(self, alpha, x):
        (r,) = alpha
        x = self._points(x)[:, 0]
        return self.a**r * np.exp(self.a * x)


def monomial_integral(exps, n, measure=None):
    """Exact integral of prod lambda_i^{e_i} over an n-simplex.

    Equals mes(K) * n! * prod(e_i!) / (sum(e_i) + n)!.  measure defaults
    to the reference simplex measure 1/n!.
    """
    if measure is None:
        measure = Fraction(1, math.factorial(n))
    num = Fraction(math.factorial(n))
    for e in exps:
        num *= math.factorial(e)
    return measure * num / math.factorial(sum(exps) + n)


def polynomial_integral(poly, n, measure=None):
    """Exact integral of a BarycentricPolynomial with rational coefficients."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        total += Fraction(c) * monomial_integral(e, n, measure)
    return total


def polynomial_product(p, q):
    """Exact product of two BarycentricPolynomials by the term-by-term double
    loop, like terms summed; terms in order of first appearance, p's outermost."""
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return BarycentricPolynomial(p.nvars, terms)


def embedded(poly1d, nvars, var):
    """A polynomial in one variable as the same polynomial in variable `var` of nvars."""
    return BarycentricPolynomial(nvars, {tuple(e if v == var else 0 for v in range(nvars)): c for (e,), c in poly1d.terms.items()})


def lambda_derivative(poly, orders):
    """Iterated derivative of a BarycentricPolynomial, exactly; orders[v] counts derivatives in
    variable v, one entry per variable.  c * lambda^e gives c * prod_v e_v!/(e_v - orders[v])! or 0."""
    terms = {}
    for e, c in poly.terms.items():
        if all(p >= o for p, o in zip(e, orders, strict=True)):
            terms[tuple(p - o for p, o in zip(e, orders))] = c * math.prod(map(math.perm, e, orders))
    return BarycentricPolynomial(poly.nvars, terms)


def rational_eval(poly, lam):
    """Exact evaluation at a rational barycentric point."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        term = Fraction(c)
        for x, p in zip(lam, e):
            term *= Fraction(x) ** p
        total += term
    return total


def exact_derivative_values(basis, orders, shape_functions, points):
    """d^orders phi_i of the listed shape functions i at float barycentric points, exactly.

    Each derivative is the exact term map of lambda_derivative, evaluated in
    rational arithmetic at the exact values of the float coordinates: a float
    coordinate is a / 2^b, so every term is an integer over the least common
    denominator of the coefficients times a power of two.  Returns a list (one
    per shape function) of lists of Fractions (one per point).
    """
    lam = [[Fraction(x).as_integer_ratio() for x in row] for row in np.asarray(points, dtype=np.float64).tolist()]
    out = []
    for i in shape_functions:
        terms = lambda_derivative(basis.polynomials[i], orders).terms
        common = math.lcm(*(c.denominator for c in terms.values()))
        values = []
        for point in lam:
            shifts = {e: sum(p * (den.bit_length() - 1) for p, (_, den) in zip(e, point)) for e in terms}
            top = max(shifts.values(), default=0)
            total = sum(
                c.numerator * (common // c.denominator) * math.prod(num**p for p, (num, _) in zip(e, point)) << (top - shifts[e])
                for e, c in terms.items()
            )
            values.append(Fraction(total, common << top))
        out.append(values)
    return out


def factor_magnitudes(k, t, order):
    """m[r][i] for i <= k and r <= order: the r-th derivative of the node factor a_i at t >= 0, with
    every linear factor's two terms taken in absolute value.  m[0][0] = 1, and factor c sends
    m^{(r)} to m^{(r)} (k t + c - 1) / c + r m^{(r-1)} k / c, exactly.  It bounds |a_i^{(r)}(t)|
    and scales the rounding of the float recurrence of kernels.factor_tables."""
    t = Fraction(t)
    m = [[Fraction(int(r == 0))] for r in range(order + 1)]
    for c in range(1, k + 1):
        for r in range(order, -1, -1):
            m[r].append(m[r][-1] * (k * t + c - 1) / c + (r * m[r - 1][-1] * Fraction(k, c) if r else 0))
    return m


def exact_solve(matrix, rhs):
    """The solution of a nonsingular system, lists of Fractions, by Gaussian elimination in exact
    arithmetic.  Rows are kept as maps of their nonzero entries, so a banded matrix stays cheap."""
    n = len(rhs)
    rows = [{j: v for j, v in enumerate(row) if v != 0} for row in matrix]
    rhs = list(rhs)
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i].get(col, 0) != 0)
        rows[col], rows[pivot], rhs[col], rhs[pivot] = rows[pivot], rows[col], rhs[pivot], rhs[col]
        for i in range(col + 1, n):
            if col in rows[i]:
                f = rows[i].pop(col) / rows[col][col]
                for j, v in rows[col].items():
                    if j != col:
                        rows[i][j] = rows[i].get(j, 0) - f * v
                rhs[i] -= f * rhs[col]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rhs[i] - sum(v * x[j] for j, v in rows[i].items() if j != i)) / rows[i][i]
    return x


def element_dofs(ne, k):
    """Global numbering of the k+1 local nodes of every element of a 1D P_k chain, shape (ne, k+1):
    the vertices left to right, then the k-1 interior nodes of each element."""
    elements = np.arange(ne)
    dofs = np.empty((ne, k + 1), dtype=np.int64)
    dofs[:, 0] = elements
    dofs[:, k] = elements + 1
    dofs[:, 1:k] = ne + 1 + elements[:, None] * (k - 1) + np.arange(k - 1)
    return dofs


def global_coefficients(coefficients):
    """Element-layout coefficients (ne, k+1) of a continuous 1D P_k function as one vector
    in element_dofs' numbering."""
    ne, k = coefficients.shape[0], coefficients.shape[1] - 1
    x = np.empty(ne * k + 1)
    x[element_dofs(ne, k)] = coefficients
    return x


def exact_residual(a, b, x):
    """The residual A x - b of a 1D Galerkin system on its free dofs, exactly, from float element
    matrices a (ne, k+1, k+1), loads b (ne, k+1) and global coefficients x, whose values at the
    two end vertices are ignored.  A and b are assembled exactly from the element entries.

    Returns (r, scale, load), lists of Fractions over the free dofs in global order: r = A x - b,
    scale = sum_e |a_e||x| + |b_e| (at least |A||x| + |b|) and load = b.
    """
    ne, k = a.shape[0], a.shape[1] - 1
    xs = [Fraction(v) for v in np.asarray(x, dtype=np.float64).tolist()]
    xs[0] = xs[ne] = Fraction(0)
    r, scale, load = ([Fraction(0)] * len(xs) for _ in range(3))
    for dofs, element, loads in zip(element_dofs(ne, k).tolist(), a.tolist(), b.tolist()):
        for i, row, value in zip(dofs, element, loads):
            terms = [Fraction(entry) * xs[j] for entry, j in zip(row, dofs)]
            r[i] += sum(terms) - Fraction(value)
            scale[i] += sum(map(abs, terms)) + abs(Fraction(value))
            load[i] += Fraction(value)
    free = [i for i in range(len(xs)) if i not in (0, ne)]
    return [r[i] for i in free], [scale[i] for i in free], [load[i] for i in free]


def loglog_slope(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs, float)), np.log(np.asarray(errors, float)), 1)[0])


def interval_geometry(x0, x1):
    """Geometry of the interval [x0, x1] from its exact signed length, rounded once.

    Returns (measure, diameter, barycentric gradients, inscribed diameter)
    like a per-simplex loop: the first, second and last are |L|, and the
    gradients of lambda_0, lambda_1 are -1/L and 1/L, each rounded once.
    """
    length = Fraction(float(Fraction(x1) - Fraction(x0)))
    size = float(abs(length))
    return size, size, np.array([[float(-1 / length)], [float(1 / length)]]), size


def solution_values(solution, x):
    """A 1D Galerkin solution u_h of one mesh at the points x, without the package's shape functions.

    Each point is taken in the element whose left end is the last one at or
    below it (the first and last elements take the points beyond the ends).
    There u_h is the barycentric Lagrange interpolant (Berrut & Trefethen,
    SIAM Rev. 46(3), 2004) through the element's k+1 nodal values
    solution.field.coefficients[e], taken at the equispaced nodes j/k of the
    local coordinate, with weights (-1)^j binom(k, j).
    """
    coefficients, ends = solution.field.coefficients, solution.family.mesh.element_vertices[:, :, 0]
    k = coefficients.shape[1] - 1
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    e = np.clip(np.searchsorted(ends[:, 0], x, side="right") - 1, 0, len(ends) - 1)
    t = (x - ends[e, 0]) / (ends[e, 1] - ends[e, 0])
    values = coefficients[e]
    weights = np.array([(-1) ** j * math.comb(k, j) for j in range(k + 1)], dtype=np.float64)
    diff = t[:, None] - np.arange(k + 1) / k
    at_node = diff == 0.0
    terms = weights / np.where(at_node, 1.0, diff)
    out = (terms * values).sum(axis=1) / terms.sum(axis=1)
    rows, cols = np.nonzero(at_node)
    out[rows] = values[rows, cols]
    return out


def one_element_mesh(vertices):
    """The SimplexMesh whose one element is the simplex over vertices, (n+1, n)."""
    vertices = np.asarray(vertices, dtype=np.float64)
    return SimplexMesh(vertices, [range(len(vertices))])


def gradient_max(mesh):
    """Largest absolute barycentric gradient entry over a mesh's elements."""
    return float(np.abs(mesh.element_gradients).max())


def size_and_regularity(mesh):
    """(h, sigma) of a mesh from simplex_geometry: its largest element diameter, and
    the largest ratio of an element's diameter to its inscribed diameter."""
    _, _, diameters, inscribed = simplex_geometry(mesh.element_vertices)
    return float(diameters.max()), float((diameters / inscribed).max())


def barycentric(simplex, x):
    """Barycentric coordinates of physical points x, (n,) or (npts, n), in a one-element mesh,
    from its gradients G: lambda(x) = e_0 + G (x - v_0), since lambda(v_0) = e_0."""
    x = np.asarray(x, dtype=np.float64)
    return np.eye(simplex.n + 1)[0] + (x - simplex.vertices[0]) @ simplex.element_gradients[0].T


def simplex_mesh(simplices):
    """Mesh of separately built one-element meshes: their vertex stacks one after
    another, each element indexing its own n+1 rows."""
    vertices = np.concatenate([s.vertices for s in simplices])
    return SimplexMesh(vertices, np.arange(len(vertices)).reshape(len(simplices), -1))


def lattice_by_combinations(n, subdivisions):
    """barycentric_lattice by stars and bars: each n-subset of the
    subdivisions + n slots splits the subdivisions into n+1 parts."""
    pts = []
    for combo in itertools.combinations(range(subdivisions + n), n):
        prev = -1
        coords = []
        for c in combo:
            coords.append(c - prev - 1)
            prev = c
        coords.append(subdivisions + n - 1 - prev)
        pts.append(coords)
    return np.asarray(pts, dtype=np.float64) / subdivisions


def sin_seminorm_by_quadrature(r, p):
    """|sin(pi .)|_{r,p} on (0, 1) as pi^r c_p, with c_p^p the integral of
    |sin(pi t)|^p over (0, 1) by adaptive quadrature (every derivative is a
    shifted sine of the same L^p size)."""
    from scipy import integrate

    cpp, _ = integrate.quad(lambda t: abs(math.sin(math.pi * t)) ** p, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    return math.pi**r * cpp ** (1.0 / p)


def k_factor(n, m, p, k):
    """(k+n)^n k^{m(n+2)} / ((k-m)! (k+1-m-n/p)) as a Fraction, for a rational p."""
    return Fraction((k + n) ** n * k ** (m * (n + 2)), math.factorial(k - m)) / (k + 1 - m - n / Fraction(p))


def h_star_power(n, m, p, k1, k2):
    """h*^(k2-k1) = K(k1) / K(k2) exactly, for unit seminorm and Cea ratios."""
    return k_factor(n, m, p, k1) / k_factor(n, m, p, k2)


def root_relative_error(h, power, q):
    """|h / power^(1/q) - 1| for a float h, with h^q formed exactly so only
    the final ratio near 1 is rounded."""
    return abs(math.expm1(math.log(float(Fraction(h) ** q / power)) / q))


def decimal_h_star(k, q, ratio, n=1, m=0, p=2.0):
    """h*(q) of the pair (k, k+q) to 60 digits: (K(k) / K(k+q))^(1/q) / ratio, with K the exact
    k_factor and ratio the seminorm ratio |u|_{r+1,p} / |u|_{r,p} as a Decimal (PI_60 for sin(pi x))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        power = k_factor(n, m, p, k) / k_factor(n, m, p, k + q)
        return ((decimal.Decimal(power.numerator) / power.denominator).ln() / q).exp() / ratio


def ulps_from(value, reference):
    """|value - reference| in units of the last place of the float value, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(abs(decimal.Decimal(value) - reference) / decimal.Decimal(math.ulp(value)))


def xi(m, p, h):
    """Geometric-sum factor (sum_{j=0..m} h^{jp})^{1/p} in floats.

    Written as the explicit sum, which equals the closed form
    ((1 - h^{p(m+1)}) / (1 - h^p))^{1/p} for h != 1 and is continuous
    through h = 1 where the closed form degenerates.
    """
    if h <= 0 or p <= 0 or m < 0:
        raise ValueError("need h > 0, p > 0, m >= 0")
    return math.fsum(h ** (j * p) for j in range(m + 1)) ** (1.0 / p)


def c1_constant(bundle):
    """1 + (n(n+1) sigma)^m lam* m! / n! in floats, with the gradient factor lam* = max(1, lam^m)."""
    n, m = bundle.n, bundle.m
    return 1.0 + (n * (n + 1) * bundle.sigma) ** m * max(1.0, bundle.lam**m) * math.factorial(m) / math.factorial(n)


def c2_constant(n):
    """1 + 1/n! in floats."""
    return 1.0 + 1.0 / math.factorial(n)


def decimal_log_script_c(bundle):
    """log script_C(k) of the bundle to 60 digits, each float input taken at its exact value.

    cea_ratio max(c1, c2) K(k) is an exact rational, of which the log is taken once; xi is
    (sum_j exp(j p log h_cap))^{1/p} by Decimal ln and exp.
    """
    n, m, p = bundle.n, bundle.m, bundle.p
    lam_star = max(1, Fraction(bundle.lam) ** m)
    c1 = 1 + (n * (n + 1) * Fraction(bundle.sigma)) ** m * lam_star * Fraction(math.factorial(m), math.factorial(n))
    c2 = 1 + Fraction(1, math.factorial(n))
    front = Fraction(bundle.cea_ratio) * max(c1, c2) * k_factor(n, m, p, bundle.k)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        log_h, p_60 = decimal.Decimal(bundle.h_cap).ln(), decimal.Decimal(p)
        xi_p = sum((j * p_60 * log_h).exp() for j in range(m + 1))
        return decimal.Decimal(front.numerator).ln() - decimal.Decimal(front.denominator).ln() + xi_p.ln() / p_60


def local_interp_bound(bundle, u_seminorm, h_element, l):
    """Right-hand side of the local interpolation estimate for order l.

    Order l = 0 carries the full h^{k+1} power with the c2 constant; orders
    1..m carry h^{k+1-l} with the c1 constant.  u_seminorm is
    |u|_{k+1,p,K}; h_element the element diameter.
    """
    if l < 0 or l > bundle.m:
        raise ValueError("need 0 <= l <= m")
    if u_seminorm < 0 or h_element <= 0:
        raise ValueError("need u_seminorm >= 0 and h_element > 0")
    if u_seminorm == 0:
        return 0.0
    front = c2_constant(bundle.n) if l == 0 else c1_constant(bundle)
    power = bundle.k + 1 - l
    log_rhs = (
        math.log(front)
        + log_k_factor(bundle.n, bundle.m, bundle.p, bundle.k)
        + math.log(u_seminorm)
        + power * math.log(h_element)
    )
    return math.exp(log_rhs)


def bump_mass(bump):
    """The integral of a Bump over its support, by the panel rule the weak-* pairings use."""
    return _panel_integral(bump, bump.a, bump.b)
