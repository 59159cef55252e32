"""Float evaluation of a polynomial list at many points.

A list of polynomials in nvars variables is one exponent array shared by the
list, its distinct monomials prod_v x_v ** exps[t, v], and one coefficient
matrix C with a column per polynomial.  The values at a point set are V @ C,
V being the (npts, nterms) table of the monomials' values.  This is the one
float evaluation routine of the package: shape-function tables are built
from it once per rule, and the pointwise scans call it on blocks of points.
"""

import numpy as np


def eval_terms(points, exps, coeffs):
    """Values V @ coeffs of a polynomial list at many points.

    points : (npts, nvars) float64
    exps   : (nterms, nvars) int64, the monomials of the whole list
    coeffs : (nterms, npolys) float64, or (nterms,) for one polynomial
    returns (npts, npolys) float64, or (npts,)
    """
    pts = np.asarray(points, dtype=np.float64)
    nterms, nvars = exps.shape
    if pts.shape[1] != nvars:
        raise ValueError(f"points have {pts.shape[1]} coordinates, expected {nvars}")
    # powers[v, :, e] = x_v ** e; V gathers one column of it per variable.
    powers = pts.T[:, :, None] ** np.arange(exps.max(initial=0) + 1)
    monomials = np.ones((len(pts), nterms))
    for v in range(nvars):
        monomials *= powers[v][:, exps[:, v]]
    return monomials @ coeffs
