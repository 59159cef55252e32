"""Float evaluation of term-list polynomials at many points.

A polynomial is a list of terms, term t being
coeffs[t] * prod_v points[:, v] ** exps[t, v].  This is the one float
evaluation routine of the package: shape-function tables are built from it
once per rule, and the pointwise scans call it on large point blocks.
"""

import numpy as np


def _as_point_array(points, nvars):
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != nvars:
        raise ValueError(f"points have {pts.shape[1]} coordinates, expected {nvars}")
    return pts


def _eval(pts, exps, coeffs):
    return (pts[:, None, :] ** exps[None, :, :]).prod(axis=2) @ coeffs


def eval_terms(points, exps, coeffs):
    """Evaluate one term-list polynomial at many points.

    points : (npts, nvars) float64, or one point of shape (nvars,)
    exps   : (nterms, nvars) int64
    coeffs : (nterms,) float64
    returns (npts,) float64
    """
    pts = _as_point_array(points, exps.shape[1])
    if exps.shape[0] == 0:
        return np.zeros(pts.shape[0])
    return _eval(pts, exps, coeffs)


def max_abs_eval(points, exps, coeffs):
    """max(|polynomial|) over the given points."""
    pts = _as_point_array(points, exps.shape[1])
    if exps.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(_eval(pts, exps, coeffs))))
