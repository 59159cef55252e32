"""Accuracy toolkit for Lagrange simplex finite elements.

Exact degree-k shape functions on n-simplices, explicit pointwise and
seminorm caps, the k-explicit constant of the W^{m,p} error estimate,
critical mesh sizes for comparing two degrees, the probabilistic accuracy
laws built on them, and a 1D Galerkin study that checks the whole chain
numerically.

Importing the package loads none of its modules.  Each exported name is
imported from its module on first access (PEP 562) and kept here, so a
caller pays only for the layers it uses; only some of them import numpy.
"""

import importlib

# The module that defines each exported name.
_MODULES = {
    "basis": "BarycentricPolynomial PkBasis auxiliary_factor build_basis multi_indices",
    "bounds": "BoundCheck point_bound_check seminorm_bound_check",
    "constants": "AdmissibilityError ConstantBundle SobolevIndex log_script_c script_c",
    "fem1d": "DiscreteSolution ModelProblem assemble_and_solve_all convergence_study error_reports",
    "functions": "Polynomial1D SinPiProduct",
    "geometry": "DegenerateSimplexError SimplexMesh reference_simplex structured_mesh_2d uniform_mesh_1d",
    "kernels": "chain_rule_weights tabulate",
    "norms": "DifferenceField PiecewisePolynomialField interpolation_error seminorm seminorm_with_estimate",
    "probability": (
        "AccuracyLaw Bump ElementPair GeometricSeminormModel SinPiSeminormModel"
        " h_star h_star_explicit h_star_sequence h_stars weak_star_pairing weak_star_test"
    ),
    "quadrature": "QuadratureRule interval_rule simplex_rule",
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return [*__all__, "__version__"]
