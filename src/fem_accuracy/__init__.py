"""Accuracy toolkit for Lagrange simplex finite elements.

Exact degree-k shape functions on n-simplices, explicit pointwise and
seminorm caps, the k-explicit constant of the W^{m,p} error estimate,
critical mesh sizes for comparing two degrees, the probabilistic accuracy
laws built on them, and a 1D Galerkin study that checks the whole chain
numerically.
"""

from .basis import (
    BarycentricPolynomial,
    PkBasis,
    auxiliary_factor,
    build_basis,
    chain_rule_weights,
    multi_indices,
    tabulate,
)
from .bounds import (
    BoundCheck,
    ConstantBundle,
    local_interp_bound,
    log_script_c,
    point_bound_check,
    script_c,
    seminorm_bound_check,
    xi,
)
from .fem1d import (
    DiscreteSolution,
    ModelProblem,
    assemble_and_solve_all,
    convergence_study,
    error_reports,
)
from .functions import Polynomial1D, SinPiProduct
from .geometry import (
    DegenerateSimplexError,
    Simplex,
    SimplexMesh,
    reference_simplex,
    structured_mesh_2d,
    uniform_mesh_1d,
)
from .norms import (
    AdmissibilityError,
    AnalyticField,
    DifferenceField,
    PiecewisePolynomialField,
    SobolevIndex,
    interpolation_error,
    seminorm,
    seminorm_with_estimate,
)
from .probability import (
    AccuracyLaw,
    Bump,
    ElementPair,
    GeometricSeminormModel,
    SinPiSeminormModel,
    h_star,
    h_star_explicit,
    h_star_sequence,
    weak_star_pairing,
    weak_star_test,
)
from .quadrature import QuadratureRule, interval_rule, simplex_rule

__version__ = "0.1.0"
