"""Certified bounds for Banach-Mazur distances between sequence spaces.

Lower bounds come from exact rational infeasibility certificates for a
four-case family of linear inequality systems; upper bounds from operator
norms of an explicit block isomorphism.  See the README for the CLI and
the acceptance suite.
"""

# The one version literal; set before the submodule imports, which read it.
__version__ = "0.1.0"

from .exactlp import (
    FeasibilityResult,
    LinearInequality,
    LinearSystem,
    check_feasibility,
    enumerate_vertices,
    simplex_feasibility,
    verify_certificate,
)
from .systems import (
    ALL_CASES,
    CPolicy,
    DEFAULT_POLICY,
    JCase,
    Variant,
    build_case_system,
    build_dichotomy_systems,
    parse_system_file,
    serialize_system,
)
from .certify import (
    CaseReport,
    CertifiedBound,
    binary_search_bound,
    certify_at,
    certify_dichotomy,
    sweep_policies,
    verify_cert_file,
)
from .bounds import (
    check_h_decreasing,
    check_s_increasing,
    gp_lower_bound,
    h_theta,
    lower_bound_height,
    s_theta,
    solve_threshold,
)
from .upperiso import (
    IsoMatrices,
    NormReport,
    TruncatedFunction,
    apply_S,
    apply_T,
    build_matrices,
    cubic_formula_value,
    operator_norm_S,
    operator_norm_T,
    optimize_distortion,
    scan_distortion,
)
