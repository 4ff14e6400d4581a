"""Certified bounds for Banach-Mazur distances between sequence spaces.

Lower bounds come from exact rational infeasibility certificates for a
four-case family of linear inequality systems; upper bounds from operator
norms of an explicit block isomorphism.  See the README for the CLI and
the acceptance suite.

Only the exact lower-bound pipeline is imported here.  The upper-bound and
closed-form code (``bmbounds.upperiso``, ``bmbounds.bounds``, which use
mpmath to display closed forms) is imported as submodules by whoever uses
it.  The cross-check solvers live with the tests (``tests/crosscheck.py``).
"""

# The one version literal; set before the submodule imports, which read it.
__version__ = "0.1.0"

from .exactlp import (
    FeasibilityResult,
    LinearInequality,
    LinearSystem,
    check_feasibility,
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
