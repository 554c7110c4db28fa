"""Exact constants and numerical certification for improved higher-order
Poincare-Hardy inequalities on hyperbolic space.

The package has three layers: exact rational constants and proof-chain
replays (``constants``), jet-based radial calculus with certified quadrature
(``jets``, ``quadrature``, ``operators``, ``profiles``), and the verification
surfaces built on both: margin certificates (``verify``), substitution and
estimate identities (``identities``), and the upper half-space corollaries
(``halfspace``).  The ``poincare-hardy`` console script exposes all of it.
"""

from .constants import (
    CaseSpec,
    ConstantTable,
    a_gamma,
    anbn,
    b_gamma_beta,
    case_leading_constants,
    chain_replay,
    constant_table,
    dk_ek,
    halfspace_constants,
    thm21_constants,
    lambda_n,
    poincare_constant,
    yang_constants,
    yang_extended,
)
from .errors import HypothesisError, InternalConsistencyError, QuadratureError
from .halfspace import (
    HalfspacePoint,
    PlaneQuadratureSpec,
    SeparableTestFunction,
    check_pf1,
    check_pf2,
    geodesic_distance,
    halfspace_suite,
    margin_halfspace,
    margin_hardy_mazya,
)
from .identities import (
    check_1d_lemmas,
    check_estimate1,
    check_estimate2,
    check_ph1,
    check_trans1,
    mode_margin_decomposition,
)
from .jets import Jet
from .operators import to_v_transform
from .profiles import (
    Bump,
    Cutoff,
    ExpDecay,
    Product,
    Scaled,
    SmoothWindow,
    load_suite,
    suite_names,
    suite_version,
)
from .quadrature import QuadratureSpec
from .reports import IdentityResidualReport, MarginReport
from .verify import (
    margin_general,
    margin_thm21,
    margin_poincare_hardy,
    margin_rellich,
    margin_yang,
    sharpness_probe,
)

__version__ = "0.1.0"

__all__ = [
    "CaseSpec",
    "ConstantTable",
    "a_gamma",
    "anbn",
    "b_gamma_beta",
    "case_leading_constants",
    "chain_replay",
    "constant_table",
    "dk_ek",
    "halfspace_constants",
    "thm21_constants",
    "lambda_n",
    "poincare_constant",
    "yang_constants",
    "yang_extended",
    "HypothesisError",
    "InternalConsistencyError",
    "QuadratureError",
    "HalfspacePoint",
    "PlaneQuadratureSpec",
    "SeparableTestFunction",
    "check_pf1",
    "check_pf2",
    "geodesic_distance",
    "halfspace_suite",
    "margin_halfspace",
    "margin_hardy_mazya",
    "check_1d_lemmas",
    "check_estimate1",
    "check_estimate2",
    "check_ph1",
    "check_trans1",
    "mode_margin_decomposition",
    "Jet",
    "to_v_transform",
    "Bump",
    "Cutoff",
    "ExpDecay",
    "Product",
    "Scaled",
    "SmoothWindow",
    "load_suite",
    "suite_names",
    "suite_version",
    "QuadratureSpec",
    "IdentityResidualReport",
    "MarginReport",
    "margin_general",
    "margin_thm21",
    "margin_poincare_hardy",
    "margin_rellich",
    "margin_yang",
    "sharpness_probe",
    "__version__",
]
