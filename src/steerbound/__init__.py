"""Numerical toolkit for steering functionals and their violations.

Builds functionals from mutually unbiased bases, anticommuting observable
chains and random sign tables; computes exact local-hidden-state bounds
by deterministic-strategy enumeration, quantum bounds analytically and by
a monotone see-saw; and verifies every analytic norm bound the
constructions satisfy.
"""

from ._version import __version__
from .bounds import (
    BoundsReport,
    Certificate,
    GramIdentityReport,
    LhsExactResult,
    PaperValues,
    QuantumBoundResult,
    SeesawResult,
    fine_grained_bound,
    fine_grained_xi,
    gram_matrix,
    gram_norm_identity_check,
    lhs_bound,
    paper_values,
    quantum_bound,
    quantum_bound_seesaw,
    strategy_norms,
    violation,
)
from .clifford import (
    AnticommutationReport,
    CliffordFamily,
    build_clifford_family,
    verify_anticommutation,
)
from .errors import (
    BoundCheckError,
    EnumerationCapExceeded,
    PreconditionError,
    SchemaError,
    SteerboundError,
)
from .functionals import (
    Assemblage,
    AssemblageReport,
    SteeringFunctional,
    canonical_quantum_assemblage,
    clifford_functional,
    clifford_projectors,
    dichotomic_functional,
    evaluate,
    mub_functional,
    random_functional,
)
from .linalg import numerical_radius, operator_norm, tensor
from .mub import MubFamily, UnbiasednessReport, build_mub_family, verify_unbiasedness
from .tolerances import TOLERANCES, Tolerances

__all__ = [
    "__version__",
    "TOLERANCES",
    "Tolerances",
    "SteerboundError",
    "PreconditionError",
    "EnumerationCapExceeded",
    "SchemaError",
    "BoundCheckError",
    "operator_norm",
    "numerical_radius",
    "tensor",
    "MubFamily",
    "UnbiasednessReport",
    "build_mub_family",
    "verify_unbiasedness",
    "CliffordFamily",
    "AnticommutationReport",
    "build_clifford_family",
    "verify_anticommutation",
    "SteeringFunctional",
    "Assemblage",
    "AssemblageReport",
    "mub_functional",
    "clifford_functional",
    "clifford_projectors",
    "dichotomic_functional",
    "random_functional",
    "evaluate",
    "canonical_quantum_assemblage",
    "BoundsReport",
    "Certificate",
    "GramIdentityReport",
    "LhsExactResult",
    "PaperValues",
    "QuantumBoundResult",
    "SeesawResult",
    "lhs_bound",
    "strategy_norms",
    "quantum_bound",
    "quantum_bound_seesaw",
    "violation",
    "paper_values",
    "gram_matrix",
    "gram_norm_identity_check",
    "fine_grained_xi",
    "fine_grained_bound",
]
