"""Numerical toolkit for steering functionals and their violations.

Builds functionals from mutually unbiased bases, anticommuting observable
chains and random sign tables; computes exact local-hidden-state bounds
by deterministic-strategy enumeration, quantum bounds analytically and by
a monotone see-saw; and verifies every analytic norm bound the
constructions satisfy.
"""

from ._version import __version__
from .bounds import BoundsReport, violation
from .clifford import CliffordFamily, build_clifford_family
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
    clifford_functional,
    dichotomic_functional,
    evaluate,
    mub_functional,
    random_functional,
)
from .lhs import LhsExactResult, lhs_bound, strategy_norms
from .linalg import numerical_radius, operator_norm
from .mub import MubFamily, build_mub_family
from .quantum import (
    Certificate,
    PaperValues,
    canonical_quantum_assemblage,
    paper_values,
    quantum_bound,
)
from .seesaw import SeesawResult, quantum_bound_seesaw
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
    "MubFamily",
    "build_mub_family",
    "CliffordFamily",
    "build_clifford_family",
    "SteeringFunctional",
    "Assemblage",
    "AssemblageReport",
    "mub_functional",
    "clifford_functional",
    "dichotomic_functional",
    "random_functional",
    "evaluate",
    "canonical_quantum_assemblage",
    "BoundsReport",
    "Certificate",
    "LhsExactResult",
    "PaperValues",
    "SeesawResult",
    "lhs_bound",
    "strategy_norms",
    "quantum_bound",
    "quantum_bound_seesaw",
    "violation",
    "paper_values",
]
