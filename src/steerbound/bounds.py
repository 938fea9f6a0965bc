"""The full report of a steering functional: its exact LHS bound
(lhs.lhs_bound), its quantum value, analytic where
quantum.analytic_quantum_value gives one (the paper's kinds, checked by
one attainment certificate, and proven +- squares), from below by the
see-saw otherwise (seesaw.quantum_bound_seesaw), their ratio, and one
certificate per proven bound the values must respect.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from .errors import BoundCheckError, PreconditionError
from .functionals import SteeringFunctional
from .lhs import DEFAULT_ENUMERATION_CAP, lhs_bound
from .quantum import Certificate, analytic_quantum_value, paper_values
from .seesaw import DEFAULT_MAX_ITERS, DEFAULT_RESTARTS
from .seesaw import _check_seesaw_parameters, quantum_bound_seesaw
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class BoundsReport:
    kind: str
    n: int
    m: int
    d: int
    s_lhs_exact: float
    s_lhs_witness: tuple[int, ...]
    s_lhs_analytic: dict[str, float]
    s_q: float
    s_q_method: str
    violation: float
    violation_lower_bounds: dict[str, float]
    certificates: tuple[Certificate, ...]
    diagnostics: dict = field(default_factory=dict)

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the certificates not satisfied."""
        return tuple(c.name for c in self.certificates if not c.satisfied)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"s_lhs_witness": list(self.s_lhs_witness)}


def violation(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    seesaw_restarts: int = DEFAULT_RESTARTS,
    seesaw_max_iters: int = DEFAULT_MAX_ITERS,
    seesaw_seed: int = 0,
    strict: bool = True,
) -> BoundsReport:
    """Full report: exact LHS bound, quantum bound, their ratio, and one
    certificate per proven bound the values must respect.

    s_q is quantum_bound's (quantum.analytic_quantum_value), given the
    squares of the structure lhs_bound found, so table_structure runs
    once; but a missed canonical attainment is a failed certificate, with
    s_q the value the valid canonical assemblage attains, a lower bound
    tagged "canonical-lower". Kinds with paper values (paper_values) also
    get one certificate per LHS upper bound and per violation lower bound.
    Tables without an analytic S_Q fall back to the see-saw lower bound,
    tagged "seesaw-lower", or to S_LHS, tagged "lhs-lower", where that is
    strictly larger. A table whose LHS bound is 0 has no ratio and is
    rejected. The see-saw parameters are checked first, for every table.
    With strict enabled, a failed certificate raises instead of being
    reported.
    """
    _check_seesaw_parameters(seesaw_restarts, seesaw_max_iters, seesaw_seed)
    t0 = time.perf_counter()
    lhs = lhs_bound(f, cap=cap, threads=threads)
    if lhs.value <= 0:
        raise PreconditionError("S_LHS is 0; the violation ratio is undefined")
    t1 = time.perf_counter()

    diagnostics: dict = {
        "strategy_count": lhs.strategy_count,
        "enumeration_cap": cap,
        "lhs_method": lhs.method,
        "strategies_evaluated": lhs.strategies_evaluated,
        "strategies_solved": lhs.strategies_solved,
    }
    paper = paper_values(f)
    found = analytic_quantum_value(f, paper, lhs.structure.squares)
    certificates = [found[2]] if found and found[2] else []
    if found is not None:
        s_q, method = found[:2]
    else:
        seesaw = quantum_bound_seesaw(
            f, restarts=seesaw_restarts, max_iters=seesaw_max_iters, seed=seesaw_seed
        )
        s_q, method = seesaw.value, "seesaw-lower"
        if lhs.value > s_q:  # every LHS assemblage is quantum
            s_q, method = lhs.value, "lhs-lower"
        diagnostics["seesaw_iterations"] = seesaw.iterations
        diagnostics["seesaw_converged"] = seesaw.converged
        diagnostics["seesaw_extrapolations"] = {
            "kept": seesaw.extrapolations_kept,
            "tried": seesaw.extrapolations_tried,
        }
    t2 = time.perf_counter()

    value = s_q / lhs.value
    analytic = paper.lhs_upper if paper else {}
    lower_bounds = paper.violation_lower if paper else {}
    slack = TOLERANCES.bound_slack
    certificates += [
        Certificate(f"lhs_exact_le_{tag}", bool(lhs.value <= bound + slack), lhs.value, bound)
        for tag, bound in analytic.items()
    ]
    certificates += [
        Certificate(f"violation_ge_{tag}", bool(value >= bound - slack), value, bound)
        for tag, bound in lower_bounds.items()
    ]
    diagnostics["timings"] = {
        "lhs_ms": (t1 - t0) * 1e3,
        "quantum_ms": (t2 - t1) * 1e3,
        "total_ms": (time.perf_counter() - t0) * 1e3,
    }
    report = BoundsReport(
        kind=f.kind,
        n=f.n,
        m=f.m,
        d=f.d,
        s_lhs_exact=lhs.value,
        s_lhs_witness=lhs.witness,
        s_lhs_analytic=analytic,
        s_q=s_q,
        s_q_method=method,
        violation=value,
        violation_lower_bounds=lower_bounds,
        certificates=tuple(certificates),
        diagnostics=diagnostics,
    )
    if strict and report.failed:
        raise BoundCheckError(f"certificates failed: {', '.join(report.failed)}")
    return report
