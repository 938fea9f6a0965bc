"""Self-verification suite: every cross-module identity the toolkit relies
on, runnable from the CLI with a name filter.

Each check is independent and reports a pass flag plus a short numeric
detail; the suite passes only if every selected check does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    applicable_lhs_analytic,
    fine_grained_bound,
    fine_grained_xi,
    gram_norm_identity_check,
    lhs_bound,
    lhs_bound_clifford_analytic,
    quantum_bound,
    quantum_bound_seesaw,
    strategy_norms,
)
from .clifford import build_clifford_family, verify_anticommutation
from .functionals import (
    canonical_quantum_assemblage,
    clifford_functional,
    dichotomic_functional,
    evaluate,
    mub_functional,
    require_seed,
)
from .mub import build_mub_family, verify_unbiasedness
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    runtime_ms: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "runtime_ms": self.runtime_ms,
        }


def _random_probability_table(rng, n: int, d: int) -> np.ndarray:
    p = rng.random((n, d))
    return p / p.sum(axis=1, keepdims=True)


def _check_mub_unbiasedness() -> tuple[bool, str]:
    worst = 0.0
    for d in (2, 3, 5, 7):
        report = verify_unbiasedness(build_mub_family(d, d + 1))
        worst = max(worst, report.orthonormality_deviation, report.unbiasedness_deviation)
    return worst <= TOLERANCES.unbiasedness, f"max deviation {worst:.2e}"


def _check_mub_identity_resolution() -> tuple[bool, str]:
    worst = 0.0
    for d in (2, 3, 5, 7):
        family = build_mub_family(d, d + 1)
        eye = np.eye(d)
        for x in range(family.count):
            resolved = np.einsum("ai,aj->ij", family.bases[x], family.bases[x].conj())
            worst = max(worst, float(np.abs(resolved - eye).max()))
    return worst <= TOLERANCES.unbiasedness, f"max identity defect {worst:.2e}"


def _check_clifford_anticommutation() -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 9):
        worst = max(worst, verify_anticommutation(build_clifford_family(n)).max_deviation)
    worst = max(
        worst,
        verify_anticommutation(build_clifford_family(3, full_dimension=True)).max_deviation,
    )
    return worst <= TOLERANCES.anticommutation, f"max deviation {worst:.2e}"


def _check_clifford_square_identity(rng) -> tuple[bool, str]:
    family = build_clifford_family(5)
    eye = np.eye(family.dimension)
    worst = 0.0
    for _ in range(50):
        c = rng.normal(size=family.count)
        combo = np.einsum("x,xij->ij", c, family.observables)
        worst = max(worst, float(np.abs(combo @ combo - (c @ c) * eye).max()))
    return worst <= 1e-10, f"max squared-sum defect {worst:.2e}"


def _check_gram_identity(rng) -> tuple[bool, str]:
    worst_dev = 0.0
    worst_margin = -np.inf
    for d, n in ((2, 3), (3, 4)):
        family = build_mub_family(d, n)
        for _ in range(100):
            report = gram_norm_identity_check(family, _random_probability_table(rng, n, d))
            worst_dev = max(worst_dev, report.deviation)
            worst_margin = max(worst_margin, report.scaled_norm - report.scaled_bound)
    ok = worst_dev <= TOLERANCES.gram_identity and worst_margin <= TOLERANCES.gram_identity
    return ok, f"max norm mismatch {worst_dev:.2e}, max bound margin {worst_margin:.2e}"


def _check_lhs_dominance(threads: int) -> tuple[bool, str]:
    slack = TOLERANCES.bound_slack
    for d, n in ((2, 3), (3, 4), (5, 6)):
        functional = mub_functional(build_mub_family(d, n))
        exact = lhs_bound(functional, threads=threads).value
        for tag, bound in applicable_lhs_analytic(functional).items():
            if exact > bound + slack:
                return False, f"mub d={d} n={n}: exact {exact} > {tag} bound {bound}"
    for n in range(1, 9):
        family = build_clifford_family(n)
        norms = strategy_norms(clifford_functional(family), threads=threads)
        if np.abs(norms - np.sqrt(n) / 2).max() > 1e-10:
            return False, f"clifford n={n}: strategy norms not sqrt(n)/2"
        if norms.max() > lhs_bound_clifford_analytic(n) + slack:
            return False, f"clifford n={n}: exact above analytic bound"
        dicho = dichotomic_functional(family)
        exact = lhs_bound(dicho, threads=threads).value
        if abs(exact - np.sqrt(n)) > slack or exact > lhs_bound_clifford_analytic(
            n, dichotomic=True
        ) + slack:
            return False, f"dichotomic n={n}: exact {exact} off sqrt(n) or above bound"
    return True, "exact values below every analytic bound"


def _check_canonical_attainment() -> tuple[bool, str]:
    worst = 0.0
    for d, n in ((2, 3), (3, 4), (5, 6), (7, 8)):
        functional = mub_functional(build_mub_family(d, n))
        value = evaluate(functional, canonical_quantum_assemblage(functional))
        worst = max(worst, abs(value - n))
        if quantum_bound(functional).value != n:
            return False, f"mub d={d} n={n}: quantum bound is not n"
    for n in range(2, 7):
        family = build_clifford_family(n)
        functional = clifford_functional(family)
        worst = max(
            worst,
            abs(evaluate(functional, canonical_quantum_assemblage(functional)) - n / 2),
        )
        dicho = dichotomic_functional(family)
        worst = max(
            worst, abs(evaluate(dicho, canonical_quantum_assemblage(dicho)) - n)
        )
    return worst <= TOLERANCES.bound_slack, f"max attainment defect {worst:.2e}"


def _check_seesaw_attainment(restarts: int, max_iters: int, seed: int) -> tuple[bool, str]:
    ratios = []
    functional = mub_functional(build_mub_family(2, 3))
    result = quantum_bound_seesaw(functional, restarts=restarts, max_iters=max_iters, seed=seed)
    ratios.append(result.value / 3.0)
    for n in (2, 4):
        functional = clifford_functional(build_clifford_family(n))
        result = quantum_bound_seesaw(
            functional, restarts=restarts, max_iters=max_iters, seed=seed
        )
        ratios.append(result.value / (n / 2.0))
    worst = min(ratios)
    return worst >= 0.99, f"worst attainment ratio {worst:.6f}"


def _check_fine_grained() -> tuple[bool, str]:
    for d, n in ((2, 3), (3, 4)):
        family = build_mub_family(d, n)
        bound = fine_grained_bound(d, n)
        best = 0.0
        for flat in range(d**n):
            strategy = np.unravel_index(flat, (d,) * n)
            best = max(best, fine_grained_xi(family, strategy))
        if best > bound + TOLERANCES.bound_slack:
            return False, f"(d={d}, n={n}): xi {best} above bound {bound}"
        if (d, n) == (2, 3) and abs(best - bound) > TOLERANCES.bound_slack:
            return False, f"(2, 3): bound not tight (xi {best} vs {bound})"
    return True, "all outcome strings below the bound; tight at (2, 3)"


def run_suite(
    name_filter: str | None = None,
    seed: int = 7,
    seesaw_restarts: int = 8,
    seesaw_max_iters: int = 300,
    threads: int = 1,
) -> list[CheckResult]:
    """Run all (or name-filtered) checks and collect their results."""
    require_seed(seed)
    rng = np.random.default_rng(seed)
    checks = [
        ("mub-unbiasedness", lambda: _check_mub_unbiasedness()),
        ("mub-identity-resolution", lambda: _check_mub_identity_resolution()),
        ("clifford-anticommutation", lambda: _check_clifford_anticommutation()),
        ("clifford-square-identity", lambda: _check_clifford_square_identity(rng)),
        ("gram-identity", lambda: _check_gram_identity(rng)),
        ("lhs-analytic-dominance", lambda: _check_lhs_dominance(threads)),
        ("quantum-canonical-attainment", lambda: _check_canonical_attainment()),
        (
            "seesaw-attainment",
            lambda: _check_seesaw_attainment(seesaw_restarts, seesaw_max_iters, seed),
        ),
        ("fine-grained-uncertainty", lambda: _check_fine_grained()),
    ]
    results = []
    for name, runner in checks:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        passed, detail = runner()
        results.append(
            CheckResult(
                name=name,
                passed=passed,
                detail=detail,
                runtime_ms=(time.perf_counter() - start) * 1e3,
            )
        )
    return results
