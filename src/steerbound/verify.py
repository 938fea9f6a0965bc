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
    fine_grained_bound,
    fine_grained_xi,
    gram_norm_identity_check,
    lhs_bound,
    paper_values,
    quantum_bound,
    quantum_bound_seesaw,
    strategy_norms,
)
from .clifford import build_clifford_family, verify_anticommutation
from .functionals import (
    SteeringFunctional,
    canonical_quantum_assemblage,
    clifford_functional,
    dichotomic_functional,
    evaluate,
    mub_functional,
    random_functional,
    require_seed,
)
from .mub import build_mub_family, verify_unbiasedness
from .serialize import (
    _load_flat,
    _load_tree,
    assemblage_from_json,
    assemblage_to_json,
    clifford_family_from_json,
    clifford_family_to_json,
    functional_from_json,
    functional_to_json,
    mub_family_from_json,
    mub_family_to_json,
)
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    runtime_ms: float


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
    tables = [mub_functional(build_mub_family(d, n)) for d, n in ((2, 3), (3, 4), (5, 6))]
    for n in range(1, 9):
        family = build_clifford_family(n)
        tables += [clifford_functional(family), dichotomic_functional(family)]
        norms = strategy_norms(tables[-2], threads=threads)
        if np.abs(norms - np.sqrt(n) / 2).max() > 1e-10:
            return False, f"clifford n={n}: strategy norms not sqrt(n)/2"
        exact = lhs_bound(tables[-1], threads=threads).value
        if abs(exact - np.sqrt(n)) > slack:
            return False, f"dichotomic n={n}: exact {exact} off sqrt(n)"
    for f in tables:
        exact = lhs_bound(f, threads=threads).value
        for tag, bound in paper_values(f).lhs_upper.items():
            if exact > bound + slack:
                return False, f"{f.kind} n={f.n} d={f.d}: exact {exact} > {tag} bound {bound}"
    return True, "exact values below every analytic bound"


def _check_lhs_structure_shortcuts(rng, threads: int) -> tuple[bool, str]:
    """One small table per lhs_bound path, against the full enumeration."""
    plus_minus = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    plus_minus = plus_minus + plus_minus.conj().transpose(0, 2, 1)
    perturbed = mub_functional(build_mub_family(3, 3)).coefficients.copy()
    perturbed[1, 1, 0, 0] += 1e-9
    cases = (
        ("anticommuting", dichotomic_functional(build_clifford_family(5))),
        ("rank-one", random_functional(3, 0)),
        ("weyl-orbit", mub_functional(build_mub_family(5, 4))),
        ("complement-half", SteeringFunctional.from_table(np.stack([plus_minus, -plus_minus], 1))),
        ("enumeration", SteeringFunctional.from_table(perturbed, kind="mub")),
    )
    worst = 0.0
    for method, functional in cases:
        result = lhs_bound(functional, threads=threads)
        norms = strategy_norms(functional, threads=threads)
        if result.method != method:
            return False, f"{method} table took the {result.method} path"
        witness = int(np.ravel_multi_index(result.witness, (functional.m,) * functional.n))
        worst = max(worst, abs(result.value - norms.max()), abs(norms[witness] - norms.max()))
    return worst <= 1e-12, f"max gap to the full enumeration {worst:.2e}"


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


def _check_serialize_round_trip() -> tuple[bool, str]:
    """One file per kind: re-dumping what was loaded gives the same bytes,
    and the flat parse runs and equals the tree walk bit for bit."""
    functional = mub_functional(build_mub_family(3, 4))
    codecs = (
        ("functional", functional, functional_to_json, functional_from_json),
        (
            "assemblage",
            canonical_quantum_assemblage(functional),
            assemblage_to_json,
            assemblage_from_json,
        ),
        ("mub-family", build_mub_family(5, 6), mub_family_to_json, mub_family_from_json),
        (
            "clifford-family",
            build_clifford_family(4, full_dimension=True),
            clifford_family_to_json,
            clifford_family_from_json,
        ),
    )
    for kind, obj, dump, load in codecs:
        text = dump(obj)
        if dump(load(text)) != text:
            return False, f"{kind}: re-dumped bytes differ"
        flat = _load_flat(text, kind)
        if flat is None:
            return False, f"{kind}: the flat parse fell back to the tree walk"
        if flat[1].tobytes() != _load_tree(text, kind)[1].tobytes():
            return False, f"{kind}: the flat parse differs from the tree walk"
    return True, f"{len(codecs)} kinds byte-identical, flat parse equal to the tree walk"


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
        ("lhs-structure-shortcuts", lambda: _check_lhs_structure_shortcuts(rng, threads)),
        ("quantum-canonical-attainment", lambda: _check_canonical_attainment()),
        (
            "seesaw-attainment",
            lambda: _check_seesaw_attainment(seesaw_restarts, seesaw_max_iters, seed),
        ),
        ("fine-grained-uncertainty", lambda: _check_fine_grained()),
        ("serialize-round-trip", lambda: _check_serialize_round_trip()),
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
