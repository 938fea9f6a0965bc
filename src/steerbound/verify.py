"""Self-verification suite: every cross-module identity the toolkit relies
on, runnable from the CLI with a name filter, and the lemma checks it
runs: unbiasedness, anticommutation, the Gram-matrix identities and
fine-grained uncertainty.

Each check is independent and reports a pass flag plus a short numeric
detail; the suite passes only if every selected check does.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordFamily, build_clifford_family
from .errors import BoundCheckError, PreconditionError
from .functionals import (
    Assemblage,
    SteeringFunctional,
    clifford_functional,
    dichotomic_functional,
    evaluate,
    mub_functional,
    random_functional,
    require_seed,
)
from .lhs import lhs_bound, strategy_norms
from .linalg import RADIUS_RTOL, hermitian_part, numerical_radius_bounds, operator_norm
from .mub import MubFamily, build_mub_family
from .quantum import canonical_quantum_assemblage, paper_values, quantum_bound
from .seesaw import quantum_bound_seesaw
from .serialize import (
    _load_stream,
    _load_tree,
    _TextSource,
    functional_from_json,
    functional_to_json,
)
from .structure import proven_squares
from .tolerances import TOLERANCES

_SEESAW_RESTARTS = 8
_SEESAW_MAX_ITERS = 300


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    runtime_ms: float


def _worst(*values: float) -> float:
    """The largest of `values`, or NaN if any is NaN, so that a check on
    it fails (max() skips a NaN that is not first)."""
    return float(np.max(values))


# ---------------------------------------------------------------------------
# lemma checks


@dataclass(frozen=True)
class UnbiasednessReport:
    """Exhaustive deviation report for a basis family."""

    orthonormality_deviation: float
    unbiasedness_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.orthonormality_deviation <= self.tolerance
            and self.unbiasedness_deviation <= self.tolerance
        )


def verify_unbiasedness(family: MubFamily) -> UnbiasednessReport:
    """Exhaustively check orthonormality within each basis and the 1/sqrt(d)
    overlap modulus across every pair of distinct bases."""
    bases = family.bases
    n, d, _ = bases.shape
    orth = 0.0
    unb = 0.0
    eye = np.eye(d)
    target = 1.0 / np.sqrt(d)
    for x in range(n):
        gram = bases[x].conj() @ bases[x].T
        orth = _worst(orth, np.abs(gram - eye).max())
        for y in range(x + 1, n):
            cross = bases[x].conj() @ bases[y].T
            unb = _worst(unb, np.abs(np.abs(cross) - target).max())
    return UnbiasednessReport(
        orthonormality_deviation=orth, unbiasedness_deviation=unb, tolerance=TOLERANCES.unbiasedness
    )


@dataclass(frozen=True)
class AnticommutationReport:
    """Exhaustive max-norm deviation of A_x A_y + A_y A_x - 2 delta_xy 1."""

    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def verify_anticommutation(family: CliffordFamily) -> AnticommutationReport:
    obs = family.observables
    n, dim, _ = obs.shape
    eye2 = 2 * np.eye(dim)
    dev = 0.0
    for x in range(n):
        for y in range(x, n):
            anti = obs[x] @ obs[y] + obs[y] @ obs[x]
            if x == y:
                anti = anti - eye2
            dev = _worst(dev, np.abs(anti).max())
    return AnticommutationReport(max_deviation=dev, tolerance=TOLERANCES.anticommutation)


@dataclass(frozen=True)
class GramIdentityReport:
    frame_norm: float
    gram_norm: float
    deviation: float
    scaled_norm: float
    scaled_bound: float
    scaled_bound_sharp: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.deviation <= self.tolerance
            and self.scaled_norm <= self.scaled_bound + self.tolerance
        )


def _weighted_vectors(family: MubFamily, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    n, d = family.count, family.dimension
    if p.shape != (n, d):
        raise PreconditionError(f"probability table must have shape {(n, d)}, got {p.shape}")
    if not p.min(initial=0.0) >= -1e-12:
        raise PreconditionError(f"probability table has a negative or NaN entry {p.min()}")
    row_defect = float(np.abs(p.sum(axis=1) - 1.0).max(initial=0.0))
    if not row_defect <= 1e-12:
        raise PreconditionError(
            f"probability rows must sum to 1 within 1e-12 (defect {row_defect:.3e})"
        )
    weights = np.sqrt(np.clip(p, 0.0, None))
    return (weights[:, :, None] * family.bases).reshape(n * d, d)


def _checked_gram(psi: np.ndarray) -> np.ndarray:
    g = psi.conj() @ psi.T
    min_eig = float(np.linalg.eigvalsh(hermitian_part(g)).min())
    if min_eig < -TOLERANCES.gram_psd:
        raise BoundCheckError(f"Gram matrix has eigenvalue {min_eig}, expected PSD")
    return g


def gram_matrix(family: MubFamily, p) -> np.ndarray:
    """Gram matrix G[(x,a),(y,b)] = sqrt(p(a|x) p(b|y)) <phi_x^a|phi_y^b> of
    the response-weighted basis vectors, (n*d, n*d) with the composite
    (x, a) in row-major order."""
    return _checked_gram(_weighted_vectors(family, p))


def gram_norm_identity_check(family: MubFamily, p) -> GramIdentityReport:
    """Check that the frame operator sum |psi><psi| and the Gram matrix of
    the same vectors share their operator norm, and that the scaled Gram
    norm stays below sqrt(d) + n + 1 (sharper intermediate with sup p(a|x)
    in place of 1 is reported for diagnostics, not asserted)."""
    n, d = family.count, family.dimension
    psi = _weighted_vectors(family, p)
    frame_norm = operator_norm(psi.T @ psi.conj())
    gram_norm = operator_norm(_checked_gram(psi))
    scaled_norm = float(np.sqrt(d) * gram_norm)
    return GramIdentityReport(
        frame_norm=frame_norm,
        gram_norm=gram_norm,
        deviation=abs(frame_norm - gram_norm),
        scaled_norm=scaled_norm,
        scaled_bound=float(np.sqrt(d) + n + 1),
        scaled_bound_sharp=float(np.sqrt(d) * np.max(p) + n + 1),
        tolerance=TOLERANCES.gram_identity,
    )


def fine_grained_bound(d: int, n: int) -> float:
    """Upper bound (1/d)(1 + (d-1)/sqrt(n)) on the average success
    probability of any fixed outcome string across n unbiased bases."""
    return (1.0 + (d - 1) / np.sqrt(n)) / d


def fine_grained_xi(family: MubFamily, strategy) -> float:
    """Largest average success probability (1/n) sum_x p(a(x)|x) over
    states, for one fixed outcome string a(x) of integers in [0, d);
    asserts the unbiased-basis bound (1/d)(1 + (d-1)/sqrt(n))."""
    n, d = family.count, family.dimension
    outcomes = np.asarray(strategy, dtype=float)
    if outcomes.shape != (n,):
        raise PreconditionError(f"strategy length {outcomes.size} != settings {n}")
    if not np.all((outcomes == np.round(outcomes)) & (outcomes >= 0) & (outcomes < d)):
        raise PreconditionError(
            f"strategy {tuple(strategy)} has outcomes that are not integers in [0, {d})"
        )
    chosen = family.bases[np.arange(n), outcomes.astype(int)]
    mean_proj = (chosen.T @ chosen.conj()) / n
    xi = float(np.linalg.eigvalsh(hermitian_part(mean_proj))[-1])
    bound = fine_grained_bound(d, n)
    if xi > bound + TOLERANCES.bound_slack:
        raise BoundCheckError(f"fine-grained value {xi} exceeds the bound {bound}")
    return xi


# ---------------------------------------------------------------------------
# the suite


def _random_probability_table(rng, n: int, d: int) -> np.ndarray:
    p = rng.random((n, d))
    return p / p.sum(axis=1, keepdims=True)


def _check_mub_unbiasedness() -> tuple[bool, str]:
    worst = 0.0
    for d in (2, 3, 5, 7):
        report = verify_unbiasedness(build_mub_family(d, d + 1))
        worst = _worst(worst, report.orthonormality_deviation, report.unbiasedness_deviation)
    return worst <= TOLERANCES.unbiasedness, f"max deviation {worst:.2e}"


def _check_mub_identity_resolution() -> tuple[bool, str]:
    worst = 0.0
    for d in (2, 3, 5, 7):
        family = build_mub_family(d, d + 1)
        eye = np.eye(d)
        for x in range(family.count):
            resolved = np.einsum("ai,aj->ij", family.bases[x], family.bases[x].conj())
            worst = _worst(worst, np.abs(resolved - eye).max())
    return worst <= TOLERANCES.unbiasedness, f"max identity defect {worst:.2e}"


def _check_clifford_anticommutation() -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 9):
        worst = _worst(worst, verify_anticommutation(build_clifford_family(n)).max_deviation)
    worst = _worst(
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
        worst = _worst(worst, np.abs(combo @ combo - (c @ c) * eye).max())
    return worst <= 1e-10, f"max squared-sum defect {worst:.2e}"


def _check_gram_identity(rng) -> tuple[bool, str]:
    worst_dev = 0.0
    worst_margin = -np.inf
    for d, n in ((2, 3), (3, 4)):
        family = build_mub_family(d, n)
        for _ in range(100):
            report = gram_norm_identity_check(family, _random_probability_table(rng, n, d))
            worst_dev = _worst(worst_dev, report.deviation)
            worst_margin = _worst(worst_margin, report.scaled_norm - report.scaled_bound)
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
    """One small table per lhs_bound path, against the full enumeration, and
    the general table's witness radius interval, at most RADIUS_RTOL wide."""
    plus_minus = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    plus_minus = plus_minus + plus_minus.conj().transpose(0, 2, 1)
    perturbed = mub_functional(build_mub_family(3, 3)).coefficients.copy()
    perturbed[1, 1, 0, 0] += 1e-9
    general = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    general = SteeringFunctional.from_table(general)
    near = dichotomic_functional(build_clifford_family(6)).coefficients[:, 0].copy()
    j = int(np.flatnonzero(near[0, 0])[0])  # B_0 an ulp off anticommuting: nothing prunes
    near[0, 0, j] += 1j * np.spacing(abs(near[0, 0, j]))
    near[0, j, 0] = np.conj(near[0, 0, j])
    cases = (
        ("anticommuting", dichotomic_functional(build_clifford_family(5))),
        ("rank-one", random_functional(3, 0)),
        ("weyl-orbit", mub_functional(build_mub_family(5, 4))),
        ("complement-half", SteeringFunctional.from_table(np.stack([plus_minus, -plus_minus], 1))),
        ("complement-half", SteeringFunctional.from_table(np.stack([near, -near], 1))),
        ("enumeration", SteeringFunctional.from_table(perturbed, kind="mub")),
        ("enumeration", general),  # numerical radii
    )
    worst = 0.0
    for method, functional in cases:
        result = lhs_bound(functional, threads=threads)
        norms = strategy_norms(functional, threads=threads)
        if result.method != method:
            return False, f"{method} table took the {result.method} path"
        witness = int(np.ravel_multi_index(result.witness, (functional.m,) * functional.n))
        worst = _worst(worst, abs(result.value - norms.max()), abs(norms[witness] - norms.max()))
        if functional is general:
            operator = sum(general.coefficients[x, a] for x, a in enumerate(result.witness))
            (lower,), (upper,) = numerical_radius_bounds(operator[None], RADIUS_RTOL)
            width = (upper - lower) / upper
    detail = f"max gap to the full enumeration {worst:.2e}, radius interval width {width:.2e}"
    return worst <= 1e-12 and width <= RADIUS_RTOL, detail


def _check_canonical_attainment() -> tuple[bool, str]:
    """quantum_bound's value against the dense pairing of each table with
    its built canonical assemblage, apart from the sums quantum_bound
    checked it with; for the custom-labelled commuting +- diagonal Z I,
    I Z, Z Z, 3 against its valid spectral projectors (I +- B_x/c_x)/(2d)."""
    tables = [
        (f"mub d={d} n={d + 1}", mub_functional(build_mub_family(d, d + 1))) for d in (2, 3, 5, 7)
    ]
    for n in range(2, 7):
        family = build_clifford_family(n)
        tables += [
            (f"clifford n={n}", clifford_functional(family)),
            (f"dichotomic n={n}", dichotomic_functional(family)),
        ]
    diagonal = np.stack([np.diag(z) for z in ([1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1])])
    tables.append(("commuting", SteeringFunctional.from_table(np.stack([diagonal, -diagonal], 1))))
    worst = 0.0
    for label, functional in tables:
        try:
            value = quantum_bound(functional)
        except (BoundCheckError, PreconditionError) as exc:
            return False, f"{label}: {exc}"
        if functional.kind == "custom":  # the projectors of its proven squares
            c = np.sqrt(proven_squares(functional))[:, None, None, None]
            sigma = Assemblage(members=(np.eye(4) + functional.coefficients / c) / 8)
            if value != 3.0 or sigma.validate().failed:
                return False, f"{label}: reads {value!r}, spectral assemblage {sigma.validate()}"
        else:
            sigma = canonical_quantum_assemblage(functional)
        attained = evaluate(functional, sigma)
        defect = abs(attained - value)
        if not defect <= TOLERANCES.bound_slack:
            return False, f"{label}: canonical assemblage attains {attained!r}, not {value!r}"
        worst = _worst(worst, defect)
    return True, f"max attainment defect {worst:.2e}"


def _check_seesaw_attainment(seed: int) -> tuple[bool, str]:
    tables = [(mub_functional(build_mub_family(2, 3)), 3.0)]
    for n in (2, 4):
        tables.append((clifford_functional(build_clifford_family(n)), n / 2.0))
    ratios = []
    for functional, s_q in tables:
        result = quantum_bound_seesaw(
            functional, restarts=_SEESAW_RESTARTS, max_iters=_SEESAW_MAX_ITERS, seed=seed
        )
        ratios.append(result.value / s_q)
    worst = float(np.min(ratios))  # NaN if any ratio is
    return worst >= 0.99, f"worst attainment ratio {worst:.6f}"


def _check_fine_grained() -> tuple[bool, str]:
    for d, n in ((2, 3), (3, 4)):
        family = build_mub_family(d, n)
        bound = fine_grained_bound(d, n)
        best = 0.0
        for flat in range(d**n):
            strategy = np.unravel_index(flat, (d,) * n)
            best = _worst(best, fine_grained_xi(family, strategy))
        if not best <= bound + TOLERANCES.bound_slack:
            return False, f"(d={d}, n={n}): xi {best} above bound {bound}"
        if (d, n) == (2, 3) and abs(best - bound) > TOLERANCES.bound_slack:
            return False, f"(2, 3): bound not tight (xi {best} vs {bound})"
    return True, "all outcome strings below the bound; tight at (2, 3)"


def _check_serialize_round_trip() -> tuple[bool, str]:
    """One functional of each builder, dense and mostly zero: re-dumping
    what was loaded gives the same bytes, and the stream reader takes the
    document as a str and as bytes and equals the tree walk bit for bit."""
    functionals = (
        mub_functional(build_mub_family(3, 4)),
        clifford_functional(build_clifford_family(4, full_dimension=True)),
        dichotomic_functional(build_clifford_family(5)),
        random_functional(3, 1),
    )
    for functional in functionals:
        text = functional_to_json(functional)
        if functional_to_json(functional_from_json(text)) != text:
            return False, f"{functional.kind}: re-dumped bytes differ"
        tree = _load_tree(text)[1].tobytes()
        for name, source in (("str", _TextSource(text)), ("bytes", io.BytesIO(text.encode()))):
            loaded = _load_stream(source)
            if loaded is None:
                return False, f"{functional.kind} {name}: the stream fell back to the tree walk"
            if loaded[1].tobytes() != tree:
                return False, f"{functional.kind} {name}: the stream differs from the tree walk"
    return True, f"{len(functionals)} builders byte-identical, both streams equal to the tree walk"


def run_suite(
    name_filter: str | None = None, seed: int = 7, threads: int = 1
) -> list[CheckResult]:
    """Run all (or name-filtered) checks and collect their results; the
    see-saw check runs _SEESAW_RESTARTS restarts of at most
    _SEESAW_MAX_ITERS updates each."""
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
        ("seesaw-attainment", lambda: _check_seesaw_attainment(seed)),
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
