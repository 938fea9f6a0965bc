"""Classical and quantum bounds for steering functionals.

The classical (local-hidden-state) bound is computed exactly by
enumerating deterministic strategies: the LHS set is the convex hull of
products of a response table with a fixed state, the pairing is linear,
and a linear functional attains its maximum over a convex hull at the
extreme points - deterministic outcome assignments on the response side
and eigenstates on the state side. Mixtures over a hidden variable are
therefore redundant and never materialize; per strategy the state
optimization collapses to a top-|eigenvalue| computation (Hermitian
tables) or a numerical radius (general tables).

lhs_bound is the one entry point. strategy_norms enumerates the
strategies for it and picks the per-strategy norm from the table: the
top |eigenvalue| when the table is Hermitian, the numerical radius
otherwise. It builds each chunk of strategy operators as one GEMM of a
one-hot selector with the flattened table, and for two-outcome tables
with F_x^2 = -F_x^1 computes only the a_0 = 0 half, since a strategy and
its complement have the same value. Chunks have fixed, shape-only
bounds; the `threads` pool workers are the only parallelism, because the
enumeration holds OpenBLAS at one thread. The maximum is the first one
in lexicographic order, so reports are identical for any `threads` and
any OPENBLAS_NUM_THREADS (the see-saw, used only without an analytic
quantum value, runs BLAS at the ambient thread count).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundCheckError, EnumerationCapExceeded, PreconditionError
from .functionals import SteeringFunctional, canonical_quantum_assemblage, evaluate
from .linalg import blas_threads, hermitian_part, numerical_radius, operator_norm
from .mub import MubFamily
from .tolerances import TOLERANCES

DEFAULT_ENUMERATION_CAP = 10**6
DEFAULT_ANGULAR_RESOLUTION = 720


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class LhsExactResult:
    value: float
    witness: tuple[int, ...]  # outcome index per setting, 0-based
    strategy_count: int


@dataclass(frozen=True)
class QuantumBoundResult:
    value: float
    method: str  # "analytic" | "canonical"
    canonical_value: float


@dataclass(frozen=True)
class SeesawResult:
    value: float
    converged: bool
    iterations: int
    trace: tuple[float, ...]  # objective per iteration of the best restart


@dataclass(frozen=True)
class Certificate:
    """One named check of a computed value against a proven bound."""

    name: str
    satisfied: bool
    value: float
    bound: float


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
    def all_certificates_pass(self) -> bool:
        return all(c.satisfied for c in self.certificates)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "s_lhs_exact": self.s_lhs_exact,
            "s_lhs_witness": list(self.s_lhs_witness),
            "s_lhs_analytic": dict(self.s_lhs_analytic),
            "s_q": self.s_q,
            "s_q_method": self.s_q_method,
            "violation": self.violation,
            "violation_lower_bounds": dict(self.violation_lower_bounds),
            "certificates": [
                {
                    "name": c.name,
                    "satisfied": c.satisfied,
                    "value": c.value,
                    "bound": c.bound,
                }
                for c in self.certificates
            ],
            "diagnostics": dict(self.diagnostics),
        }


# ---------------------------------------------------------------------------
# strategy enumeration


def _strategy_total(n: int, m: int, cap: int) -> int:
    total = m**n
    if total > cap:
        raise EnumerationCapExceeded(
            f"enumeration needs {total} deterministic strategies, cap is {cap}"
        )
    return total


def _chunk_size(d: int) -> int:
    # keeps a chunk's (chunk, d, d) operator stack at or below 8 MiB; depends
    # only on the problem shape so results cannot vary with the worker count
    return max(1, min(8192, (1 << 19) // (d * d)))


def _complement_symmetric(f: SteeringFunctional) -> bool:
    """Two outcomes with F_x^2 = -F_x^1 exactly: a strategy and its
    complement then sum to negated operators of equal value."""
    c = f.coefficients
    return c.shape[1] == 2 and bool(np.array_equal(c[:, 1], -c[:, 0]))


def _chunk_operators(
    cells: np.ndarray, n: int, m: int, d: int, start: int, stop: int
) -> np.ndarray:
    """sum_x F_x^{a(x)} for strategies start..stop-1 in lexicographic order,
    as one GEMM: a one-hot (strategy, n*m) selector times the table's cells
    flattened to real rows (n*m, 2*d*d)."""
    rows = np.arange(stop - start)
    digits = np.stack(np.unravel_index(start + rows, (m,) * n), axis=1)
    select = np.zeros((rows.size, n * m))
    select[rows[:, None], np.arange(n) * m + digits] = 1.0
    return (select @ cells).view(complex).reshape(-1, d, d)


def _top_abs_eigenvalues(ops: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(ops)
    return np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))


def strategy_norms(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    angular_resolution: int = DEFAULT_ANGULAR_RESOLUTION,
) -> np.ndarray:
    """Norm of sum_x F_x^{a(x)} for every deterministic strategy, in
    lexicographic strategy order.

    The norm is the one the state optimization of |<F, sigma>| produces:
    the top |eigenvalue| for Hermitian tables, the numerical radius (at
    `angular_resolution`) otherwise; `angular_resolution` must be at least
    8 whatever the table. Fixed, shape-only chunks run on `threads` pool
    workers with OpenBLAS held at one thread. For complement-symmetric
    tables only the a_0 = 0 half is computed: the complement of strategy i
    is m^n - 1 - i, so the second half is the first one reversed.
    """
    if threads < 1:
        raise PreconditionError(f"thread count must be positive, got {threads}")
    if angular_resolution < 8:
        raise PreconditionError(
            f"angular_resolution must be at least 8, got {angular_resolution}"
        )
    n, m, d = f.n, f.m, f.d
    total = _strategy_total(n, m, cap)
    mirrored = _complement_symmetric(f)
    count = total // 2 if mirrored else total
    chunk = _chunk_size(d)
    spans = [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
    cells = np.ascontiguousarray(f.coefficients).reshape(n * m, d * d).view(np.float64)

    def values_of(span):
        ops = _chunk_operators(cells, n, m, d, *span)
        if f.hermitian:
            return _top_abs_eigenvalues(ops)
        return np.array([numerical_radius(h, angular_resolution) for h in ops])

    with blas_threads(1):
        if threads > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(values_of, spans))
        else:
            parts = [values_of(span) for span in spans]
    values = np.concatenate(parts) if parts else np.zeros(0)
    return np.concatenate([values, values[::-1]]) if mirrored else values


def lhs_bound(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    angular_resolution: int = DEFAULT_ANGULAR_RESOLUTION,
) -> LhsExactResult:
    """Exact LHS bound: the largest strategy norm (see strategy_norms) over
    all m^n deterministic strategies; ties break toward the
    lexicographically first strategy."""
    values = strategy_norms(f, cap, threads, angular_resolution)
    best = int(np.argmax(values))
    witness = tuple(int(a) for a in np.unravel_index(best, (f.m,) * f.n))
    return LhsExactResult(
        value=float(values[best]), witness=witness, strategy_count=values.size
    )


# ---------------------------------------------------------------------------
# analytic bounds


def lhs_bound_mub_analytic(d: int, n: int, variant: str) -> float:
    """Proven LHS upper bounds for unbiased-basis functionals.

    "gram": 1 + (n+1)/sqrt(d), from the norm estimate of the scaled Gram
    matrix of the strategy-weighted basis vectors.
    "uncertainty": (n/d)(1 + (d-1)/sqrt(n)), from the fine-grained
    uncertainty bound on unbiased-basis success probabilities.
    """
    if d < 2 or n < 1:
        raise PreconditionError(f"invalid scenario d={d}, n={n}")
    if variant == "gram":
        return 1.0 + (n + 1) / np.sqrt(d)
    if variant == "uncertainty":
        return (n / d) * (1.0 + (d - 1) / np.sqrt(n))
    raise PreconditionError(f"unknown variant {variant!r}; use 'gram' or 'uncertainty'")


def lhs_bound_clifford_analytic(n: int, dichotomic: bool = False) -> float:
    """Proven LHS upper bounds for anticommuting-observable functionals:
    sqrt(n/2) for the +-A_x/2 table, sqrt(2n) for the dichotomic form."""
    if n < 1:
        raise PreconditionError(f"invalid setting count n={n}")
    return float(np.sqrt(2.0 * n)) if dichotomic else float(np.sqrt(n / 2.0))


def fine_grained_bound(d: int, n: int) -> float:
    """Upper bound (1/d)(1 + (d-1)/sqrt(n)) on the average success
    probability of any fixed outcome string across n unbiased bases."""
    return (1.0 + (d - 1) / np.sqrt(n)) / d


def applicable_lhs_analytic(f: SteeringFunctional) -> dict[str, float]:
    if f.kind == "mub":
        return {
            "mub-gram": lhs_bound_mub_analytic(f.d, f.n, "gram"),
            "mub-uncertainty": lhs_bound_mub_analytic(f.d, f.n, "uncertainty"),
        }
    if f.kind == "clifford":
        return {"clifford": lhs_bound_clifford_analytic(f.n)}
    if f.kind == "clifford-dichotomic":
        return {"dichotomic": lhs_bound_clifford_analytic(f.n, dichotomic=True)}
    return {}


def applicable_violation_lower_bounds(f: SteeringFunctional) -> dict[str, float]:
    n, d = f.n, f.d
    if f.kind == "mub":
        return {
            "mub-gram": n * np.sqrt(d) / (n + 1 + np.sqrt(d)),
            "mub-uncertainty": d * np.sqrt(n) / (np.sqrt(n) + d - 1),
        }
    if f.kind == "clifford":
        return {"clifford": float(np.sqrt(n / 2.0))}
    if f.kind == "clifford-dichotomic":
        return {"dichotomic": float(np.sqrt(n / 2.0))}
    return {}


# ---------------------------------------------------------------------------
# quantum bounds


def quantum_bound(f: SteeringFunctional, method: str = "analytic") -> QuantumBoundResult:
    """Quantum bound of a structured functional.

    Known values: n for unbiased-basis tables, n/2 for the +-A_x/2 table,
    n for the dichotomic form. Each is cross-checked by evaluating the
    canonical assemblage; attainment gives the lower half, and the upper
    half follows from sum_a Tr(sigma_x^a) = 1 per setting (unbiased bases:
    Tr(F sigma) <= ||F|| Tr(sigma) termwise; anticommuting kinds:
    |Tr(A_x (sigma_x^1 - sigma_x^2))| <= ||sigma_x^1 - sigma_x^2||_1 <= 1).
    For positive-semidefinite tables the envelope sum_x max_a ||F_x^a||
    is asserted as a consistency upper bound.
    """
    targets = {"mub": float(f.n), "clifford": f.n / 2.0, "clifford-dichotomic": float(f.n)}
    if f.kind not in targets:
        raise PreconditionError(
            f"no analytic quantum bound for kind {f.kind!r}; use quantum_bound_seesaw"
        )
    if method not in ("analytic", "canonical"):
        raise PreconditionError(f"unknown method {method!r}")
    target = targets[f.kind]
    attained = float(evaluate(f, canonical_quantum_assemblage(f)))
    if abs(attained - target) > TOLERANCES.bound_slack:
        raise BoundCheckError(
            f"canonical assemblage attains {attained!r}, expected {target!r}"
        )
    if f.psd:
        envelope = sum(
            max(operator_norm(f.coefficients[x, a]) for a in range(f.m))
            for x in range(f.n)
        )
        if target > envelope + TOLERANCES.bound_slack:
            raise BoundCheckError(
                f"quantum bound {target} exceeds the PSD envelope {envelope}"
            )
    value = target if method == "analytic" else attained
    return QuantumBoundResult(value=value, method=method, canonical_value=attained)


def _optimal_two_outcome(difference: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace: the exact maximizer of
    Tr(E difference) over 0 <= E <= 1."""
    vals, vecs = np.linalg.eigh(hermitian_part(difference))
    pos = vecs[:, vals > 0]
    return pos @ pos.conj().T


def _povm_pairwise_update(conditioned: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """One sweep of exact two-outcome splits over all outcome pairs.

    Rewriting E_a = Q^(1/2) X Q^(1/2) with Q = E_a + E_b turns each pair
    subproblem into Tr(X Q^(1/2)(R_a - R_b)Q^(1/2)) over 0 <= X <= 1,
    solved by the positive-eigenspace projector; the objective never
    decreases.
    """
    m = conditioned.shape[0]
    povm = povm.copy()
    for a in range(m):
        for b in range(a + 1, m):
            q = hermitian_part(povm[a] + povm[b])
            vals, vecs = np.linalg.eigh(q)
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
            split = hermitian_part(root @ (conditioned[a] - conditioned[b]) @ root)
            svals, svecs = np.linalg.eigh(split)
            pos = svecs[:, svals > 0]
            e_a = hermitian_part(root @ (pos @ pos.conj().T) @ root)
            povm[a] = e_a
            povm[b] = q - e_a
    return povm


def quantum_bound_seesaw(
    f: SteeringFunctional,
    dim_a: int | None = None,
    restarts: int = 20,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> SeesawResult:
    """Monotone alternating lower bound on the quantum value.

    Parametrizes an explicit realization - a pure bipartite state and one
    POVM per setting - and alternates exact coordinate maximizations: with
    the state fixed, each setting's measurement is rebuilt from the
    eigendecomposition of its conditioned operators (positive-eigenspace
    projector for two outcomes, pairwise splits otherwise); with the
    measurements fixed, the state moves to the top eigenvector of the
    assembled operator sum_xa E_x^a (x) F_x^a. Non-Hermitian tables are
    handled through |<F, sigma>| by rotating with the phase of the current
    value, which preserves monotonicity of the modulus. The result is a
    lower bound on the quantum value up to solver tolerance; restarts draw
    fresh random initial states.
    """
    n, m, d = f.n, f.m, f.d
    dim_a = d if dim_a is None else dim_a
    if dim_a < 1 or restarts < 1 or max_iters < 1:
        raise PreconditionError("dim_a, restarts and max_iters must be positive")
    rng = np.random.default_rng(seed)
    coeffs_t = f.coefficients.transpose(0, 1, 3, 2)  # (n, m, d, d), F^T per cell

    best_value = 0.0
    best_trace: tuple[float, ...] = ()
    best_converged = False
    total_iters = 0
    eye_a = np.eye(dim_a, dtype=complex)

    for _ in range(restarts):
        raw = rng.normal(size=dim_a * d) + 1j * rng.normal(size=dim_a * d)
        state = (raw / np.linalg.norm(raw)).reshape(dim_a, d)
        povms = np.broadcast_to(eye_a / m, (n, m, dim_a, dim_a)).copy()
        trace: list[float] = []
        converged = False
        previous = 0.0
        for _ in range(max_iters):
            total_iters += 1
            conditioned = np.einsum(
                "pj,xajq,rq->xapr", state, coeffs_t, state.conj()
            )  # R_x^a = Psi F_x^a^T Psi^dagger
            value = complex(np.einsum("xaij,xaji->", povms, conditioned))
            phase = 1.0 if value == 0 else np.exp(-1j * np.angle(value))
            rotated = np.asarray(
                (phase * conditioned + (phase * conditioned).conj().transpose(0, 1, 3, 2))
                / 2
            )
            for x in range(n):
                if m == 2:
                    proj = _optimal_two_outcome(rotated[x, 0] - rotated[x, 1])
                    povms[x, 0] = proj
                    povms[x, 1] = eye_a - proj
                else:
                    povms[x] = _povm_pairwise_update(rotated[x], povms[x])
            value = complex(np.einsum("xaij,xaji->", povms, conditioned))
            phase = 1.0 if value == 0 else np.exp(-1j * np.angle(value))
            assembled = sum(
                np.kron(povms[x, a], phase * f.coefficients[x, a])
                for x in range(n)
                for a in range(m)
            )
            vals, vecs = np.linalg.eigh(hermitian_part(assembled))
            state = vecs[:, -1].reshape(dim_a, d)
            objective = float(vals[-1])
            if trace and objective < previous - TOLERANCES.seesaw_monotone:
                raise BoundCheckError(
                    f"see-saw objective fell from {previous!r} to {objective!r}"
                )
            trace.append(objective)
            if len(trace) > 1 and objective - previous <= tol:
                converged = True
                previous = objective
                break
            previous = objective
        if not best_trace or previous > best_value:
            best_value = previous
            best_trace = tuple(trace)
            best_converged = converged
    return SeesawResult(
        value=best_value,
        converged=best_converged,
        iterations=total_iters,
        trace=best_trace,
    )


# ---------------------------------------------------------------------------
# full report


def violation(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    angular_resolution: int = DEFAULT_ANGULAR_RESOLUTION,
    seesaw_restarts: int = 20,
    seesaw_max_iters: int = 500,
    seesaw_tol: float = 1e-10,
    seesaw_seed: int = 0,
    strict: bool = True,
) -> BoundsReport:
    """Full report: exact LHS bound, quantum bound, their ratio, and one
    certificate per proven bound the values must respect.

    Structured kinds get analytic quantum values; random/custom tables
    fall back to the see-saw lower bound (tagged as such). A table whose
    LHS bound is 0 has no ratio and is rejected. With strict enabled, a
    failed certificate raises instead of being reported.
    """
    t0 = time.perf_counter()
    lhs = lhs_bound(f, cap=cap, threads=threads, angular_resolution=angular_resolution)
    if lhs.value <= 0:
        raise PreconditionError("S_LHS is 0; the violation ratio is undefined")
    t1 = time.perf_counter()

    diagnostics: dict = {"strategy_count": lhs.strategy_count, "enumeration_cap": cap}
    analytic = applicable_lhs_analytic(f)
    lower_bounds = applicable_violation_lower_bounds(f)

    certificates: list[Certificate] = []
    if f.kind in ("mub", "clifford", "clifford-dichotomic"):
        qb = quantum_bound(f)
        s_q, method = qb.value, qb.method
        certificates.append(
            Certificate(
                name="canonical_attainment",
                satisfied=bool(abs(qb.canonical_value - qb.value) <= TOLERANCES.bound_slack),
                value=qb.canonical_value,
                bound=qb.value,
            )
        )
    else:
        seesaw = quantum_bound_seesaw(
            f,
            restarts=seesaw_restarts,
            max_iters=seesaw_max_iters,
            tol=seesaw_tol,
            seed=seesaw_seed,
        )
        s_q, method = seesaw.value, "seesaw-lower"
        diagnostics["seesaw_iterations"] = seesaw.iterations
        diagnostics["seesaw_converged"] = seesaw.converged
    t2 = time.perf_counter()

    value = s_q / lhs.value
    for tag, bound in analytic.items():
        certificates.append(
            Certificate(
                name=f"lhs_exact_le_{tag}",
                satisfied=bool(lhs.value <= bound + TOLERANCES.bound_slack),
                value=lhs.value,
                bound=bound,
            )
        )
    for tag, bound in lower_bounds.items():
        certificates.append(
            Certificate(
                name=f"violation_ge_{tag}",
                satisfied=bool(value >= bound - TOLERANCES.bound_slack),
                value=value,
                bound=bound,
            )
        )
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
    if strict and not report.all_certificates_pass:
        failed = [c.name for c in report.certificates if not c.satisfied]
        raise BoundCheckError(f"certificates failed: {', '.join(failed)}")
    return report


# ---------------------------------------------------------------------------
# Gram-matrix identities and fine-grained uncertainty


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of response-weighted basis vectors sqrt(p(a|x)) |phi_x^a>,
    indexed by the composite (x, a) in row-major order."""

    matrix: np.ndarray  # (n*d, n*d)
    settings: int
    dimension: int


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
    if p.min(initial=0.0) < -1e-12:
        raise PreconditionError(f"probability table has negative entry {p.min()}")
    row_defect = float(np.abs(p.sum(axis=1) - 1.0).max(initial=0.0))
    if row_defect > 1e-12:
        raise PreconditionError(
            f"probability rows must sum to 1 within 1e-12 (defect {row_defect:.3e})"
        )
    weights = np.sqrt(np.clip(p, 0.0, None))
    return (weights[:, :, None] * family.bases).reshape(n * d, d)


def gram_matrix(family: MubFamily, p) -> GramMatrix:
    """Gram matrix G[(x,a),(y,b)] = sqrt(p(a|x) p(b|y)) <phi_x^a|phi_y^b>."""
    psi = _weighted_vectors(family, p)
    g = psi.conj() @ psi.T
    min_eig = float(np.linalg.eigvalsh(hermitian_part(g)).min())
    if min_eig < -TOLERANCES.gram_psd:
        raise BoundCheckError(f"Gram matrix has eigenvalue {min_eig}, expected PSD")
    return GramMatrix(matrix=g, settings=family.count, dimension=family.dimension)


def gram_norm_identity_check(family: MubFamily, p) -> GramIdentityReport:
    """Check that the frame operator sum |psi><psi| and the Gram matrix of
    the same vectors share their operator norm, and that the scaled Gram
    norm stays below sqrt(d) + n + 1 (sharper intermediate with sup p(a|x)
    in place of 1 is reported for diagnostics, not asserted)."""
    n, d = family.count, family.dimension
    psi = _weighted_vectors(family, p)
    gram = gram_matrix(family, p)
    frame = psi.T @ psi.conj()
    frame_norm = operator_norm(frame)
    gram_norm = operator_norm(gram.matrix)
    scaled_norm = float(np.sqrt(d) * gram_norm)
    p = np.asarray(p, dtype=float)
    return GramIdentityReport(
        frame_norm=frame_norm,
        gram_norm=gram_norm,
        deviation=abs(frame_norm - gram_norm),
        scaled_norm=scaled_norm,
        scaled_bound=float(np.sqrt(d) + n + 1),
        scaled_bound_sharp=float(np.sqrt(d) * p.max() + n + 1),
        tolerance=TOLERANCES.gram_identity,
    )


def fine_grained_xi(family: MubFamily, strategy) -> float:
    """Largest average success probability (1/n) sum_x p(a(x)|x) over
    states, for one fixed outcome string a(x); asserts the unbiased-basis
    bound (1/d)(1 + (d-1)/sqrt(n))."""
    n, d = family.count, family.dimension
    strategy = tuple(int(a) for a in strategy)
    if len(strategy) != n:
        raise PreconditionError(f"strategy length {len(strategy)} != settings {n}")
    if any(not 0 <= a < d for a in strategy):
        raise PreconditionError(f"strategy {strategy} has outcomes outside [0, {d})")
    chosen = family.bases[np.arange(n), list(strategy)]
    mean_proj = (chosen.T @ chosen.conj()) / n
    xi = float(np.linalg.eigvalsh(hermitian_part(mean_proj))[-1])
    bound = fine_grained_bound(d, n)
    if xi > bound + TOLERANCES.bound_slack:
        raise BoundCheckError(f"fine-grained value {xi} exceeds the bound {bound}")
    return xi
