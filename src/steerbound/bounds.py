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

lhs_bound is the one entry point. It asks structure.table_structure
which path the table allows - never its `kind` - and takes it: a closed
form for anticommuting +- tables (no strategy evaluated, all-zeros
witness), or the first m^(n-k) strategies in lexicographic order, those
with a_0..a_{k-1} = 0, for a prefix k of 2 (Weyl-covariant tables), 1
(complement-symmetric tables) or 0 (everything else); rank-one tables
swap the per-strategy norm for their exact closed-form radius. Every
evaluated strategy has the value it has in strategy_norms, the full
enumeration, which stays the reference: the top |eigenvalue| when the
table is Hermitian, the numerical radius otherwise, taken over each
chunk's whole stack of strategy operators in one call, and for
two-outcome tables with F_x^2 = -F_x^1 only the a_0 = 0 half, mirrored.
Both build each chunk of strategy operators as one GEMM of a one-hot
selector with the flattened table. Chunks have fixed, shape-only bounds;
the `threads` pool workers are the only parallelism, because the
enumeration holds OpenBLAS at one thread. The maximum is the first one
in lexicographic order, so reports are identical for any `threads` and
any OPENBLAS_NUM_THREADS. These pins serve library callers; the command
line holds OpenBLAS at one thread for its whole command, so that load,
table_structure and the certificates run single-threaded too.

paper_values, the one reader of `kind`, holds what the paper proves for
the kind a table claims; quantum_bound checks that claim on the table,
and violation reads nothing else for its analytic values. Tables
without paper values get a see-saw lower bound instead.
quantum_bound_seesaw advances its restarts together, batched
over restarts and settings, in groups whose assembled operators stay
within 8 MiB, also with OpenBLAS at one thread.

Memory is bounded by shape alone: 8 MiB of strategy operators per chunk,
256 KiB of rotated matrices per numerical-radius grid block (see
linalg.numerical_radius), 8 MiB of assembled operators per see-saw
group; table_structure adds one setting's cells, a d x d product and a
boolean mask of the table at a time. A table whose absolute entry sum
reaches 1e300 is rejected before any of them runs, since its strategy
sums could overflow.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundCheckError, EnumerationCapExceeded, PreconditionError
from .functionals import (
    SteeringFunctional,
    canonical_quantum_assemblage,
    evaluate,
    require_seed,
)
from .linalg import blas_threads, hermitian_part, numerical_radius, operator_norm
from .mub import MubFamily
from .structure import complement_symmetric, table_scale, table_structure
from .tolerances import TOLERANCES

DEFAULT_ENUMERATION_CAP = 10**6
DEFAULT_ANGULAR_RESOLUTION = 720
_MAX_TABLE_MASS = 1e300


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class LhsExactResult:
    value: float
    witness: tuple[int, ...]  # outcome index per setting, 0-based
    strategy_count: int  # m^n, whatever the path
    method: str  # the table_structure path that ran
    strategies_evaluated: int  # strategies whose norm was computed


@dataclass(frozen=True)
class QuantumBoundResult:
    value: float
    canonical_value: float  # what the canonical assemblage attains


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
        return dataclasses.asdict(self) | {"s_lhs_witness": list(self.s_lhs_witness)}


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


def _chunk_sums(cells: np.ndarray, n: int, m: int, start: int, stop: int) -> np.ndarray:
    """sum_x F_x^{a(x)} for strategies start..stop-1 in lexicographic order,
    each flattened to one complex row, as one GEMM: a one-hot
    (strategy, n*m) selector times the cells flattened to real rows."""
    rows = np.arange(stop - start)
    digits = np.stack(np.unravel_index(start + rows, (m,) * n), axis=1)
    select = np.zeros((rows.size, n * m))
    select[rows[:, None], np.arange(n) * m + digits] = 1.0
    return (select @ cells).view(complex)


def _require_bounded_table(f: SteeringFunctional) -> None:
    """Reject a table whose strategy sums or see-saw operators can overflow.

    Each of their entries is at most the table's absolute entry sum
    (|Re| + |Im| over all entries) times a few sqrt(d); a sum below
    _MAX_TABLE_MASS keeps all of them, and their Hermitian parts, finite.
    """
    with np.errstate(over="ignore"):
        mass = np.abs(f.coefficients.real).sum() + np.abs(f.coefficients.imag).sum()
    if not mass < _MAX_TABLE_MASS:
        raise PreconditionError(
            f"table entries sum to {mass:.3g} in absolute value; above "
            f"{_MAX_TABLE_MASS:.0e} strategy sums can overflow"
        )


def _top_abs_eigenvalues(ops: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(ops)
    return np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))


def _checked_total(
    f: SteeringFunctional, cap: int, threads: int, angular_resolution: int
) -> int:
    """m^n, after every check strategy_norms and lhs_bound share."""
    if threads < 1:
        raise PreconditionError(f"thread count must be positive, got {threads}")
    if angular_resolution < 8:
        raise PreconditionError(
            f"angular_resolution must be at least 8, got {angular_resolution}"
        )
    _require_bounded_table(f)
    return _strategy_total(f.n, f.m, cap)


def _strategy_values(
    f: SteeringFunctional,
    count: int,
    threads: int,
    angular_resolution: int,
    row: int | None = None,
) -> np.ndarray:
    """Values of the first `count` strategies in lexicographic order, over
    fixed, shape-only chunks on `threads` pool workers with OpenBLAS held
    at one thread: the top |eigenvalue| of each strategy operator for
    Hermitian tables, its numerical radius otherwise (one call per chunk),
    or, when every cell is zero outside `row`, the exact rank-one radius
    (|w_row| + |w|)/2 of that row w of the operator."""
    n, m, d = f.n, f.m, f.d
    chunk = _chunk_size(d)
    spans = [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
    cells = f.coefficients if row is None else f.coefficients[:, :, row : row + 1]
    cells = np.ascontiguousarray(cells).reshape(n * m, -1).view(np.float64)

    def values_of(span):
        sums = _chunk_sums(cells, n, m, *span)
        if row is not None:
            return (np.abs(sums[:, row]) + np.linalg.norm(sums, axis=1)) / 2
        if f.hermitian:
            return _top_abs_eigenvalues(sums.reshape(-1, d, d))
        return numerical_radius(sums.reshape(-1, d, d), angular_resolution)

    with blas_threads(1):
        if threads > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(values_of, spans))
        else:
            parts = [values_of(span) for span in spans]
    return np.concatenate(parts) if parts else np.zeros(0)


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
    8 whatever the table, and a table whose strategy sums can overflow is
    rejected first (_require_bounded_table). Fixed, shape-only chunks run
    on `threads` pool workers with OpenBLAS held at one thread; a chunk of
    a non-Hermitian table is one numerical_radius call on its stack. For
    complement-symmetric tables only the a_0 = 0 half is computed: the
    complement of strategy i is m^n - 1 - i, so the second half is the
    first one reversed. No other structure is used: this is the full
    enumeration lhs_bound's shortcuts are tested against.
    """
    total = _checked_total(f, cap, threads, angular_resolution)
    mirrored = complement_symmetric(f)
    values = _strategy_values(
        f, total // 2 if mirrored else total, threads, angular_resolution
    )
    return np.concatenate([values, values[::-1]]) if mirrored else values


def lhs_bound(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    angular_resolution: int = DEFAULT_ANGULAR_RESOLUTION,
) -> LhsExactResult:
    """Exact LHS bound: the largest strategy norm (see strategy_norms) over
    all m^n deterministic strategies, by the path table_structure finds.

    A closed form (anticommuting) returns its value with the all-zeros
    witness and evaluates no strategy. Otherwise the first m^(n-k)
    strategies are evaluated, those with a_0..a_{k-1} = 0 for the prefix k
    of the structure (0 for a full enumeration), each with the same value
    it has in strategy_norms (or, for rank-one tables, the exact radius),
    and ties break toward the lexicographically first. The cap applies to
    m^n whatever the path, and strategy_count is always m^n.
    """
    total = _checked_total(f, cap, threads, angular_resolution)
    structure = table_structure(f)
    if structure.value is not None:
        return LhsExactResult(
            value=structure.value,
            witness=(0,) * f.n,
            strategy_count=total,
            method=structure.method,
            strategies_evaluated=0,
        )
    values = _strategy_values(
        f, f.m ** (f.n - structure.prefix), threads, angular_resolution, structure.row
    )
    best = int(np.argmax(values))
    witness = tuple(int(a) for a in np.unravel_index(best, (f.m,) * f.n))
    return LhsExactResult(
        value=float(values[best]),
        witness=witness,
        strategy_count=total,
        method=structure.method,
        strategies_evaluated=values.size,
    )


# ---------------------------------------------------------------------------
# the paper's values and the quantum bound


@dataclass(frozen=True)
class PaperValues:
    """The quantum value and, per formula tag, an LHS upper bound and the
    violation lower bound s_q / lhs_upper (up to the last bit)."""

    s_q: float
    lhs_upper: dict[str, float]
    violation_lower: dict[str, float]


def paper_values(f: SteeringFunctional) -> PaperValues | None:
    """What the paper proves for the kind `f` claims; None for random and
    custom tables.

    Unbiased bases: S_Q = n, S_LHS <= 1 + (n+1)/sqrt(d) from the scaled
    Gram matrix ("mub-gram") and (n/d)(1 + (d-1)/sqrt(n)) from
    fine-grained uncertainty ("mub-uncertainty"). Anticommuting
    observables: S_Q = n/2 and S_LHS <= sqrt(n/2) for the +-A_x/2 table,
    S_Q = n and S_LHS <= sqrt(2n) for the dichotomic form.
    """
    n, d = f.n, f.d
    if f.kind == "mub":
        if d < 2:
            raise PreconditionError(f"invalid scenario d={d}, n={n}")
        return PaperValues(
            s_q=float(n),
            lhs_upper={
                "mub-gram": 1.0 + (n + 1) / np.sqrt(d),
                "mub-uncertainty": (n / d) * (1.0 + (d - 1) / np.sqrt(n)),
            },
            violation_lower={
                "mub-gram": n * np.sqrt(d) / (n + 1 + np.sqrt(d)),
                "mub-uncertainty": d * np.sqrt(n) / (np.sqrt(n) + d - 1),
            },
        )
    rate = float(np.sqrt(n / 2.0))
    if f.kind == "clifford":
        return PaperValues(
            s_q=n / 2.0, lhs_upper={"clifford": rate}, violation_lower={"clifford": rate}
        )
    if f.kind == "clifford-dichotomic":
        return PaperValues(
            s_q=float(n),
            lhs_upper={"dichotomic": float(np.sqrt(2.0 * n))},
            violation_lower={"dichotomic": rate},
        )
    return None


def quantum_bound(f: SteeringFunctional) -> QuantumBoundResult:
    """The quantum value paper_values gives the table's kind, checked on
    the table: the kind's canonical assemblage must be valid (a kind the
    table lacks fails positivity, no-signalling or normalisation) and
    attain the value. Attainment gives the lower half; the upper half follows
    from sum_a Tr(sigma_x^a) = 1 per setting (unbiased bases:
    Tr(F sigma) <= ||F|| Tr(sigma) termwise; anticommuting kinds:
    |Tr(A_x (sigma_x^1 - sigma_x^2))| <= ||sigma_x^1 - sigma_x^2||_1 <= 1).
    For positive-semidefinite tables the envelope sum_x max_a ||F_x^a||
    is asserted as a consistency upper bound. Each failed check raises
    BoundCheckError; random and custom tables raise PreconditionError.
    """
    values = paper_values(f)
    if values is None:
        raise PreconditionError(
            f"no analytic quantum bound for kind {f.kind!r}; use quantum_bound_seesaw"
        )
    try:
        assemblage = canonical_quantum_assemblage(f)
    except PreconditionError as exc:
        raise BoundCheckError(
            f"kind {f.kind!r} does not fit the table: its canonical {exc}"
        ) from None
    attained = float(evaluate(f, assemblage))
    if abs(attained - values.s_q) > TOLERANCES.bound_slack:
        raise BoundCheckError(
            f"canonical assemblage attains {attained!r}, expected {values.s_q!r}"
        )
    if f.psd:
        envelope = sum(
            max(operator_norm(f.coefficients[x, a]) for a in range(f.m))
            for x in range(f.n)
        )
        if values.s_q > envelope + TOLERANCES.bound_slack:
            raise BoundCheckError(
                f"quantum bound {values.s_q} exceeds the PSD envelope {envelope}"
            )
    return QuantumBoundResult(value=values.s_q, canonical_value=attained)


_SEESAW_GROUP_BYTES = 1 << 23  # assembled stack of one restart group


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _positive_projectors(h: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace of each Hermitian matrix in
    the stack: the exact maximizer of Tr(E h) over 0 <= E <= 1."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * (vals > 0)[..., None, :]) @ _dagger(vecs)


def _povm_update(rotated: np.ndarray, povms: np.ndarray) -> np.ndarray:
    """Exact coordinate step for every (..., setting) POVM at once.

    Two outcomes take the positive-eigenspace projector of R^1 - R^2.
    More outcomes take one sweep of exact two-outcome splits over all
    outcome pairs: rewriting E_a = Q^(1/2) X Q^(1/2) with Q = E_a + E_b
    turns each pair subproblem into Tr(X Q^(1/2)(R_a - R_b)Q^(1/2)) over
    0 <= X <= 1, solved by the same projector. The objective never
    decreases.
    """
    m = povms.shape[-3]
    if m == 2:
        proj = _positive_projectors(hermitian_part(rotated[..., 0, :, :] - rotated[..., 1, :, :]))
        return np.stack([proj, np.eye(proj.shape[-1]) - proj], axis=-3)
    povms = povms.copy()
    for a in range(m):
        for b in range(a + 1, m):
            q = hermitian_part(povms[..., a, :, :] + povms[..., b, :, :])
            vals, vecs = np.linalg.eigh(q)
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ _dagger(vecs)
            split = hermitian_part(root @ (rotated[..., a, :, :] - rotated[..., b, :, :]) @ root)
            e_a = hermitian_part(root @ _positive_projectors(split) @ root)
            povms[..., a, :, :] = e_a
            povms[..., b, :, :] = q - e_a
    return povms


def _phases(povms: np.ndarray, conditioned: np.ndarray) -> np.ndarray:
    """e^{-i arg v} per restart, v = sum_xa Tr(E_x^a R_x^a); 1 where v = 0."""
    value = np.einsum("rxaij,rxaji->r", povms, conditioned)
    return np.where(value == 0, 1.0, np.exp(-1j * np.angle(value)))


def _seesaw_group(
    f: SteeringFunctional, state: np.ndarray, max_iters: int, tol: float, slack: float
) -> tuple[np.ndarray, np.ndarray, list[list[float]], int]:
    """Run the restarts starting from the (k, dim_a, d) states together
    until each converges or takes max_iters steps: (final values,
    converged flags, traces, steps taken by all of them). A step that
    falls by more than `slack` raises."""
    k, dim_a, d = state.shape
    n, m = f.n, f.m
    coeffs_t = f.coefficients.transpose(0, 1, 3, 2)  # (n, m, d, d), F^T per cell
    povms = np.broadcast_to(np.eye(dim_a, dtype=complex) / m, (k, n, m, dim_a, dim_a)).copy()
    finals = np.zeros(k)
    converged = np.zeros(k, dtype=bool)
    traces: list[list[float]] = [[] for _ in range(k)]
    active = np.arange(k)
    steps = 0
    for step in range(max_iters):
        steps += active.size
        # R_x^a = Psi F_x^a^T Psi^dagger, per restart
        conditioned = state[:, None, None] @ coeffs_t @ _dagger(state)[:, None, None]
        phase = _phases(povms, conditioned)[:, None, None, None, None]
        povms = _povm_update(hermitian_part(phase * conditioned), povms)
        phase = _phases(povms, conditioned)[:, None, None]
        assembled = np.einsum("rxaij,xakl->rikjl", povms, f.coefficients, optimize=True)
        assembled = assembled.reshape(-1, dim_a * d, dim_a * d)
        vals, vecs = np.linalg.eigh(hermitian_part(phase * assembled))
        state = vecs[..., -1].reshape(-1, dim_a, d)
        objective = vals[:, -1]
        previous = finals[active]
        fell = objective < previous - slack
        if step and fell.any():
            r = int(np.argmax(fell))
            raise BoundCheckError(
                f"see-saw objective fell from {float(previous[r])!r} to {float(objective[r])!r}"
            )
        for r, value in zip(active.tolist(), objective.tolist()):
            traces[r].append(value)
        finals[active] = objective
        done = (objective - previous <= tol) & (step > 0)
        converged[active[done]] = True
        active, state, povms = active[~done], state[~done], povms[~done]
        if not active.size:
            break
    return finals, converged, traces, steps


def _check_seesaw_parameters(restarts: int, max_iters: int, tol: float, seed: int) -> None:
    if restarts < 1 or max_iters < 1:
        raise PreconditionError(
            f"see-saw restarts and max_iters must be positive, got {restarts} and {max_iters}"
        )
    if not (np.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"see-saw tolerance must be finite and at least 0, got {tol!r}")
    require_seed(seed)


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
    fresh random initial states, in restart order from one generator.

    Restarts advance together, in groups whose assembled
    (group, dim_a*d, dim_a*d) stack stays within 8 MiB (at least one
    restart per group), with OpenBLAS held at one thread; every step is
    batched over the group's restarts and settings, and a restart leaves
    the group once a step gains at most `tol`. `iterations` counts the
    steps of all restarts; the result is the first restart with the
    largest final value, with its trace. A step that falls by more than
    TOLERANCES.seesaw_monotone * table_scale(f), a slack that grows with
    the table's scale as its rounding does, raises BoundCheckError.
    """
    d = f.d
    dim_a = d if dim_a is None else dim_a
    if dim_a < 1:
        raise PreconditionError(f"dim_a must be positive, got {dim_a}")
    _check_seesaw_parameters(restarts, max_iters, tol, seed)
    _require_bounded_table(f)
    rng = np.random.default_rng(seed)
    group = max(1, _SEESAW_GROUP_BYTES // (16 * (dim_a * d) ** 2))
    slack = TOLERANCES.seesaw_monotone * table_scale(f)
    finals, converged, traces, iterations = [], [], [], 0
    with blas_threads(1):
        for first in range(0, restarts, group):
            raw = rng.normal(size=(min(group, restarts - first), 2, dim_a * d))
            raw = raw[:, 0] + 1j * raw[:, 1]
            state = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).reshape(-1, dim_a, d)
            values, flags, paths, steps = _seesaw_group(f, state, max_iters, tol, slack)
            finals.append(values)
            converged.append(flags)
            traces += paths
            iterations += steps
    values = np.concatenate(finals)
    best = int(np.argmax(values))
    return SeesawResult(
        value=float(values[best]),
        converged=bool(np.concatenate(converged)[best]),
        iterations=iterations,
        trace=tuple(traces[best]),
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

    Kinds with paper values (paper_values) get the analytic quantum value,
    a canonical-attainment certificate and one certificate per LHS upper
    bound and per violation lower bound; random/custom tables fall back to
    the see-saw lower bound (tagged as such). A table whose
    LHS bound is 0 has no ratio and is rejected. The see-saw parameters
    are checked first, for every table. With strict enabled, a failed
    certificate raises instead of being reported.
    """
    _check_seesaw_parameters(seesaw_restarts, seesaw_max_iters, seesaw_tol, seesaw_seed)
    t0 = time.perf_counter()
    lhs = lhs_bound(f, cap=cap, threads=threads, angular_resolution=angular_resolution)
    if lhs.value <= 0:
        raise PreconditionError("S_LHS is 0; the violation ratio is undefined")
    t1 = time.perf_counter()

    diagnostics: dict = {
        "strategy_count": lhs.strategy_count,
        "enumeration_cap": cap,
        "lhs_method": lhs.method,
        "strategies_evaluated": lhs.strategies_evaluated,
    }
    paper = paper_values(f)
    certificates: list[Certificate] = []
    if paper is not None:
        qb = quantum_bound(f)
        s_q, method = qb.value, "analytic"
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
    analytic = paper.lhs_upper if paper else {}
    lower_bounds = paper.violation_lower if paper else {}
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


def gram_matrix(family: MubFamily, p) -> np.ndarray:
    """Gram matrix G[(x,a),(y,b)] = sqrt(p(a|x) p(b|y)) <phi_x^a|phi_y^b> of
    the response-weighted basis vectors, (n*d, n*d) with the composite
    (x, a) in row-major order."""
    psi = _weighted_vectors(family, p)
    g = psi.conj() @ psi.T
    min_eig = float(np.linalg.eigvalsh(hermitian_part(g)).min())
    if min_eig < -TOLERANCES.gram_psd:
        raise BoundCheckError(f"Gram matrix has eigenvalue {min_eig}, expected PSD")
    return g


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
    gram_norm = operator_norm(gram)
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


def fine_grained_bound(d: int, n: int) -> float:
    """Upper bound (1/d)(1 + (d-1)/sqrt(n)) on the average success
    probability of any fixed outcome string across n unbiased bases."""
    return (1.0 + (d - 1) / np.sqrt(n)) / d


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
