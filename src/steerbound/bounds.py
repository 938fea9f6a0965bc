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
solved strategy has the value it has in strategy_norms, the full
enumeration, which stays the reference: the top |eigenvalue| when the
table is Hermitian, the numerical radius otherwise, taken over each
chunk's whole stack of strategy operators in one call, and for
two-outcome tables with F_x^2 = -F_x^1 only the a_0 = 0 half, mirrored.
Both build each chunk of strategy operators as one GEMM of a one-hot
selector with the flattened table. lhs_bound then solves, per chunk,
only the strategies a certified upper bound leaves in reach of the
chunk's maximum: (Tr H^4)^(1/4) for Hermitian tables, 16 support lines
of the numerical range otherwise (linalg), measured against the value
of the strategy with the largest bound. Chunks have fixed, shape-only
bounds; the `threads` pool workers are the only parallelism, because the
enumeration holds OpenBLAS at one thread. The maximum is the first one
in lexicographic order, so reports are identical for any `threads` and
any OPENBLAS_NUM_THREADS. These pins serve library callers; the command
line holds OpenBLAS at one thread for its whole command, so that load,
table_structure and the certificates run single-threaded too.

paper_values, the one reader of `kind`, holds what the paper proves for
the kind a table claims, including the scale and shift of the canonical
assemblage (scale F_x^a + shift I)/d that attains its quantum value;
quantum_bound and violation check that claim on the table with one
attainment certificate, and violation reads nothing else for its
analytic values. The certificate pairs the table with that assemblage
through sums over the table (_canonical_check), without building it.
Tables without paper values get a see-saw lower bound instead.
quantum_bound_seesaw advances its restarts together, batched
over restarts and settings, in groups whose assembled operators stay
within 8 MiB, also with OpenBLAS at one thread. Its measurement step
splits outcome pairs with one QR and one eigensolve each, or, on tables
of more than two outcomes whose cells are zero outside one row
(structure._rank_one_row, every random table with d > 2), with one QR
and a closed form. Every third update starts from a safeguarded SQUAREM
extrapolation of the state (Varadhan and Roland, Scand. J. Stat. 35,
335-353, 2008) and is kept only where it does not lower the objective,
which about halves the updates a linearly converging restart takes.

Memory is bounded by shape alone: 1 MiB of strategy operators per chunk,
beside the copy of those a pruned chunk still solves, 256 KiB of squared
or rotated matrices per block of the upper bounds and of the
numerical-radius grid (see linalg), 8 MiB of assembled operators per
see-saw group, beside two earlier states and one spare POVM/factor table per
restart in it; table_structure adds one setting's cells, a d x d product,
a boolean mask of the table and the (n, d) gathers of one setting's
anticommutation pairs at a time. The canonical attainment
adds one setting's outcome sum, and the cells' Hermitian parts only when
it must eigensolve them (tables without the +- structure). A table whose
absolute entry sum reaches 1e300 is rejected before any of them runs,
since its strategy sums could overflow.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundCheckError, EnumerationCapExceeded, PreconditionError
from .functionals import Assemblage, AssemblageReport, SteeringFunctional, require_seed
from .linalg import (
    blas_threads,
    hermitian_norm_upper_bounds,
    hermitian_part,
    numerical_radius,
    numerical_radius_upper_bounds,
    operator_norm,
    square_safe,
)
from .mub import MubFamily
from .structure import (
    TableStructure,
    _rank_one_row,
    anticommuting_squares,
    complement_symmetric,
    table_scale,
    table_structure,
)
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
    structure: TableStructure  # what table_structure found; its method ran
    strategies_evaluated: int  # strategies the maximum covers, solved or certified below it
    strategies_solved: int  # strategies whose norm was computed

    @property
    def method(self) -> str:
        return self.structure.method


@dataclass(frozen=True)
class QuantumBoundResult:
    value: float
    canonical_value: float  # what the canonical assemblage attains


@dataclass(frozen=True)
class SeesawResult:
    value: float
    converged: bool
    iterations: int
    trace: tuple[float, ...]  # kept objective values of the best restart
    extrapolations_kept: int  # over all restarts
    extrapolations_tried: int


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
    def failed(self) -> tuple[str, ...]:
        """Names of the certificates not satisfied."""
        return tuple(c.name for c in self.certificates if not c.satisfied)

    @property
    def all_certificates_pass(self) -> bool:
        return not self.failed

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
    # keeps a chunk's (chunk, d, d) operator stack at or below 1 MiB; depends
    # only on the problem shape so results cannot vary with the worker count
    return max(1, min(8192, (1 << 16) // (d * d)))


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
    The sum is taken one setting at a time, so the temporaries are one
    setting's.
    """
    mass = 0.0
    with np.errstate(over="ignore"):
        for cells in f.coefficients:
            mass += np.abs(cells.real).sum() + np.abs(cells.imag).sum()
    if not mass < _MAX_TABLE_MASS:
        raise PreconditionError(
            f"table entries sum to {mass:.3g} in absolute value; above "
            f"{_MAX_TABLE_MASS:.0e} strategy sums can overflow"
        )


def _top_abs_eigenvalues(ops: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(ops)
    return np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))


def _pruned_values(ops: np.ndarray, norms, upper_bounds) -> np.ndarray:
    """norms(ops) where a strategy can reach the stack's maximum, -inf
    where its certified upper bound shows it cannot.

    The strategy with the largest bound is solved first; every other one
    whose bound is not below that value, less the relative
    TOLERANCES.strategy_pruning, is solved in one further call. A skipped
    strategy's norm is below the solved one's, so it can neither be the
    maximum nor tie with it. A bound that is not a number counts as
    infinite."""
    if ops.shape[0] == 1:
        return norms(ops)
    bounds = upper_bounds(ops)
    top = int(np.argmax(bounds))
    values = np.full(ops.shape[0], -np.inf)
    values[top] = norms(ops[top : top + 1])[0]
    near = ~(bounds < values[top] * (1.0 - TOLERANCES.strategy_pruning))
    near[top] = False
    near = np.flatnonzero(near)
    if near.size:
        values[near] = norms(ops[near])
    return values


def _near_anticommuting(f: SteeringFunctional) -> bool:
    """Whether all strategy norms are within half of
    TOLERANCES.strategy_pruning of one another, so that no upper bound can
    skip any of them: the near misses of the anticommuting closed form,
    whose enumeration would otherwise pay for every bound and solve every
    strategy all the same.

    That holds for a +- table of exactly Hermitian B_x = F_x^1 whose
    defect D = sum_x ||B_x^2 - c_x^2 I||_F + sum_{x<y} ||B_x B_y + B_y B_x||_F,
    with c_x^2 = ||B_x||_F^2 / d, is at most C strategy_pruning / 2 for
    C = sum_x c_x^2: every strategy operator S has S^2 = C I + E with
    ||E|| <= D, so ||S||^2 lies in [C - D, C + D]. Dense products at one
    OpenBLAS thread, so the decision cannot depend on the caller's thread
    count; the first setting that takes D past its limit ends the check."""
    if not complement_symmetric(f) or not f.exactly_hermitian:
        return False
    ops = f.coefficients[:, 0]
    eye = np.eye(f.d)
    with blas_threads(1), np.errstate(over="ignore", invalid="ignore"):
        squares = [np.vdot(b, b).real / f.d for b in ops]
        limit = TOLERANCES.strategy_pruning / 2 * sum(squares)
        defect = 0.0
        for x, b in enumerate(ops):
            defect += np.linalg.norm(b @ b - squares[x] * eye)
            for y in range(x):
                p = b @ ops[y]
                defect += np.linalg.norm(p + p.conj().T)
            if not defect <= limit:
                return False
    return True


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
    prune: bool = False,
) -> np.ndarray:
    """Values of the first `count` strategies in lexicographic order, over
    fixed, shape-only chunks on `threads` pool workers with OpenBLAS held
    at one thread: the top |eigenvalue| of each strategy operator for
    Hermitian tables, its numerical radius otherwise (one call per chunk),
    or, when every cell is zero outside `row`, the exact rank-one radius
    (|w_row| + |w|)/2 of that row w of the operator. With `prune`, a
    chunk of operators solves only the strategies that can reach its
    maximum (_pruned_values, bounded by hermitian_norm_upper_bounds or
    numerical_radius_upper_bounds) and gives the others -inf; every
    solved value is the one the unpruned chunk gives."""
    n, m, d = f.n, f.m, f.d
    chunk = _chunk_size(d)
    spans = [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
    cells, scale = f.coefficients, 1.0
    if row is not None:  # scaled so that the radius's squares cannot overflow
        cells, scale = square_safe(cells[:, :, row : row + 1])
    cells = np.ascontiguousarray(cells).reshape(n * m, -1).view(np.float64)
    if f.hermitian:
        norms, upper_bounds = _top_abs_eigenvalues, hermitian_norm_upper_bounds
    else:
        upper_bounds = numerical_radius_upper_bounds

        def norms(ops):
            return numerical_radius(ops, angular_resolution)

    def values_of(span):
        sums = _chunk_sums(cells, n, m, *span)
        if row is not None:
            return (np.abs(sums[:, row]) + np.linalg.norm(sums, axis=1)) / (2 * scale)
        ops = sums.reshape(-1, d, d)
        return _pruned_values(ops, norms, upper_bounds) if prune else norms(ops)

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
    of the structure (0 for a full enumeration), and ties break toward the
    lexicographically first. Rank-one tables solve each with its exact
    radius. Other tables solve, per chunk, only the strategies whose
    certified upper bound reaches the chunk's best solved value less the
    relative TOLERANCES.strategy_pruning (_pruned_values), each with the
    value it has in strategy_norms; the others are certified below the
    maximum. A near miss of the closed form (_near_anticommuting), where
    no bound can skip a strategy, solves every one without bounding it.
    strategies_evaluated counts the strategies the maximum covers,
    strategies_solved those whose norm was computed; neither depends on
    `threads`. The cap applies to m^n whatever the path, and
    strategy_count is always m^n.
    """
    total = _checked_total(f, cap, threads, angular_resolution)
    structure = table_structure(f)
    if structure.value is not None:
        return LhsExactResult(
            value=structure.value,
            witness=(0,) * f.n,
            strategy_count=total,
            structure=structure,
            strategies_evaluated=0,
            strategies_solved=0,
        )
    values = _strategy_values(
        f,
        f.m ** (f.n - structure.prefix),
        threads,
        angular_resolution,
        structure.row,
        prune=not _near_anticommuting(f),
    )
    best = int(np.argmax(values))
    witness = tuple(int(a) for a in np.unravel_index(best, (f.m,) * f.n))
    return LhsExactResult(
        value=float(values[best]),
        witness=witness,
        strategy_count=total,
        structure=structure,
        strategies_evaluated=values.size,
        strategies_solved=int(np.count_nonzero(values != -np.inf)),
    )


# ---------------------------------------------------------------------------
# the paper's values and the quantum bound


@dataclass(frozen=True)
class PaperValues:
    """The quantum value, the canonical assemblage attaining it,
    sigma_x^a = (scale F_x^a + shift I)/d, and, per formula tag, an LHS
    upper bound and the violation lower bound s_q / lhs_upper (up to the
    last bit)."""

    s_q: float
    scale: float
    shift: float
    lhs_upper: dict[str, float]
    violation_lower: dict[str, float]


def paper_values(f: SteeringFunctional) -> PaperValues | None:
    """What the paper proves for the kind `f` claims; None for random and
    custom tables.

    Unbiased bases: S_Q = n, attained by F_x^a/d (a maximally entangled
    pair measured in the bases); S_LHS <= 1 + (n+1)/sqrt(d) from the
    scaled Gram matrix ("mub-gram") and (n/d)(1 + (d-1)/sqrt(n)) from
    fine-grained uncertainty ("mub-uncertainty"). Anticommuting
    observables: the spectral projectors (1 +- A_x)/(2d) attain S_Q = n/2
    for the +-A_x/2 table, with S_LHS <= sqrt(n/2), and S_Q = n for the
    dichotomic form, with S_LHS <= sqrt(2n).
    """
    n, d = f.n, f.d
    if f.kind == "mub":
        if d < 2:
            raise PreconditionError(f"invalid scenario d={d}, n={n}")
        return PaperValues(
            s_q=float(n),
            scale=1.0,
            shift=0.0,
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
            s_q=n / 2.0,
            scale=1.0,
            shift=0.5,
            lhs_upper={"clifford": rate},
            violation_lower={"clifford": rate},
        )
    if f.kind == "clifford-dichotomic":
        return PaperValues(
            s_q=float(n),
            scale=0.5,
            shift=0.5,
            lhs_upper={"dichotomic": float(np.sqrt(2.0 * n))},
            violation_lower={"dichotomic": rate},
        )
    return None


def _canonical_check(
    f: SteeringFunctional, paper: PaperValues, squares: tuple[float, ...] | None
) -> tuple[AssemblageReport, complex]:
    """Validity of the canonical assemblage sigma_x^a = (scale F_x^a +
    shift I)/d and its pairing with the table, from sums over the table
    instead of the members, so no table-sized array is built:

    - value: (scale sum_xa Tr(F_x^a F_x^a) + shift sum_xa Tr F_x^a)/d, a
      pairing of the table that never reads `squares`, so an attained
      value still cross-checks the structure proof;
    - no-signalling: sum_a sigma_x^a = (scale R_x + m shift I)/d with
      R_x = sum_a F_x^a, which deviates from setting 0 by
      scale ||R_x - R_0|| / d;
    - normalisation: Tr sum_a sigma_0^a = (scale Tr R_0 + m d shift)/d;
    - positivity: `squares` are the c_x^2 of a table proven to hold cells
      +-B_x with B_x exactly Hermitian and B_x^2 = c_x^2 I
      (structure.anticommuting_squares). Each member then has the
      spectrum (shift +- scale c_x)/d, so the smallest eigenvalue is
      (shift - scale max_x c_x)/d and no cell is eigensolved; without
      them the cells' Hermitian parts are eigensolved in one batch.
    """
    table, m, d = f.coefficients, f.m, f.d
    scale, shift = paper.scale, paper.shift
    if squares:
        lowest = (shift - scale * float(np.sqrt(max(squares)))) / d
    else:
        eigs = np.linalg.eigvalsh(hermitian_part(table.reshape(-1, d, d)))
        lowest = float(((scale * eigs + shift) / d).min())
    first = table[0].sum(axis=0)
    nosig = max(
        (operator_norm(scale * (cells.sum(axis=0) - first) / d) for cells in table[1:]),
        default=0.0,
    )
    trace = (scale * float(np.trace(first).real) + m * d * shift) / d
    report = AssemblageReport(
        min_eigenvalue=lowest,
        no_signaling_deviation=nosig,
        normalization_deviation=abs(trace - 1.0),
        tolerance=TOLERANCES.assemblage,
    )
    pairing = np.einsum("xaij,xaji->", table, table)
    value = (scale * pairing + shift * np.einsum("xaii->", table)) / d
    return report, complex(value)


def canonical_quantum_assemblage(f: SteeringFunctional) -> Assemblage:
    """The assemblage (scale F_x^a + shift I)/d that paper_values gives the
    table's kind; random and custom tables have none (PreconditionError).
    A table without its kind's structure gives an invalid assemblage:
    PreconditionError names the failed properties, as _canonical_check
    finds them with the cells eigensolved."""
    paper = paper_values(f)
    if paper is None:
        raise PreconditionError(f"no canonical quantum assemblage for kind {f.kind!r}")
    _canonical_check(f, paper, None)[0].require()
    members = f.coefficients * paper.scale  # in place after this: one table-sized array
    members += paper.shift * np.eye(f.d, dtype=complex)
    members /= f.d
    return Assemblage(members=members)


def _canonical_attainment(
    f: SteeringFunctional, paper: PaperValues, squares: tuple[float, ...] | None
) -> Certificate:
    """Whether the kind's canonical assemblage attains paper.s_q on the
    table (_canonical_check), after checks that raise BoundCheckError: the
    assemblage must be valid (a kind the table lacks fails positivity,
    no-signalling or normalisation), and for a positive-semidefinite table
    s_q must stay within the envelope sum_x max_a ||F_x^a||. A table with
    `squares` is not probed: its cells B and -B are both positive
    semidefinite only when B = 0, which fails attainment anyway. A pairing
    with an imaginary part misses s_q by it."""
    report, attained = _canonical_check(f, paper, squares)
    try:
        report.require()
    except PreconditionError as exc:
        raise BoundCheckError(
            f"kind {f.kind!r} does not fit the table: its canonical {exc}"
        ) from None
    if not squares and f.psd:
        envelope = float(np.linalg.norm(f.coefficients, 2, axis=(2, 3)).max(axis=1).sum())
        if paper.s_q > envelope + TOLERANCES.bound_slack:
            raise BoundCheckError(
                f"quantum bound {paper.s_q} exceeds the PSD envelope {envelope}"
            )
    return Certificate(
        name="canonical_attainment",
        satisfied=abs(attained - paper.s_q) <= TOLERANCES.bound_slack,
        value=attained.real,
        bound=paper.s_q,
    )


def quantum_bound(f: SteeringFunctional) -> QuantumBoundResult:
    """The quantum value paper_values gives the table's kind, checked on
    the table by _canonical_attainment. Attainment gives the lower half;
    the upper half follows from sum_a Tr(sigma_x^a) = 1 per setting
    (unbiased bases: Tr(F sigma) <= ||F|| Tr(sigma) termwise;
    anticommuting kinds: |Tr(A_x (sigma_x^1 - sigma_x^2))| <=
    ||sigma_x^1 - sigma_x^2||_1 <= 1). Each failed check raises
    BoundCheckError; random and custom tables raise PreconditionError.
    """
    paper = paper_values(f)
    if paper is None:
        raise PreconditionError(
            f"no analytic quantum bound for kind {f.kind!r}; use quantum_bound_seesaw"
        )
    attainment = _canonical_attainment(f, paper, anticommuting_squares(f))
    if not attainment.satisfied:
        raise BoundCheckError(
            f"canonical assemblage attains {attainment.value!r}, expected {paper.s_q!r}"
        )
    return QuantumBoundResult(value=paper.s_q, canonical_value=attainment.value)


_SEESAW_GROUP_BYTES = 1 << 23  # assembled stack of one restart group


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _positive_projectors(h: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace of each Hermitian matrix in
    the stack: the exact maximizer of Tr(E h) over 0 <= E <= 1."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * (vals > 0)[..., None, :]) @ _dagger(vecs)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^dagger y over the last axis."""
    return np.einsum("...i,...i->...", x.conj(), y)


def _rank_one_split(r: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """Factors (R^dagger P, R^dagger (I - P)) of an exact split of a pair
    whose operator R (R_a - R_b) R^dagger is M = herm(alpha beta^dagger),
    with alpha = R (phi u_a - phi u_b), beta = R v and P the projector onto
    the positive eigenvector of M, or 0 where M has none; or, where the
    lowest mantissa bit of Re(beta^dagger alpha) is set, the same for -M,
    swapped: (R^dagger (I - N), R^dagger N), N the projector onto the
    negative eigenvector of M. Both send M's kernel, which adds nothing
    to the objective either way, wholly to one outcome; the bit, which
    rounding sets for practical purposes at random, decides which.
    Sending the kernel always to outcome b left every outcome but the last
    of rank <= 1 after an update and took 17% more updates over 61
    see-saws on random d = 3 to 5 tables; this split takes 1% fewer than
    splitting by the signs of rounding in an eigensolve.

    With w = alpha - (beta^dagger alpha / |beta|^2) beta, the part of
    alpha orthogonal to beta, and g = Re(beta^dagger alpha), the vector
    p = w + (s / |beta|^2) beta with s = g + sqrt(|w|^2 |beta|^2 + g^2)
    has M p = (s/2) p. M has rank at most 2 and its other nonzero
    eigenvalue is (g - sqrt(...))/2 <= 0; -M negates alpha, w and g.
    Where g < 0, s is taken as |w|^2 |beta|^2 / (sqrt(...) - g), the same
    number without the cancellation. An s within 8 eps |alpha||beta| is
    rounding and P is 0 there: near alpha = -t beta (t > 0), p would be w,
    whose rounding may point anywhere, along beta too, where M is
    negative. Dropping such a P loses at most 4 eps |alpha||beta| of the
    pair's objective."""
    a2 = _dot(alpha, alpha).real[..., None]
    b2 = _dot(beta, beta).real[..., None]
    inverse = np.divide(1.0, b2, out=np.zeros_like(b2), where=b2 > 0)
    c = _dot(beta, alpha)[..., None]
    flip = (c.real.view(np.int64) & 1).astype(bool)
    sign = np.where(flip, -1.0, 1.0)
    w = sign * (alpha - (c * inverse) * beta)
    g, w2 = sign * c.real, _dot(w, w).real[..., None]
    cross = w2 * b2
    root = np.sqrt(cross + g * g)
    s = np.where(g >= 0, g + root, cross / np.where(g >= 0, 1.0, root - g))
    p = w + (s * inverse) * beta
    p2 = w2 + s * s * inverse  # |p|^2, as w is orthogonal to beta
    positive = s > 8 * np.finfo(float).eps * np.sqrt(a2 * b2)
    unit = np.divide(p, p2, out=np.zeros_like(p), where=positive)
    lifted = _dagger(r)
    first = (lifted @ unit[..., None]) * p.conj()[..., None, :]
    other, flip = lifted - first, flip[..., None]
    return np.where(flip, other, first), np.where(flip, first, other)


def _povm_update(rotated: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact coordinate step for every (..., setting) POVM at once, from
    square factors G with E^a = G^a G^a^dagger: (new POVMs, their factors).

    `rotated` holds the (..., m, d, d) Hermitian parts of the phased
    conditioned operators, or, for a rank-one table whose conditioned
    operators are u_a v^dagger and m > 2, the (..., m + 1, d) vectors
    phi u_a and then v that give them as herm(phi u_a v^dagger).

    Two outcomes take the positive-eigenspace projector P of R^1 - R^2,
    which is its own factor, and I - P. More outcomes take one sweep of
    exact two-outcome splits over all outcome pairs, in lexicographic
    order. For a pair (a, b), one QR of the stacked [G_a^dagger; G_b^dagger]
    gives R with Q = E_a + E_b = R^dagger R, so every split of Q is
    E_a = R^dagger X R with 0 <= X <= 1, and the pair subproblem
    Tr(X R (R_a - R_b) R^dagger) is solved by the projector U_+ U_+^dagger
    onto its positive eigenspace: G_a = R^dagger U_+ and G_b = R^dagger U_-,
    the eigenvectors U split by sign (the other columns zeroed). Any square
    factor F = Q^(1/2) V of Q gives the same F P_+(F^dagger D F) F^dagger,
    so this is the maximizer of the root form E_a = Q^(1/2) X Q^(1/2),
    with one QR and one eigensolve per pair in place of two eigensolves
    and a square root. Rank-one operators make the pair operator
    herm(alpha beta^dagger), of rank at most 2, whose positive eigenvector
    has a closed form (_rank_one_split): one QR and no eigensolve per
    pair. They send the pair operator's kernel wholly to a or to b, by a
    bit of the data, where the eigensolve splits it by the signs of
    rounding. Either way both elements are positive semidefinite by
    construction, and the objective never decreases.
    """
    *batch, m, d, _ = factors.shape
    rank_one = rotated.ndim < factors.ndim
    if rank_one:
        phased, v = rotated[..., :-1, :], rotated[..., -1, :]
    elif m == 2:
        proj = _positive_projectors(rotated[..., 0, :, :] - rotated[..., 1, :, :])
        povms = np.stack([proj, np.eye(d) - proj], axis=-3)
        return povms, povms
    factors = factors.copy()
    upper = np.tri(d, dtype=bool).T
    for a in range(m):
        for b in range(a + 1, m):
            # R^dagger R = G_a G_a^dagger + G_b G_b^dagger
            stacked = _dagger(factors[..., (a, b), :, :]).reshape(*batch, 2 * d, d)
            raw, _ = np.linalg.qr(stacked, mode="raw")  # R in its transposed upper triangle
            r = raw.swapaxes(-1, -2)[..., :d, :] * upper  # mode "r" without its np.triu copy
            if rank_one:
                alpha = (r @ (phased[..., a, :] - phased[..., b, :])[..., None])[..., 0]
                beta = (r @ v[..., None])[..., 0]
                factors[..., a, :, :], factors[..., b, :, :] = _rank_one_split(r, alpha, beta)
                continue
            diff = rotated[..., a, :, :] - rotated[..., b, :, :]
            vals, vecs = np.linalg.eigh(hermitian_part(r @ diff @ _dagger(r)))
            lifted = _dagger(r) @ vecs
            positive = (vals > 0)[..., None, :]
            factors[..., a, :, :] = lifted * positive
            factors[..., b, :, :] = lifted * ~positive
    return factors @ _dagger(factors), factors


def _pairing(povms: np.ndarray, conditioned: np.ndarray) -> np.ndarray:
    """sum_xa Tr(E_x^a R_x^a) per restart."""
    return np.einsum("rxaij,rxaji->r", povms, conditioned)


def _rank_one_pairing(povms: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_xa Tr(E_x^a u_xa v^dagger) = sum_xa v^dagger E_x^a u_xa per restart."""
    return np.einsum("ri,rxaij,rxaj->r", right.conj(), povms, left)


def _phases(value: np.ndarray) -> np.ndarray:
    """e^{-i arg v} per restart; 1 where v = 0."""
    return np.where(value == 0, 1.0, np.exp(-1j * np.angle(value)))


def _extrapolated(history: np.ndarray) -> np.ndarray:
    """SQUAREM start state (Varadhan and Roland 2008) from the last three
    kept (k, 3, d, d) states t0, t1, t2: t0 - 2 alpha r + alpha^2 v,
    normalised, with r = t1 - t0, v = t2 - 2 t1 + t0 and
    alpha = min(-|r|/|v|, -1). alpha = -1 where v = 0; it gives t2 back."""
    t0, t1, t2 = history[:, 0], history[:, 1], history[:, 2]
    r, v = t1 - t0, t2 - 2 * t1 + t0
    r_norm, v_norm = np.linalg.norm(r, axis=(1, 2)), np.linalg.norm(v, axis=(1, 2))
    ratio = np.divide(r_norm, v_norm, out=np.ones_like(r_norm), where=v_norm > 0)
    alpha = -np.maximum(ratio, 1.0)[:, None, None]
    start = t0 - 2 * alpha * r + alpha**2 * v
    return start / np.linalg.norm(start, axis=(1, 2), keepdims=True)


def _seesaw_group(
    f: SteeringFunctional, state: np.ndarray, max_iters: int, tol: float, slack: float
) -> tuple[np.ndarray, np.ndarray, list[list[float]], int, np.ndarray, tuple[int, int]]:
    """Run the restarts starting from the (k, d, d) states together until
    each converges or takes max_iters updates: (final values, converged
    flags, traces of kept values, updates taken by all of them, final
    (k, n, m, d, d) POVMs, (extrapolations kept, tried)). Updates 3, 6,
    9, ... start from _extrapolated and are kept only where they do not
    lower the objective; a plain update that falls by more than `slack`
    raises."""
    k, d, _ = state.shape
    n, m = f.n, f.m
    coeffs_t = f.coefficients.transpose(0, 1, 3, 2)  # (n, m, d, d), F^T per cell
    row = None if f.hermitian or m == 2 else _rank_one_row(f)
    if row is not None:
        weights = f.coefficients[:, :, row, :].reshape(n * m, d, 1)  # F_x^a = e_row w_xa^T
    table = f.coefficients.reshape(n * m, d * d)
    eye = np.eye(d, dtype=complex)
    povms = np.broadcast_to(eye / m, (k, n, m, d, d)).copy()
    factors = np.broadcast_to(eye / np.sqrt(m), (k, n, m, d, d)).copy()
    history = np.repeat(state[:, None], 3, axis=1)  # last three kept states, newest last
    measurements = np.empty_like(povms)
    finals = np.zeros(k)
    converged = np.zeros(k, dtype=bool)
    traces: list[list[float]] = [[] for _ in range(k)]
    active = np.arange(k)
    steps = kept = tried = 0
    for step in range(max_iters):
        steps += active.size
        extrapolating = step > 0 and step % 3 == 0
        start = _extrapolated(history) if extrapolating else history[:, -1]
        if row is None:
            # R_x^a = Psi F_x^a^T Psi^dagger, per restart
            conditioned = start[:, None, None] @ coeffs_t @ _dagger(start)[:, None, None]
            phase = _phases(_pairing(povms, conditioned))[:, None, None, None, None]
            new_povms, new_factors = _povm_update(hermitian_part(phase * conditioned), factors)
            phase = _phases(_pairing(new_povms, conditioned))[:, None, None]
        else:
            # R_x^a = u_xa v^dagger with u_xa = Psi w_xa and v = Psi e_row
            left = (start[:, None] @ weights).reshape(-1, n, m, d)
            right = start[:, :, row]
            phase = _phases(_rank_one_pairing(povms, left, right))[:, None, None, None]
            vectors = np.concatenate(
                (phase * left, np.broadcast_to(right[:, None, None], (len(right), n, 1, d))),
                axis=2,
            )
            new_povms, new_factors = _povm_update(vectors, factors)
            phase = _phases(_rank_one_pairing(new_povms, left, right))[:, None, None]
        # sum_xa E_x^a (x) F_x^a as one GEMM: (r, (i, j), xa) @ (xa, (k, l))
        rows = new_povms.transpose(0, 3, 4, 1, 2).reshape(-1, d * d, n * m)
        assembled = (rows @ table).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
        assembled = assembled.reshape(-1, d * d, d * d)
        vals, vecs = np.linalg.eigh(hermitian_part(phase * assembled))
        state = vecs[..., -1].reshape(-1, d, d)
        # eigh fixes no global phase: align it to the last kept state
        overlap = np.einsum("rij,rij->r", state.conj(), history[:, -1])
        state *= np.where(overlap == 0, 1.0, overlap / np.abs(overlap))[:, None, None]
        objective = vals[:, -1]
        previous = finals[active]
        rolled = np.concatenate((history[:, 1:], state[:, None]), axis=1)
        if extrapolating:
            keep = objective >= previous
            kept += int(keep.sum())
            tried += active.size
            # a discarded extrapolation leaves its restart as it was
            lost = ~keep
            rolled[lost], objective[lost] = history[lost], previous[lost]
            new_factors[lost] = factors[lost]
            new_povms[lost] = povms[lost]  # after the factors: one array when m = 2
        else:
            fell = objective < previous - slack
            if step and fell.any():
                r = int(np.argmax(fell))
                raise BoundCheckError(
                    f"see-saw objective fell from {float(previous[r])!r} "
                    f"to {float(objective[r])!r}"
                )
            keep = np.ones(active.size, dtype=bool)
        history, povms, factors = rolled, new_povms, new_factors
        for r, value, new in zip(active.tolist(), objective.tolist(), keep.tolist()):
            if new:
                traces[r].append(value)
        finals[active] = objective
        done = keep & (objective - previous <= tol) & (step > 0)
        converged[active[done]] = True
        measurements[active[done]] = povms[done]
        active, history = active[~done], history[~done]
        povms, factors = povms[~done], factors[~done]
        if not active.size:
            break
    measurements[active] = povms
    return finals, converged, traces, steps, measurements, (kept, tried)


def _require_measurements(povms: np.ndarray, first: int) -> None:
    """Raise BoundCheckError unless every (restart, setting) POVM of the
    (k, n, m, d, d) stack sums to the identity and has no eigenvalue below
    zero, both within TOLERANCES.assemblage; restarts count from `first`."""
    tol = TOLERANCES.assemblage
    defect = np.abs(povms.sum(axis=2) - np.eye(povms.shape[-1])).max(axis=(-2, -1))
    lowest = np.linalg.eigvalsh(hermitian_part(povms)).min(axis=(-2, -1))
    bad = ~((defect <= tol) & (lowest >= -tol))
    if bad.any():
        r, x = (int(i) for i in np.argwhere(bad)[0])
        raise BoundCheckError(
            f"see-saw restart {first + r}, setting {x}: measurement sums to the "
            f"identity within {float(defect[r, x]):.3g} and has lowest "
            f"eigenvalue {float(lowest[r, x]):.3g}, outside {tol:.0e}"
        )


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
    restarts: int = 20,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> SeesawResult:
    """Monotone alternating lower bound on the quantum value.

    Parametrizes an explicit realization - a pure state on two
    d-dimensional systems and one POVM per setting - and alternates exact
    coordinate maximizations: with the state fixed, each setting's
    measurement is rebuilt from its conditioned operators (the
    positive-eigenspace projector for two outcomes; otherwise one sweep of
    pairwise splits on square factors E_x^a = G G^dagger, starting from
    G = I/sqrt(m), each pair one QR and one eigensolve, see _povm_update).
    A table of more than two outcomes whose cells are all zero outside
    one row r has conditioned operators u_xa v^dagger, with u_xa = Psi w_xa
    for the row w_xa of F_x^a and v = Psi e_r; they are never built, each
    pair is split in closed form instead of eigensolved, and the pairings
    read v^dagger E_x^a u_xa. With the measurements fixed, the state moves
    to the top eigenvector of the assembled operator sum_xa E_x^a (x) F_x^a,
    built as one GEMM of the POVMs with the table. Non-Hermitian tables
    are handled through |<F, sigma>| by rotating with the phase of the
    current value, which preserves monotonicity of the modulus. The result is a lower bound on
    the quantum value up to solver tolerance; restarts draw fresh random
    initial states, in restart order from one generator.

    The coordinate ascent converges linearly, so updates 3, 6, 9, ...
    (0-based) start instead from the SQUAREM extrapolation of the last
    three kept states (_extrapolated; each new state's global phase is
    aligned to the last kept one, since eigh fixes none) and run one
    ordinary update from there with the current POVMs. Its state, POVMs
    and objective are kept only if the objective is at least the last
    kept one; otherwise the restart carries on as it was. Kept values
    therefore never fall, and every reported value is that of a kept
    update: a normalised top eigenvector and its POVMs.

    Restarts advance together, in groups whose assembled (group, d*d, d*d)
    stack, 16 d^4 bytes per restart, stays within 8 MiB (at least one
    restart per group), with OpenBLAS held at one thread; every update is
    batched over the group's restarts and settings, and a restart leaves
    the group at its first kept update that gains at most `tol`.
    `max_iters` caps, and `iterations` counts, every update of every
    restart, kept or discarded; `trace` lists the kept values of the first
    restart with the largest final value, which is the result, and
    `extrapolations_kept`/`extrapolations_tried` count extrapolated
    updates over all restarts. A plain update that falls by more than
    TOLERANCES.seesaw_monotone * table_scale(f), a slack that grows with
    the table's scale as its rounding does, raises BoundCheckError; so
    does, once per group, a restart whose final POVM for some setting
    misses sum_a E_x^a = I or E_x^a >= 0 by more than
    TOLERANCES.assemblage.
    """
    d = f.d
    _check_seesaw_parameters(restarts, max_iters, tol, seed)
    _require_bounded_table(f)
    rng = np.random.default_rng(seed)
    group = max(1, _SEESAW_GROUP_BYTES // (16 * d**4))
    slack = TOLERANCES.seesaw_monotone * table_scale(f)
    finals, converged, traces = [], [], []
    iterations = kept = tried = 0
    with blas_threads(1):
        for first in range(0, restarts, group):
            raw = rng.normal(size=(min(group, restarts - first), 2, d * d))
            raw = raw[:, 0] + 1j * raw[:, 1]
            state = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).reshape(-1, d, d)
            values, flags, paths, steps, povms, (k, t) = _seesaw_group(
                f, state, max_iters, tol, slack
            )
            _require_measurements(povms, first)
            finals.append(values)
            converged.append(flags)
            traces += paths
            iterations += steps
            kept += k
            tried += t
    values = np.concatenate(finals)
    best = int(np.argmax(values))
    return SeesawResult(
        value=float(values[best]),
        converged=bool(np.concatenate(converged)[best]),
        iterations=iterations,
        trace=tuple(traces[best]),
        extrapolations_kept=kept,
        extrapolations_tried=tried,
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
    bound and per violation lower bound; an invalid canonical assemblage
    or a value above the PSD envelope raises as in quantum_bound, but a
    missed attainment is a failed certificate, and s_q is then the value
    the valid canonical assemblage attains, a lower bound tagged
    "canonical-lower". The canonical assemblage reuses the structure
    lhs_bound found, so table_structure runs once. Random/custom tables fall
    back to the see-saw lower bound (tagged as such). A table whose LHS
    bound is 0 has no ratio and is rejected. The see-saw parameters
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
        "strategies_solved": lhs.strategies_solved,
    }
    paper = paper_values(f)
    certificates: list[Certificate] = []
    if paper is not None:
        attainment = _canonical_attainment(f, paper, lhs.structure.squares)
        certificates.append(attainment)
        if attainment.satisfied:
            s_q, method = paper.s_q, "analytic"
        else:
            s_q, method = attainment.value, "canonical-lower"
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
        diagnostics["seesaw_extrapolations"] = {
            "kept": seesaw.extrapolations_kept,
            "tried": seesaw.extrapolations_tried,
        }
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
    if strict and report.failed:
        raise BoundCheckError(f"certificates failed: {', '.join(report.failed)}")
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
