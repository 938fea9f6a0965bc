"""The exact classical (local-hidden-state) bound of a steering functional.

The bound is computed exactly by enumerating deterministic strategies:
the LHS set is the convex hull of products of a response table with a
fixed state, the pairing is linear, and a linear functional attains its
maximum over a convex hull at the extreme points - deterministic outcome
assignments on the response side and eigenstates on the state side.
Mixtures over a hidden variable are therefore redundant and never
materialize; per strategy the state optimization collapses to a
top-|eigenvalue| computation (Hermitian tables) or a numerical radius
(general tables; linalg.numerical_radius_bounds, to a relative 2^-40).

lhs_bound is the one entry point. It takes the path that
structure.table_structure finds in the table, never its `kind`: a
closed form for anticommuting +- tables (no strategy evaluated,
all-zeros witness), or the first m^(n-k) strategies in lexicographic
order, those with a_0..a_{k-1} = 0, for a prefix k of 2 (Weyl-covariant
tables), 1 (complement-symmetric tables) or 0; rank-one tables swap the
per-strategy norm for their exact closed-form radius. strategy_norms,
the full enumeration, stays the reference: the top |eigenvalue| of each
strategy operator of a Hermitian table, its numerical radius otherwise,
one call per chunk of operators built as one GEMM of a one-hot selector
with the flattened table. lhs_bound solves, per chunk, only the
strategies whose certified upper bound ((Tr H^4)^(1/4), or the 16
phases that start the numerical radius's search; linalg) reaches the
value of the strategy with the largest bound; if the first chunk's
bounds skip nothing, as on a near miss of the closed form, the other
chunks are solved without bounds. Chunks have fixed, shape-only ends,
the first one decides before any pool worker runs, the `threads`
workers are the only parallelism (OpenBLAS is held at one thread) and
the maximum is the first in lexicographic order, so reports are
identical for any `threads` and any OPENBLAS_NUM_THREADS. The command
line holds OpenBLAS at one thread for its whole command, so load,
table_structure and the certificates run single-threaded too.

Memory is bounded by shape alone: 1 MiB of strategy operators per chunk,
beside the copy of those a pruned chunk still solves, and 256 KiB of
squared or rotated matrices per block of the upper bounds and of the
numerical radius's support values (see linalg). On a two-outcome table
of monomial cells, such as the Pauli tables, one boolean mask of the table
(SteeringFunctional.monomials, taken once, over blocks whose masks stay
within 256 KiB) gives its nonzeros, and the passes over the table - its
entry sum, complement symmetry and the anticommutation proof - read
those O(n m d) numbers and never the d x d cells. On other tables these
passes run over blocks of whole settings whose cells stay within 256 KiB
(linalg._blocks), or one setting where a setting is larger;
table_structure adds a few d x d products and anticommutation pair
gathers within 256 KiB (linalg._pair_blocks). A table whose absolute
entry sum reaches 1e300 is rejected before any of them runs, since its
strategy sums could overflow.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapExceeded, PreconditionError
from .functionals import SteeringFunctional
from .linalg import (
    _blocks,
    blas_threads,
    hermitian_norm_upper_bounds,
    numerical_radius,
    numerical_radius_bounds,
    square_safe,
)
from .structure import TableStructure, complement_symmetric, table_structure
from .tolerances import TOLERANCES

DEFAULT_ENUMERATION_CAP = 10**6
_MAX_TABLE_MASS = 1e300


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
    The sum is taken over the nonzeros of a table of monomial cells
    (f.monomials), else over blocks of whole settings (linalg._blocks), so
    the temporaries stay within 256 KiB, or one setting's where a setting
    is larger; a NaN or an overflow makes the sum fail the comparison.
    The two sums add the same terms in different orders, so they can
    differ in their last bits, which no table within a rounding of
    _MAX_TABLE_MASS needs.
    """
    mass, table = 0.0, f.coefficients
    with np.errstate(over="ignore"):
        if f.monomials is not None:
            values = f.monomials[1]
            mass = np.abs(values.real).sum() + np.abs(values.imag).sum()
        else:
            for part in _blocks(table, f.m):
                mass += np.abs(table[part].real).sum() + np.abs(table[part].imag).sum()
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


def _require_enumerable(f: SteeringFunctional, threads: int) -> None:
    """The checks strategy_norms and lhs_bound share before any work."""
    if threads < 1:
        raise PreconditionError(f"thread count must be positive, got {threads}")
    _require_bounded_table(f)


def _require_cap(count: int, cap: int) -> int:
    if count > cap:
        raise EnumerationCapExceeded(
            f"enumeration needs {count} deterministic strategies, cap is {cap}"
        )
    return count


def _strategy_values(
    f: SteeringFunctional,
    count: int,
    threads: int,
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
    maximum (_pruned_values, bounded by hermitian_norm_upper_bounds or the
    upper end of numerical_radius_bounds at rtol = inf), each to its
    unpruned value, and gives the others -inf; the first chunk runs before
    the pool starts, and the others are pruned only if it skipped one.

    An exactly Hermitian table's strategy sums are bounded as they come
    (hermitian_norm_upper_bounds with `exact`), not rebuilt from their
    lower triangles: the GEMM leaves them Hermitian up to about n eps of
    their terms, far inside the relative 1e-9 TOLERANCES.strategy_pruning,
    and a GEMM that adds both entries' terms in one order, as numpy's does
    at one OpenBLAS thread, leaves them exactly Hermitian, with the rebuilt
    bounds bit for bit."""
    n, m, d = f.n, f.m, f.d
    chunk = _chunk_size(d)
    spans = [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
    cells, scale = f.coefficients, 1.0
    if row is not None:  # scaled so that the radius's squares cannot overflow
        cells, (scale,) = square_safe(cells[None, :, :, row : row + 1])
        cells = cells[0]
    cells = np.ascontiguousarray(cells).reshape(n * m, -1).view(np.float64)
    hermitian, exact = f.hermitian, f.exactly_hermitian
    norms = _top_abs_eigenvalues if hermitian else numerical_radius

    def upper_bounds(ops):
        if hermitian:
            return hermitian_norm_upper_bounds(ops, exact=exact)
        return numerical_radius_bounds(ops, np.inf)[1]

    def values_of(span, prune):
        sums = _chunk_sums(cells, n, m, *span)
        if row is not None:
            return (np.abs(sums[:, row]) + np.linalg.norm(sums, axis=1)) / (2 * scale)
        ops = sums.reshape(-1, d, d)
        return _pruned_values(ops, norms, upper_bounds) if prune else norms(ops)

    with blas_threads(1):
        first, rest = values_of(spans[0], prune), spans[1:]
        prune = prune and bool((first == -np.inf).any())
        if threads > 1 and len(rest) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(values_of, rest, [prune] * len(rest)))
        else:
            parts = [values_of(span, prune) for span in rest]
    return np.concatenate([first, *parts])


def strategy_norms(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> np.ndarray:
    """Norm of sum_x F_x^{a(x)} for every deterministic strategy, in
    lexicographic strategy order.

    The norm is the one the state optimization of |<F, sigma>| produces:
    the top |eigenvalue| for Hermitian tables, the numerical radius (the
    lower end of its phase search, within a relative 2^-40 of the
    certified upper end) otherwise;
    a table whose strategy sums can overflow is rejected first
    (_require_bounded_table). Fixed, shape-only chunks run on `threads`
    pool workers with OpenBLAS held at one thread; a chunk of a
    non-Hermitian table is one numerical_radius call on its stack. For
    complement-symmetric tables only the a_0 = 0 half is computed: the
    complement of strategy i is m^n - 1 - i, so the second half is the
    first one reversed. No other structure is used: this is the full
    enumeration lhs_bound's shortcuts are tested against, and the cap
    applies to all m^n strategies.
    """
    _require_enumerable(f, threads)
    total = _require_cap(f.m**f.n, cap)
    mirrored = complement_symmetric(f)
    values = _strategy_values(f, total // 2 if mirrored else total, threads)
    return np.concatenate([values, values[::-1]]) if mirrored else values


def lhs_bound(
    f: SteeringFunctional,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
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
    maximum; if the first chunk's bounds skip none, the other chunks are
    solved unbounded. strategies_evaluated counts the strategies the
    maximum covers, strategies_solved those whose norm was computed;
    neither depends on `threads`. The cap applies to the strategies the
    path evaluates (none for the closed form); strategy_count is m^n.
    """
    _require_enumerable(f, threads)
    structure = table_structure(f)
    closed = structure.value is not None
    count = _require_cap(0 if closed else f.m ** (f.n - structure.prefix), cap)
    if closed:
        return LhsExactResult(
            value=structure.value,
            witness=(0,) * f.n,
            strategy_count=f.m**f.n,
            structure=structure,
            strategies_evaluated=0,
            strategies_solved=0,
        )
    values = _strategy_values(f, count, threads, structure.row, prune=True)
    best = int(np.argmax(values))
    witness = tuple(int(a) for a in np.unravel_index(best, (f.m,) * f.n))
    return LhsExactResult(
        value=float(values[best]),
        witness=witness,
        strategy_count=f.m**f.n,
        structure=structure,
        strategies_evaluated=values.size,
        strategies_solved=int(np.count_nonzero(values != -np.inf)),
    )
