"""Structure of a steering functional's table, read from the table alone.

table_structure inspects a SteeringFunctional once and says which path
the LHS bound can take; it never reads `kind`, so a file labelled `mub`
or `clifford-dichotomic` that lacks the structure gets no shortcut. The
cases, in the order they are tried:

- anticommuting: two outcomes with F_x^2 = -F_x^1, and B_x = F_x^1
  Hermitian with B_x B_y + B_y B_x = 0 (x != y) and B_x^2 = c_x^2 I, all
  exactly. Then (sum_x s_x B_x)^2 = (sum_x c_x^2) I for every sign string,
  so every strategy has the norm sqrt(sum_x c_x^2), a closed form. When
  every B_x is monomial (one nonzero per row and per column, as Pauli
  strings are), it is kept as (column, value) arrays; its exact
  Hermiticity is read from them in O(n d), and the products are O(d)
  gathers, each B_x against all earlier B_y at once, so the check costs
  O(n d^2) to read the table and O(n^2 d) to decide in O(n d) memory;
  other tables read the table's Hermiticity pass and take dense d x d
  products pair by pair, O(n^2 d^3).
  The c_x^2 are kept, since they also give the canonical assemblage's
  positivity in closed form (bounds._canonical_check).
- rank-one: a non-Hermitian table whose cells are all zero outside one
  common row r, exactly. Strategy operators are then e_r w^T, whose
  numerical radius is exactly (|w_r| + |w|)/2.
- weyl-orbit: conjugating every cell by the shift X and by the clock Z
  of dimension d maps it onto its nearest cell of the same setting (in
  Frobenius norm), a bijection per setting, and the outcome permutations
  so found act transitively on (a_0, a_1). A strategy and its image are
  unitarily similar up to the matching residue, which moves a strategy
  operator's norm by at most sum_x max_a ||U F_x^a U^dagger - F_x^b||_F
  per step; every strategy is at most `depth` steps (the breadth-first
  depth of the orbit of (0, 0)) from one with a_0 = a_1 = 0. The case
  holds only when depth times the larger per-step residue is within
  TOLERANCES.outcome_symmetry * table_scale(f), so the largest value of
  the strategies with a_0 = a_1 = 0 is the largest of all to within that.
- complement-half: two outcomes with F_x^2 = -F_x^1 exactly; a strategy
  and its complement have negated operators of equal value, so the
  strategies with a_0 = 0 suffice.
- enumeration: none of the above.

A rank-one table keeps the complement halving when it has it. The
strategies with a_0..a_{k-1} = 0 are the first m^(n-k) in lexicographic
order, so a prefix reduction enumerates exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import SteeringFunctional
from .linalg import blas_threads, square_safe
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class TableStructure:
    """What the LHS bound may exploit in one table."""

    method: str  # "anticommuting" | "rank-one" | "weyl-orbit" | "complement-half" | "enumeration"
    prefix: int = 0  # leading settings whose outcome is fixed to 0
    value: float | None = None  # closed-form LHS bound (anticommuting)
    row: int | None = None  # the one nonzero row of every cell (rank-one)
    squares: tuple[float, ...] = ()  # c_x^2 per setting (anticommuting)


def complement_symmetric(f: SteeringFunctional) -> bool:
    """Two outcomes with F_x^2 = -F_x^1 exactly: a strategy and its
    complement then sum to negated operators of equal value. Checked one
    setting at a time, so the temporaries are one cell's."""
    return f.m == 2 and all(np.array_equal(cells[1], -cells[0]) for cells in f.coefficients)


def _monomial(b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(columns, values) of the one nonzero in each row of `b`, when it has
    exactly one; else None. The nonzeros are found through a boolean mask,
    which is faster than np.nonzero on the complex entries."""
    flat = b.ravel()
    index = np.flatnonzero(flat != 0)
    rows, columns = np.divmod(index, b.shape[0])
    if not np.array_equal(rows, np.arange(b.shape[0])):
        return None
    return columns, flat[index]


def _monomial_hermitian(columns: np.ndarray, values: np.ndarray) -> bool:
    """Whether every monomial B_x, row i holding values[x, i] at column
    columns[x, i], equals B_x^dagger entry for entry. B_x^dagger holds
    conj(v_x[j]) in row c_x(j) at column j, so the two are equal exactly
    when c_x is an involution with v_x[c_x] = conj(v_x): the entry-wise
    comparison's decision, in O(n d)."""
    rows = np.arange(columns.shape[1])
    if not (np.take_along_axis(columns, columns, axis=1) == rows).all():
        return False
    return bool((np.take_along_axis(values, columns, axis=1) == values.conj()).all())


def _monomial_squares(columns: np.ndarray, values: np.ndarray) -> tuple[float, ...] | None:
    """_dense_squares for Hermitian monomial B_x (_monomial_hermitian), row
    i holding values[x, i] at column columns[x, i], from O(d) gathers: c_x
    is an involution with v_x[c_x] = conj(v_x), so B_x^2 is the diagonal
    v_x * v_x[c_x]. P = B_x B_y holds p = v_x * v_y[c_x] in row i at
    column pi(i), pi = c_y[c_x], and P^dagger holds conj(p[pi]) there
    exactly where pi(pi(i)) = i. Every entry of a dense product is one such
    product plus exact zeros, so the decision is the dense check's. Each
    B_x is checked against all B_y, y < x, at once, so the extra memory is
    at most the (n, d) input's and the first failing x ends the check."""
    squares = values * np.take_along_axis(values, columns, axis=1)
    c2 = squares[:, :1]
    if (c2.imag != 0).any() or not (squares == c2).all():
        return None
    rows = np.arange(columns.shape[1])
    for x in range(1, columns.shape[0]):
        cx = columns[x]
        pi, p = columns[:x, cx], values[x] * values[:x, cx]
        paired = np.take_along_axis(pi, pi, axis=1) == rows
        if np.where(paired, p + np.take_along_axis(p, pi, axis=1).conj(), p).any():
            return None
    return tuple(c2[:, 0].real)


def _dense_squares(ops: np.ndarray) -> tuple[float, ...] | None:
    """c_x^2 per setting when the Hermitian B_x satisfy B_x^2 = c_x^2 I and
    B_x B_y + B_y B_x = 0 exactly, else None; checked pair by pair, with
    O(d^2) memory per pair."""
    eye = np.eye(ops.shape[-1])
    squares: list[float] = []
    for x, b in enumerate(ops):
        square = b @ b
        c2 = square[0, 0]
        if c2.imag != 0 or not np.array_equal(square, c2 * eye):
            return None
        squares.append(c2.real)
        for y in range(x):
            # B_y B_x = (B_x B_y)^dagger for Hermitian B
            p = b @ ops[y]
            if (p + p.conj().T).any():
                return None
    return tuple(squares)


def anticommuting_squares(f: SteeringFunctional) -> tuple[float, ...] | None:
    """c_x^2 per setting when the table is an anticommuting +- table (the
    first case of the module docstring), else None. Monomial cells are
    proven exactly Hermitian from their nonzeros (_monomial_hermitian) and
    take _monomial_squares, so the table's Hermiticity pass never runs;
    any other table reads f.exactly_hermitian and takes dense products at
    one OpenBLAS thread, so the exact checks cannot depend on the caller's
    thread count."""
    if not complement_symmetric(f):
        return None
    ops = f.coefficients[:, 0]
    cells = [_monomial(b) for b in ops]
    if all(cell is not None for cell in cells):
        columns, values = (np.stack(part) for part in zip(*cells))
        if not _monomial_hermitian(columns, values):
            return None
        return _monomial_squares(columns, values)
    if not f.exactly_hermitian:
        return None
    with blas_threads(1):
        return _dense_squares(ops)


def _rank_one_row(f: SteeringFunctional) -> int | None:
    rows = np.flatnonzero(np.any(f.coefficients != 0, axis=(0, 1, 3)))
    return int(rows[0]) if rows.size == 1 else None


def table_scale(f: SteeringFunctional) -> float:
    """max(1, sum_x max_a ||F_x^a||_F): a bound on every strategy
    operator's norm, and the unit of scale-relative tolerances. Taken one
    setting at a time, scaled so that no square overflows (square_safe)."""
    peaks = [np.linalg.norm(c, axis=(1, 2)).max() / s for c, s in map(square_safe, f.coefficients)]
    return max(1.0, float(np.sum(peaks)))


def _outcome_permutation(f: SteeringFunctional, conjugate) -> tuple[np.ndarray, float] | None:
    """(n, m) map a -> b, F_x^b the cell nearest conjugate(F_x^a) in
    Frobenius norm, and the residue sum_x max_a of those distances; None
    unless the map is a bijection per setting. Each setting's distances
    are taken between its cells scaled so that no square overflows
    (square_safe)."""
    perm = np.empty((f.n, f.m), dtype=int)
    residue = 0.0
    for x, cells in enumerate(f.coefficients):
        cells, scale = square_safe(cells)
        dist = np.array([np.linalg.norm(cells - conjugate(cell), axis=(1, 2)) for cell in cells])
        perm[x] = dist.argmin(axis=1)
        if len(set(perm[x].tolist())) != f.m:
            return None
        residue += dist[np.arange(f.m), perm[x]].max() / scale
    return perm, float(residue)


def _weyl_transitive(f: SteeringFunctional) -> bool:
    """Shift and clock conjugation permute each setting's outcomes, the
    permutations act transitively on (a_0, a_1), and the orbit depth times
    the per-step residue stays within outcome_symmetry * table_scale."""
    n, m, d = f.n, f.m, f.d
    if n < 2:
        return False
    k = np.arange(d)
    clock = np.exp(2j * np.pi * (np.subtract.outer(k, k) % d) / d)  # omega^(i-j)
    perms, residue = [], 0.0
    for conjugate in (lambda c: np.roll(c, 1, axis=(0, 1)), lambda c: clock * c):
        found = _outcome_permutation(f, conjugate)
        if found is None:
            return False
        perm, step = found
        perms.append((perm[0].tolist(), perm[1].tolist()))
        residue = max(residue, step)
    seen, level, depth = {(0, 0)}, {(0, 0)}, 0
    while True:
        level = {(p0[a], p1[b]) for a, b in level for p0, p1 in perms} - seen
        if not level:
            break
        seen |= level
        depth += 1
    return len(seen) == m * m and depth * residue <= TOLERANCES.outcome_symmetry * table_scale(f)


def table_structure(f: SteeringFunctional) -> TableStructure:
    """The first case of the module docstring that the table satisfies."""
    squares = anticommuting_squares(f)
    if squares is not None:
        total = 0.0
        for c2 in squares:  # in setting order, whatever sum() would do
            total += c2
        return TableStructure("anticommuting", value=float(np.sqrt(total)), squares=squares)
    row = None if f.hermitian else _rank_one_row(f)
    prefix = 2 if _weyl_transitive(f) else int(complement_symmetric(f))
    if row is not None:
        return TableStructure("rank-one", prefix=prefix, row=row)
    method = ("enumeration", "complement-half", "weyl-orbit")[prefix]
    return TableStructure(method, prefix=prefix)
