"""Structure of a steering functional's table, read from the table alone.

table_structure inspects a SteeringFunctional once and says which path
the LHS bound can take; it never reads `kind`, so a file labelled `mub`
or `clifford-dichotomic` that lacks the structure gets no shortcut.
Whatever the path, it keeps the c_x^2 of a +- table (squares): two
outcomes with F_x^2 = -F_x^1, B_x = F_x^1 Hermitian and B_x^2 = c_x^2 I,
c_x^2 a normal float, all exactly; proven_squares reads them alone. They
give the canonical assemblage's positivity in closed form and S_Q =
sum_x c_x (quantum). Monomial cells (one nonzero per row and column, as
in Pauli strings; f.monomials, one boolean mask of the table taken once)
are read as (column, value) arrays by this check and complement_symmetric,
never as d x d cells: Hermiticity and squares in O(n d), pair products by
O(d) gathers over the pairs (x, y < x) in blocks within 256 KiB, O(n^2 d)
after an O(n d^2) mask; other tables read the table's Hermiticity pass
and take dense d x d products, O(n^2 d^3). The cases, in order tried:

- anticommuting: +- squares with B_x B_y + B_y B_x = 0 (x != y) exactly,
  checked up to the first pair that fails. Then (sum_x s_x B_x)^2 =
  (sum_x c_x^2) I for every sign string, so every strategy has the norm
  sqrt(sum_x c_x^2), a closed form.
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
from .linalg import _blocks, _pair_blocks, blas_threads, square_safe
from .tolerances import TOLERANCES

_Proof = tuple[tuple[float, ...], bool]  # c_x^2 per setting, whether every pair anticommutes

@dataclass(frozen=True)
class TableStructure:
    """What the LHS bound may exploit in one table."""

    method: str  # "anticommuting" | "rank-one" | "weyl-orbit" | "complement-half" | "enumeration"
    prefix: int = 0  # leading settings whose outcome is fixed to 0
    value: float | None = None  # closed-form LHS bound (anticommuting)
    row: int | None = None  # the one nonzero row of every cell (rank-one)
    squares: tuple[float, ...] = ()  # c_x^2 per setting of a +- table with proven squares


def complement_symmetric(f: SteeringFunctional) -> bool:
    """Two outcomes with F_x^2 = -F_x^1 exactly: a strategy and its
    complement then sum to negated operators of equal value. Read from
    f.monomials when every cell is monomial (same columns, negated values;
    the zeros, +0.0 or -0.0, compare equal as in the table), else checked
    over blocks of whole settings (linalg._blocks), so the temporaries are
    one block's cells; a NaN anywhere fails it, as in the whole-table
    comparison."""
    if f.m != 2:
        return False
    if f.monomials is not None:
        columns, values = f.monomials
        return np.array_equal(columns[:, 1], columns[:, 0]) and np.array_equal(
            values[:, 1], -values[:, 0]
        )
    table = f.coefficients
    for part in _blocks(table, 2):
        if not np.array_equal(table[part, 1], -table[part, 0]):
            return False
    return True


def _monomial_hermitian(columns: np.ndarray, values: np.ndarray) -> bool:
    """Whether every monomial B_x, row i holding values[x, i] at column
    columns[x, i], equals B_x^dagger entry for entry. B_x^dagger holds
    conj(v_x[j]) in row c_x(j) at column j, so the two are equal exactly
    when c_x is an involution with v_x[c_x] = conj(v_x): the entry-wise
    comparison's decision, in O(n d)."""
    x = np.arange(columns.shape[0])[:, None]
    if not (columns[x, columns] == np.arange(columns.shape[1])).all():
        return False
    return bool((values[x, columns] == values.conj()).all())


def _normal(c2):
    """tiny <= c_x^2 < inf: an overflowed or underflowed square proves nothing."""
    return (c2 >= np.finfo(float).tiny) & (c2 < np.inf)


def _monomial_squares(columns: np.ndarray, values: np.ndarray) -> _Proof | None:
    """_dense_squares for Hermitian monomial B_x (_monomial_hermitian), row
    i holding values[x, i] at column columns[x, i], from O(d) gathers: c_x
    is an involution with v_x[c_x] = conj(v_x), so B_x^2 is the diagonal
    v_x * v_x[c_x]. P = B_x B_y holds p = v_x * v_y[c_x] in row i at
    column pi(i), pi = c_y[c_x], and P^dagger holds conj(p[pi]) there
    exactly where pi(pi(i)) = i, elsewhere apart from P's entries. A dense
    product's entries are these plus exact zeros, so the decisions are the
    dense check's. The pairs (x, y < x) come in blocks of settings x whose
    eight (pairs, d) gathers stay within 256 KiB (linalg._pair_blocks)."""
    n, d = columns.shape
    with np.errstate(over="ignore", invalid="ignore"):
        squares = values * values[np.arange(n)[:, None], columns]
        c2 = squares[:, :1]
        if (c2.imag != 0).any() or not (squares == c2).all() or not _normal(c2.real).all():
            return None
        proven = tuple(c2[:, 0].real)
        rows = np.arange(d)
        for x0, x1 in _pair_blocks(n, d):
            counts = np.arange(x0, x1)  # setting x pairs with the x settings before it
            xs = np.repeat(counts, counts)
            ys = (np.arange(xs.size) - np.repeat(np.cumsum(counts) - counts, counts))[:, None]
            cx, pair = columns[xs], np.arange(xs.size)[:, None]
            pi = columns[ys, cx]
            p = values[xs] * values[ys, cx]
            if np.where(pi[pair, pi] == rows, p + p[pair, pi].conj(), p).any():
                return proven, False
    return proven, True


def _dense_squares(ops: np.ndarray) -> _Proof | None:
    """(c_x^2 per setting, whether every pair anticommutes exactly) of
    Hermitian B_x with B_x^2 = c_x^2 I exactly, c_x^2 _normal, else None;
    pair by pair up to the first that fails, O(d^2) memory per pair."""
    eye = np.eye(ops.shape[-1])
    squares = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b in ops:
            square = b @ b
            c2 = square[0, 0]
            if c2.imag != 0 or not _normal(c2.real) or not np.array_equal(square, c2 * eye):
                return None
            squares.append(c2.real)
        for x, b in enumerate(ops):
            for y in range(x):
                p = b @ ops[y]  # B_y B_x = (B_x B_y)^dagger for Hermitian B
                if (p + p.conj().T).any():
                    return tuple(squares), False
    return tuple(squares), True


def _squares_proof(f: SteeringFunctional, symmetric: bool) -> _Proof | None:
    """_Proof of a +- table with exact squares, else None, `symmetric`
    being complement_symmetric(f).
    Monomial cells (f.monomials) are proven exactly Hermitian from their
    nonzeros (_monomial_hermitian) and take _monomial_squares, so the
    table's Hermiticity pass never runs; other tables read
    f.exactly_hermitian and take dense products at one OpenBLAS thread,
    so the exact checks cannot depend on the caller's thread count."""
    if not symmetric:
        return None
    if f.monomials is not None:
        columns, values = (part[:, 0] for part in f.monomials)
        if not _monomial_hermitian(columns, values):
            return None
        return _monomial_squares(columns, values)
    if not f.exactly_hermitian:
        return None
    with blas_threads(1):
        return _dense_squares(f.coefficients[:, 0])


def proven_squares(f: SteeringFunctional) -> tuple[float, ...]:
    """c_x^2 per setting of a +- table with proven squares, anticommuting
    or not (TableStructure.squares), else ()."""
    return (_squares_proof(f, complement_symmetric(f)) or ((), False))[0]


def _rank_one_row(f: SteeringFunctional) -> int | None:
    """The one row outside which every cell is zero, or None; over blocks
    of whole settings (linalg._blocks)."""
    live = np.zeros(f.d, dtype=bool)
    for part in _blocks(f.coefficients, f.m):
        live |= f.coefficients[part].any(axis=(0, 1, 3))
    rows = np.flatnonzero(live)
    return int(rows[0]) if rows.size == 1 else None


def table_scale(f: SteeringFunctional) -> float:
    """sum_x max_a ||F_x^a||_F, with no floor, so a scaled table decides as
    the table does: a bound on every strategy operator's norm, and the
    unit of scale-relative tolerances. Taken over blocks of whole settings
    whose cells stay within 256 KiB (linalg._blocks), each setting scaled
    so that no square overflows (square_safe)."""
    table, peaks = f.coefficients, np.empty(f.n)
    for part in _blocks(table, f.m):
        cells, scales = square_safe(table[part])
        peaks[part] = np.linalg.norm(cells, axis=(2, 3)).max(axis=1) / scales
    return float(np.sum(peaks))


def _outcome_permutation(f: SteeringFunctional, conjugate) -> tuple[np.ndarray, float] | None:
    """(n, m) map a -> b, F_x^b the cell nearest conjugate(F_x^a) in
    Frobenius norm, and the residue sum_x max_a of those distances; None
    unless the map is a bijection per setting. The (n m, m) distances are
    taken over blocks of cells (x, a), each against its setting's cells,
    each setting scaled so that no square overflows (square_safe); a
    block's temporaries, 3 m + 2 d x d matrices per cell, stay within 256
    KiB (linalg._blocks), or are one cell's where that is larger."""
    n, m, d = f.n, f.m, f.d
    cells = f.coefficients.reshape(n * m, d, d)
    perm, steps = np.empty(n * m, dtype=int), np.empty(n * m)
    for part in _blocks(cells, 3 * m + 2):
        index = np.arange(n * m)[part]
        rows = np.arange(index.size)
        # each cell's setting, then its differences from the conjugated cell
        settings, scales = square_safe(f.coefficients[index // m])
        settings -= conjugate(settings[rows, index % m])[:, None]
        dist = np.linalg.norm(settings, axis=(2, 3))
        del settings  # before the next block's is gathered
        perm[part] = dist.argmin(axis=1)
        steps[part] = dist[rows, perm[part]] / scales
    perm = perm.reshape(n, m)
    if not (np.sort(perm, axis=1) == np.arange(m)).all():
        return None
    return perm, float(np.cumsum(steps.reshape(n, m).max(axis=1))[-1])  # in setting order


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
    for conjugate in (lambda c: np.roll(c, 1, axis=(-2, -1)), lambda c: clock * c):
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
    symmetric = complement_symmetric(f)
    squares, anticommuting = _squares_proof(f, symmetric) or ((), False)
    if anticommuting:
        total = 0.0
        for c2 in squares:  # in setting order, whatever sum() would do
            total += c2
        return TableStructure("anticommuting", value=float(np.sqrt(total)), squares=squares)
    row = None if f.hermitian else _rank_one_row(f)
    prefix = 2 if _weyl_transitive(f) else int(symmetric)
    if row is not None:
        return TableStructure("rank-one", prefix=prefix, row=row)
    method = ("enumeration", "complement-half", "weyl-orbit")[prefix]
    return TableStructure(method, prefix=prefix, squares=squares)
