"""Pairwise anticommuting Hermitian involutions from Pauli tensor chains.

The chain on m qubits is the Jordan-Wigner one (Jordan and Wigner,
Z. Phys. 47, 631, 1928): sigma_x or sigma_y behind a sigma_z prefix,

    A_(2k-1) = sz^(x(k-1)) (x) sx (x) 1^(x(m-k)),
    A_(2k)   = sz^(x(k-1)) (x) sy (x) 1^(x(m-k)),   k = 1..m,

with A_(2m+1) = sz^(x m) as one extra element, so m qubits carry up to
2m+1 observables. Any two distinct elements anticommute and each squares
to the identity, hence (sum_x c_x A_x)^2 = (sum_x c_x^2) 1 for real
coefficients - the identity every norm bound in this toolkit leans on.

Each string has one nonzero per column, so the chain is built by index
arithmetic rather than Kronecker products, with qubit k the k-th most
significant bit of a basis index j: sx and sy on qubit k send column j to
row j XOR bit_k, the sz prefix multiplies by (-1)^(number of set bits of
j above bit_k), and sy adds i (-1)^(bit_k of j). The entries are those of
the Kronecker definition exactly (numpy.kron), up to the sign of
zeros, and only the requested observables are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import require_table_size

DIMENSION_CAP = 4096


@dataclass(frozen=True)
class CliffordFamily:
    """n Hermitian observables on `qubits` qubits, pairwise anticommuting
    and squaring to the identity."""

    qubits: int
    observables: np.ndarray  # (count, 2**qubits, 2**qubits)

    @property
    def count(self) -> int:
        return self.observables.shape[0]

    @property
    def dimension(self) -> int:
        return self.observables.shape[1]


def _chain(m: int, count: int) -> np.ndarray:
    """The first `count` observables of the m-qubit chain, in chain order."""
    d = 2**m
    columns = np.arange(d)
    ops = np.zeros((count, d, d), dtype=complex)
    parity = np.zeros(d, dtype=int)  # of the bits of j above qubit k
    for x in range(count):
        k, is_y = divmod(x, 2)
        signs = 1 - 2 * parity
        if k == m:  # A_(2m+1) = sz^(x m)
            ops[x, columns, columns] = signs
            continue
        shift = m - 1 - k
        bit = (columns >> shift) & 1
        rows = columns ^ (1 << shift)
        if is_y:
            ops[x, rows, columns] = 1j * signs * (1 - 2 * bit)
            parity ^= bit
        else:
            ops[x, rows, columns] = signs
    return ops


def clifford_qubits(n: int, full_dimension: bool = False) -> int:
    """The qubit count of build_clifford_family(n, full_dimension), after
    the checks it makes before building: n >= 1, a dimension within
    DIMENSION_CAP and a two-outcome table within linalg.TABLE_BYTES_CAP;
    PreconditionError otherwise."""
    if n < 1:
        raise PreconditionError(f"observable count must be positive, got {n}")
    m = n if full_dimension else max(1, n // 2)
    dim = 2**m
    if dim > DIMENSION_CAP:
        raise PreconditionError(
            f"requested family needs dimension 2^{m} = {dim}, "
            f"which exceeds the cap of {DIMENSION_CAP}"
        )
    require_table_size(n, 2, dim)
    return m


def build_clifford_family(n: int, full_dimension: bool = False) -> CliffordFamily:
    """Construct n anticommuting observables.

    The compact default uses the smallest qubit count m with 2m+1 >= n
    (dimension 2^ceil(n/2) or one qubit fewer for odd n); every bound in
    this toolkit depends only on the anticommutation relations, not on the
    ambient dimension. With full_dimension=True the family is placed on n
    qubits instead - the dimension 2^n in which the chain extends to a
    complete operator basis - capped at 4096. A family whose two-outcome
    table would exceed linalg.TABLE_BYTES_CAP is refused before the family,
    half that table's size, is built (clifford_qubits).
    """
    m = clifford_qubits(n, full_dimension)
    obs = _chain(m, n)
    obs.setflags(write=False)
    return CliffordFamily(qubits=m, observables=obs)
