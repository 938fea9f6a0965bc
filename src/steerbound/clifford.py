"""Pairwise anticommuting Hermitian involutions from Pauli tensor chains.

The chain on m qubits places sigma_x or sigma_y behind a sigma_z prefix,

    A_(2k-1) = sz^(x(k-1)) (x) sx (x) 1^(x(m-k)),
    A_(2k)   = sz^(x(k-1)) (x) sy (x) 1^(x(m-k)),   k = 1..m,

with A_(2m+1) = sz^(x m) as one extra element, so m qubits carry up to
2m+1 observables. Any two distinct elements anticommute and each squares
to the identity, hence (sum_x c_x A_x)^2 = (sum_x c_x^2) 1 for real
coefficients - the identity every norm bound in this toolkit leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import PreconditionError
from .linalg import tensor
from .tolerances import TOLERANCES

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

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


@dataclass(frozen=True)
class AnticommutationReport:
    """Exhaustive max-norm deviation of A_x A_y + A_y A_x - 2 delta_xy 1."""

    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _chain(m: int, count: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    ops = []
    for k in range(1, m + 1):
        for pauli in (SIGMA_X, SIGMA_Y):
            factors = [SIGMA_Z] * (k - 1) + [pauli] + [eye] * (m - k)
            ops.append(reduce(tensor, factors))
    ops.append(reduce(tensor, [SIGMA_Z] * m))
    return np.stack(ops[:count])


def build_clifford_family(n: int, full_dimension: bool = False) -> CliffordFamily:
    """Construct n anticommuting observables.

    The compact default uses the smallest qubit count m with 2m+1 >= n
    (dimension 2^ceil(n/2) or one qubit fewer for odd n); every bound in
    this toolkit depends only on the anticommutation relations, not on the
    ambient dimension. With full_dimension=True the family is placed on n
    qubits instead - the dimension 2^n in which the chain extends to a
    complete operator basis - capped at 4096.
    """
    if n < 1:
        raise PreconditionError(f"observable count must be positive, got {n}")
    m = n if full_dimension else max(1, n // 2)
    dim = 2**m
    if dim > DIMENSION_CAP:
        raise PreconditionError(
            f"requested family needs dimension 2^{m} = {dim}, "
            f"which exceeds the cap of {DIMENSION_CAP}"
        )
    obs = _chain(m, n)
    obs.setflags(write=False)
    return CliffordFamily(qubits=m, observables=obs)


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
            dev = max(dev, float(np.abs(anti).max()))
    return AnticommutationReport(max_deviation=dev, tolerance=TOLERANCES.anticommutation)
