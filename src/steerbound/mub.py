"""Mutually unbiased bases in prime dimension.

For odd prime d the family pairs the computational basis with d
quadratic-phase Fourier bases,

    |phi_x^a>[k] = omega^(a k + x k^2) / sqrt(d),   omega = e^(2 pi i / d),

for x = 1..d. Overlaps between vectors of distinct bases are quadratic
Gauss sums of modulus sqrt(d), which is exactly the unbiasedness
condition, so up to d+1 pairwise unbiased bases come out of the one
formula. Dimension 2 needs its own triple (the quadratic exponent
requires a half-integer convention in characteristic 2) and uses the
three Pauli eigenbases instead. Composite dimensions are rejected: the
quadratic construction needs field arithmetic that only a prime modulus
provides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .tolerances import TOLERANCES


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class MubFamily:
    """A set of pairwise mutually unbiased orthonormal bases.

    bases[x, a] is vector a of basis x. Vectors are canonicalized so their
    first nonzero component is real and positive, which makes serialized
    families byte-comparable.
    """

    bases: np.ndarray  # (count, dimension, dimension)

    @property
    def dimension(self) -> int:
        return self.bases.shape[1]

    @property
    def count(self) -> int:
        return self.bases.shape[0]

    def projector(self, x: int, a: int) -> np.ndarray:
        v = self.bases[x, a]
        return np.outer(v, v.conj())


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


def canonicalize_phases(bases: np.ndarray) -> np.ndarray:
    """Rotate each vector's global phase so its first entry of modulus
    above 1e-12 is real-positive."""
    out = np.array(bases, dtype=complex)
    flat = out.reshape(-1, out.shape[-1])
    for v in flat:
        idx = np.flatnonzero(np.abs(v) > 1e-12)
        if idx.size:
            lead = v[idx[0]]
            v *= lead.conjugate() / abs(lead)
    return out


def build_mub_family(d: int, n: int) -> MubFamily:
    """Construct n mutually unbiased bases of C^d for prime d, 2 <= n <= d+1.

    Basis 0 is the computational basis; basis x in {1..d} follows the
    quadratic-phase formula (Pauli eigenbases for d = 2).
    """
    if not is_prime(d):
        raise PreconditionError(
            f"dimension {d} is composite: the construction requires a prime dimension"
        )
    if not 2 <= n <= d + 1:
        raise PreconditionError(f"basis count {n} outside the valid range [2, {d + 1}]")
    if d == 2:
        z = np.eye(2, dtype=complex)
        x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        y = np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2)
        stack = np.stack([z, x, y])[:n]
    else:
        omega = np.exp(2j * np.pi / d)
        k = np.arange(d)
        bases = [np.eye(d, dtype=complex)]
        for x in range(1, n):
            exponents = (np.arange(d)[:, None] * k[None, :] + x * k[None, :] ** 2) % d
            bases.append(omega**exponents / np.sqrt(d))
        stack = np.stack(bases)
    stack = canonicalize_phases(stack)
    stack.setflags(write=False)
    return MubFamily(bases=stack)


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
        orth = max(orth, float(np.abs(gram - eye).max()))
        for y in range(x + 1, n):
            cross = bases[x].conj() @ bases[y].T
            unb = max(unb, float(np.abs(np.abs(cross) - target).max()))
    return UnbiasednessReport(
        orthonormality_deviation=orth, unbiasedness_deviation=unb, tolerance=TOLERANCES.unbiasedness
    )
