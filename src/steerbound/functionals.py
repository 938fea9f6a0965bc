"""Steering functionals, assemblages, and their pairing.

A steering functional is an n x m table of d x d coefficient operators
F_x^a; an assemblage is an n x m table of steered states sigma_x^a with a
setting-independent sum. The pairing <F, sigma> = Tr(sum_xa F_x^a
sigma_x^a) is the number every bound in this toolkit is about.

A functional's `kind` names the structure its table claims; this module
only checks it against KINDS. What the paper proves for each kind, and
the canonical assemblage attaining its quantum value, live in
bounds.paper_values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import CliffordFamily
from .errors import PreconditionError
from .linalg import operator_norm
from .mub import MubFamily
from .tolerances import TOLERANCES

KINDS = ("mub", "clifford", "clifford-dichotomic", "random", "custom")


def _table(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=complex)
    if out.ndim != 4 or out.shape[2] != out.shape[3]:
        raise PreconditionError(
            f"expected a (settings, outcomes, d, d) table, got shape {out.shape}"
        )
    return out


def _hermiticity_defects(table: np.ndarray) -> tuple[float, float]:
    """max |F - F^dagger| over the table's entries, and the same per unit
    of its largest entry modulus, which scaling a table never changes; one
    setting at a time, so the temporaries stay the size of one setting's
    cells. The first is 0 exactly when every finite cell equals its
    adjoint entry for entry (the second may underflow to 0 before it), and
    both are NaN or infinite where an entry is. Entry moduli are taken
    only from the first setting with a defect on, when those of the
    settings before it are taken too, so an exactly Hermitian table pays
    for none."""
    defect = largest = 0.0
    for x, cells in enumerate(table):
        difference = cells.conj()  # minus the conjugate of F - F^dagger: same moduli
        np.subtract(difference, cells.swapaxes(1, 2), out=difference)
        if difference.any():
            defect = np.maximum(defect, np.abs(difference).max())  # NaN stays NaN
        del difference  # before the next setting's is made
        if defect:  # largest is 0 until the first defect
            for seen in table[x if largest else 0 : x + 1]:
                largest = np.maximum(largest, np.abs(seen).max())
    defect = float(defect)
    return defect, defect / float(largest) if defect else 0.0


@dataclass(frozen=True)
class SteeringFunctional:
    """Coefficient table of a linear functional on assemblages.

    coefficients[x, a] is the d x d operator weighting sigma_x^a. The
    hermitian and psd flags are derived from the table, never trusted
    from callers or files: hermitian (within TOLERANCES.hermiticity of its
    largest entry modulus) and exactly_hermitian (F = F^dagger entry for
    entry) from one pass when the table is built, psd on its first read,
    since it costs eigensolves and only the quantum bound's envelope check
    reads it.

    from_table copies the caller's array. The loaders and the builders of
    this package hand over the array they just made, which becomes the
    coefficients without a copy (_adopt). Either way the coefficients are
    read-only.
    """

    kind: str
    coefficients: np.ndarray  # (n, m, d, d)
    hermitian: bool
    exactly_hermitian: bool
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    @property
    def m(self) -> int:
        return self.coefficients.shape[1]

    @property
    def d(self) -> int:
        return self.coefficients.shape[2]

    @cached_property
    def psd(self) -> bool:
        """A Hermitian table none of whose cells has an eigenvalue below
        -TOLERANCES.hermiticity.

        Cells are eigensolved one at a time, stopping at the first that
        fails, so a +- table pays for one cell rather than n * m.
        """
        return self.hermitian and all(
            float(np.linalg.eigvalsh(cell)[0]) >= -TOLERANCES.hermiticity
            for cell in self.coefficients.reshape(-1, self.d, self.d)
        )

    @classmethod
    def from_table(cls, table, kind: str = "custom", seed: int | None = None):
        """The functional of a copy of `table`, so the caller's array stays
        its own."""
        return cls._adopt(np.array(table, dtype=complex, order="C"), kind, seed)

    @classmethod
    def _adopt(cls, table: np.ndarray, kind: str, seed: int | None = None):
        """The functional whose coefficients are `table` itself, made
        read-only: for a complex array that nothing else holds or writes."""
        if kind not in KINDS:
            raise PreconditionError(f"unknown functional kind {kind!r}")
        table = _table(table)
        defect, relative = _hermiticity_defects(table)
        table.setflags(write=False)
        return cls(
            kind=kind,
            coefficients=table,
            hermitian=relative <= TOLERANCES.hermiticity,
            exactly_hermitian=defect == 0.0,
            seed=seed,
        )


@dataclass(frozen=True)
class AssemblageReport:
    min_eigenvalue: float
    no_signaling_deviation: float
    normalization_deviation: float
    tolerance: float

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the properties outside tolerance."""
        checks = (
            ("positivity", self.min_eigenvalue >= -self.tolerance),
            ("no-signalling", self.no_signaling_deviation <= self.tolerance),
            ("normalisation", self.normalization_deviation <= self.tolerance),
        )
        return tuple(name for name, holds in checks if not holds)

    @property
    def passed(self) -> bool:
        return not self.failed

    def require(self) -> None:
        """Raise PreconditionError naming the failed properties, if any."""
        if self.failed:
            raise PreconditionError(f"assemblage fails {', '.join(self.failed)}")


@dataclass(frozen=True)
class Assemblage:
    """Table of steered states sigma_x^a.

    Validity (positivity, a setting-independent reduced state, unit trace)
    is checked by validate() rather than at construction,
    so deliberately broken tables remain constructible in tests.
    """

    members: np.ndarray  # (n, m, d, d)

    @property
    def n(self) -> int:
        return self.members.shape[0]

    @property
    def m(self) -> int:
        return self.members.shape[1]

    @property
    def d(self) -> int:
        return self.members.shape[2]

    def validate(self) -> AssemblageReport:
        """Positivity (the members' smallest eigenvalue), no-signalling and
        normalisation."""
        members = _table(self.members)
        flat = members.reshape(-1, members.shape[2], members.shape[3])
        herm = (flat + flat.conj().transpose(0, 2, 1)) / 2
        min_eigenvalue = float(np.linalg.eigvalsh(herm).min())
        reduced = members.sum(axis=1)
        nosig = max(
            (operator_norm(reduced[x] - reduced[0]) for x in range(members.shape[0])),
            default=0.0,
        )
        norm_dev = abs(float(np.trace(reduced[0]).real) - 1.0)
        return AssemblageReport(
            min_eigenvalue=min_eigenvalue,
            no_signaling_deviation=nosig,
            normalization_deviation=norm_dev,
            tolerance=TOLERANCES.assemblage,
        )


def mub_functional(family: MubFamily) -> SteeringFunctional:
    """Rank-1 projector table F_x^a = |phi_x^a><phi_x^a| (m = d outcomes)."""
    table = np.einsum("xai,xaj->xaij", family.bases, family.bases.conj())
    return SteeringFunctional._adopt(table, kind="mub")


def _signed_table(observables: np.ndarray, scale: float) -> np.ndarray:
    """The two-outcome table F_x^1 = scale A_x, F_x^2 = -F_x^1, filled in
    place: the table is the only array this allocates."""
    count, d, _ = np.shape(observables)
    table = np.empty((count, 2, d, d), dtype=complex)
    np.multiply(observables, scale, out=table[:, 0])
    np.negative(table[:, 0], out=table[:, 1])
    return table


def clifford_functional(family: CliffordFamily) -> SteeringFunctional:
    """Two-outcome table F_x^1 = A_x/2, F_x^2 = -A_x/2: the table of the
    spectral projectors (1 +- A_x)/2, shifted by -1/2."""
    return SteeringFunctional._adopt(_signed_table(family.observables, 0.5), kind="clifford")


def dichotomic_functional(family: CliffordFamily) -> SteeringFunctional:
    """Observable form: the two-outcome table F_x^1 = A_x, F_x^2 = -A_x with
    A_x = P_x^1 - P_x^2. Its steering pairing with an assemblage is
    Tr(sum_x A_x (sigma_x^1 - sigma_x^2)), the dichotomic inequality on the
    difference assemblages."""
    table = _signed_table(family.observables, 1)
    return SteeringFunctional._adopt(table, kind="clifford-dichotomic")


def require_seed(seed: int) -> None:
    """Reject a seed numpy's generators do not accept."""
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")


def random_functional(d: int, seed: int) -> SteeringFunctional:
    """Random sign table in the (d, d, d) scenario.

    F_x^a places the signs eps_{x,a}^k / d in its first row and is zero
    elsewhere, so it is genuinely non-Hermitian. Signs come from numpy's
    PCG64 stream: eps = 2 * default_rng(seed).integers(0, 2, size=(d, d, d)) - 1,
    drawn in C order over (x, a, k). Identical seeds reproduce identical
    tables bit-exactly.
    """
    if d < 2:
        raise PreconditionError(f"dimension must be at least 2, got {d}")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    eps = 2 * rng.integers(0, 2, size=(d, d, d)) - 1
    table = np.zeros((d, d, d, d), dtype=complex)
    table[:, :, 0, :] = eps / d
    return SteeringFunctional._adopt(table, kind="random", seed=seed)


def evaluate(functional: SteeringFunctional, assemblage) -> float | complex:
    """Pairing Tr(sum_xa F_x^a sigma_x^a).

    For Hermitian functionals the imaginary residue must stay below the
    evaluation tolerance and is discarded. For non-Hermitian functionals a
    residue above tolerance is returned as a complex value with a warning,
    since bounds on such functionals go through |<F, sigma>|.
    """
    members = assemblage.members if isinstance(assemblage, Assemblage) else assemblage
    members = _table(members)
    if members.shape != functional.coefficients.shape:
        raise PreconditionError(
            f"shape mismatch: functional {functional.coefficients.shape} "
            f"vs assemblage {members.shape}"
        )
    value = complex(np.einsum("xaij,xaji->", functional.coefficients, members))
    if abs(value.imag) <= TOLERANCES.evaluation_imag:
        return value.real
    if functional.hermitian:
        raise PreconditionError(
            f"imaginary residue {value.imag:.3e} of a Hermitian pairing exceeds "
            f"{TOLERANCES.evaluation_imag:.1e}; the assemblage table is not Hermitian"
        )
    warnings.warn(
        f"pairing has imaginary part {value.imag:.3e}; returning a complex value",
        RuntimeWarning,
        stacklevel=2,
    )
    return value

