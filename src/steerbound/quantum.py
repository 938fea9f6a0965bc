"""The analytic quantum value of a table, and the certificate that a
table attains the one its kind claims.

paper_values, the one reader of `kind`, holds what the paper proves for
the kind a table claims, including the scale and shift of the canonical
assemblage (scale F_x^a + shift I)/d that attains its quantum value.
analytic_quantum_value, the one S_Q rule of quantum_bound and
bounds.violation, checks that claim by pairing the table with that
assemblage through sums over the table (_canonical_check), without
building it, or else sums the c_x of proven +- squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundCheckError, PreconditionError
from .functionals import Assemblage, AssemblageReport, SteeringFunctional
from .linalg import _blocks, hermitian_part
from .structure import proven_squares
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class Certificate:
    """One named check of a computed value against a proven bound."""

    name: str
    satisfied: bool
    value: float
    bound: float


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
) -> tuple[AssemblageReport, complex, np.ndarray | None]:
    """Validity of the canonical assemblage sigma_x^a = (scale F_x^a +
    shift I)/d, its pairing with the table, and, without `squares`, the
    (n, m, d) eigenvalues of the cells' Hermitian parts, from sums over
    the table instead of the members, so no table-sized array is built:

    - value: (scale sum_xa Tr(F_x^a F_x^a) + shift sum_xa Tr F_x^a)/d, a
      pairing of the table that never reads `squares`, so an attained
      value still cross-checks the structure proof;
    - no-signalling: sum_a sigma_x^a = (scale R_x + m shift I)/d with
      R_x = sum_a F_x^a, which deviates from setting 0 by
      scale ||R_x - R_0|| / d;
    - normalisation: Tr sum_a sigma_0^a = (scale Tr R_0 + m d shift)/d;
    - positivity: `squares` are the c_x^2 of a table proven to hold cells
      +-B_x with B_x exactly Hermitian and B_x^2 = c_x^2 I, anticommuting
      or not (structure.TableStructure.squares). Each member then has the
      spectrum (shift +- scale c_x)/d, so the smallest eigenvalue is
      (shift - scale max_x c_x)/d and no cell is eigensolved. Every R_x
      is then exactly 0, so the deviation is 0.0 and Tr R_0 is 0, and no
      outcome sum or norm is taken.

    Without `squares`, the cells' Hermitian parts are eigensolved and the
    R_x - R_0 normed in batches, over blocks of whole settings whose cells
    stay within 256 KiB (linalg._blocks), each matrix as on its own. The
    two traces of the value are read from f.monomials where the table has
    that form (_monomial_traces), else taken by einsum over the table.
    """
    table, m, d = f.coefficients, f.m, f.d
    scale, shift = paper.scale, paper.shift
    eigs, trace_r0, nosig = None, 0.0, 0.0
    if squares:
        lowest = (shift - scale * float(np.sqrt(max(squares)))) / d
    else:
        eigs = np.empty(table.shape[:3])
        deviations = np.zeros(f.n)
        first = table[0].sum(axis=0)
        for part in _blocks(table, m):
            cells = table[part]
            eigs[part] = np.linalg.eigvalsh(hermitian_part(cells))
            moved = scale * (cells.sum(axis=1) - first) / d
            deviations[part] = np.linalg.norm(moved, 2, axis=(1, 2))
        lowest = float(((scale * eigs + shift) / d).min())
        trace_r0 = float(np.trace(first).real)
        nosig = float(deviations[1:].max(initial=0.0))
    trace = (scale * trace_r0 + m * d * shift) / d
    report = AssemblageReport(
        min_eigenvalue=lowest,
        no_signaling_deviation=nosig,
        normalization_deviation=abs(trace - 1.0),
        tolerance=TOLERANCES.assemblage,
    )
    if f.monomials is None:
        pairing, trace = np.einsum("xaij,xaji->", table, table), np.einsum("xaii->", table)
    else:
        pairing, trace = _monomial_traces(*f.monomials)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed pairing stays inf or NaN
        value = (scale * pairing + shift * trace) / d
    return report, complex(value), eigs


def _monomial_traces(columns: np.ndarray, values: np.ndarray) -> tuple[complex, complex]:
    """sum_xa Tr(F_x^a F_x^a) and sum_xa Tr F_x^a of monomial cells, row i
    of cell (x, a) holding values[x, a, i] at column columns[x, a, i]: F_ij
    F_ji is v_i v_j where j = c_i and c_j = i, and v_i times an exact zero
    otherwise (NaN where v_i is not finite, as in the dense pairing). The
    terms are the dense sums' nonzero ones, so where they add without
    rounding, as on the Pauli tables, the sums are the einsum's bit for
    bit; elsewhere they may differ in the last bits."""
    rows = np.arange(columns.shape[-1])
    back = np.take_along_axis(columns, columns, axis=-1) == rows
    partners = np.where(back, np.take_along_axis(values, columns, axis=-1), 0)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as the einsum is
        pairing = (values * partners).sum()
    return pairing, np.where(columns == rows, values, 0).sum()


def _psd_envelope(f: SteeringFunctional, eigs: np.ndarray) -> float | None:
    """sum_x max_a max |eigenvalue| of the cells, from their (n, m, d)
    eigenvalues, when the table is positive semidefinite: Hermitian, and
    no eigenvalue below -TOLERANCES.hermiticity per unit of the table's
    largest entry modulus, the unit `hermitian` takes, so scaling a table
    never changes the decision; else None. Entry moduli are taken over
    blocks of whole settings (linalg._blocks)."""
    if not f.hermitian:
        return None
    table = f.coefficients
    largest = max((np.abs(table[part]).max() for part in _blocks(table, f.m)), default=0.0)
    if not eigs.min(initial=0.0) >= -TOLERANCES.hermiticity * float(largest):
        return None
    return float(np.abs(eigs).max(axis=(1, 2), initial=0.0).sum())


def canonical_quantum_assemblage(f: SteeringFunctional) -> Assemblage:
    """The assemblage (scale F_x^a + shift I)/d that paper_values gives the
    table's kind; random and custom tables have none (PreconditionError).
    A table without its kind's structure gives an invalid assemblage:
    PreconditionError names the failed properties, as _canonical_check
    finds them given structure.proven_squares."""
    paper = paper_values(f)
    if paper is None:
        raise PreconditionError(f"no canonical quantum assemblage for kind {f.kind!r}")
    _canonical_check(f, paper, proven_squares(f))[0].require()
    members = f.coefficients * paper.scale  # in place after this: one table-sized array
    members += paper.shift * np.eye(f.d, dtype=complex)
    members /= f.d
    return Assemblage(members=members)


def analytic_quantum_value(
    f: SteeringFunctional, paper: PaperValues | None, squares: tuple[float, ...]
) -> tuple[float, str, Certificate | None] | None:
    """(s_q, method, certificate) where S_Q is analytic, else None.
    With paper values, whether the kind's canonical assemblage attains
    paper.s_q (_canonical_check): "analytic" if so, else the attained
    value, a lower bound, "canonical-lower" (an imaginary part of the
    pairing misses s_q by it). An invalid assemblage (a kind the table
    lacks) raises BoundCheckError, as does, for a positive-semidefinite
    table, an s_q above the envelope sum_x max_a ||F_x^a|| (_psd_envelope).
    A table with `squares` is not probed: its cells B and -B are both
    positive semidefinite only when B = 0, which fails attainment anyway.
    Else proven +- squares B_x^2 = c_x^2 I (structure.proven_squares)
    give sum_x c_x, "analytic", with no certificate: sigma_x^+- = (I +-
    B_x/c_x)/(2d) attains it, and sum_a Tr sigma_x^a = 1 caps each c_x."""
    if paper is None:
        if not squares:
            return None
        s_q = 0.0
        for c2 in squares:  # in setting order, whatever sum() would do
            s_q += math.sqrt(c2)
        return s_q, "analytic", None
    report, attained, eigs = _canonical_check(f, paper, squares)
    try:
        report.require()
    except PreconditionError as exc:
        raise BoundCheckError(
            f"kind {f.kind!r} does not fit the table: its canonical {exc}"
        ) from None
    envelope = None if eigs is None else _psd_envelope(f, eigs)
    if envelope is not None and paper.s_q > envelope + TOLERANCES.bound_slack:
        raise BoundCheckError(f"quantum bound {paper.s_q} exceeds the PSD envelope {envelope}")
    satisfied = abs(attained - paper.s_q) <= TOLERANCES.bound_slack
    certificate = Certificate("canonical_attainment", satisfied, attained.real, paper.s_q)
    if satisfied:
        return paper.s_q, "analytic", certificate
    return attained.real, "canonical-lower", certificate


def quantum_bound(f: SteeringFunctional) -> float:
    """The analytic quantum value (analytic_quantum_value, given
    structure.proven_squares). Attainment gives the lower half; the upper
    half follows from sum_a Tr(sigma_x^a) = 1 per setting (unbiased bases:
    Tr(F sigma) <= ||F|| Tr(sigma) termwise; +- cells: |Tr(B_x delta_x)|
    <= c_x ||delta_x||_1 <= c_x, delta_x = sigma_x^1 - sigma_x^2). Each
    failed check raises BoundCheckError; other tables PreconditionError.
    """
    paper = paper_values(f)
    found = analytic_quantum_value(f, paper, proven_squares(f))
    if found is None:
        raise PreconditionError(
            f"no analytic quantum bound for kind {f.kind!r}; use quantum_bound_seesaw"
        )
    if found[1] == "canonical-lower":
        raise BoundCheckError(f"canonical assemblage attains {found[0]!r}, expected {paper.s_q!r}")
    return found[0]
