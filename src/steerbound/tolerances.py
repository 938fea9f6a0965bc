"""Numerical tolerances for every validation layer, kept in one record."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerances shared across the toolkit, absolute unless an entry says
    per unit of something.

    hermiticity: two uses, both per unit of a coefficient table's largest
        entry modulus. In SteeringFunctional.hermitian: the largest
        max-norm defect F - F^dagger that still counts as Hermitian. In
        quantum._psd_envelope: the slack below zero on the eigenvalues of
        the cells of a table that counts as positive semidefinite.
    anticommutation: slack on anticommutator identities.
    unbiasedness: slack on basis orthonormality and cross-basis overlaps.
    assemblage: slack on positivity, no-signaling and normalization of
        steered-state tables (looser than construction tolerances to absorb
        accumulated rounding in derived tables).
    evaluation_imag: largest imaginary residue discarded when pairing a
        Hermitian functional with an assemblage.
    gram_psd: slack on positive semidefiniteness of Gram matrices.
    gram_identity: slack on the frame-operator / Gram-matrix norm match.
    bound_slack: slack when asserting computed values against proven
        analytic bounds.
    seesaw_monotone: per-step decrease tolerated before the alternating
        optimizer is considered non-monotone, per unit of the table's
        scale (structure.table_scale), at every scale, below 1 too.
    outcome_symmetry: largest change of the LHS bound, per unit of the
        table's scale, that the Weyl-orbit reduction may carry: orbit depth
        times the norm change one shift or clock step makes to a strategy
        operator.
    strategy_pruning: relative margin by which a strategy's certified upper
        bound must fall below the best value its chunk computed before the
        LHS enumeration skips the strategy's eigensolve (no later chunk is
        bounded if the first skips none); far above the rounding of either
        the bound or the eigensolve (about d * 2.2e-16).
    """

    hermiticity: float = 1e-10
    anticommutation: float = 1e-12
    unbiasedness: float = 1e-10
    assemblage: float = 1e-9
    evaluation_imag: float = 1e-9
    gram_psd: float = 1e-9
    gram_identity: float = 1e-8
    bound_slack: float = 1e-9
    seesaw_monotone: float = 1e-12
    outcome_symmetry: float = 1e-12
    strategy_pruning: float = 1e-9


TOLERANCES = Tolerances()
