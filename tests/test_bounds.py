import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from steerbound import (
    TOLERANCES,
    Assemblage,
    BoundCheckError,
    EnumerationCapExceeded,
    MubFamily,
    PaperValues,
    PreconditionError,
    SteeringFunctional,
    build_clifford_family,
    build_mub_family,
    canonical_quantum_assemblage,
    clifford_functional,
    dichotomic_functional,
    evaluate,
    lhs_bound,
    mub_functional,
    numerical_radius,
    paper_values,
    quantum_bound,
    quantum_bound_seesaw,
    random_functional,
    strategy_norms,
    violation,
)
import steerbound.bounds as bounds_module
import steerbound.functionals as functionals_module
import steerbound.lhs as lhs_module
import steerbound.linalg as linalg_module
import steerbound.quantum as quantum_module
import steerbound.seesaw as seesaw_module
import steerbound.structure as structure_module
from steerbound.linalg import blas_threads, operator_norm
from steerbound.structure import table_scale
from steerbound.verify import (
    fine_grained_bound,
    fine_grained_xi,
    gram_matrix,
    gram_norm_identity_check,
)

LHS_23 = (3 + np.sqrt(3)) / 2


def random_hermitian_functional(rng, n, m, d):
    raw = rng.normal(size=(n, m, d, d)) + 1j * rng.normal(size=(n, m, d, d))
    table = raw + raw.conj().transpose(0, 1, 3, 2)
    return SteeringFunctional.from_table(table, kind="custom")


# ---------------------------------------------------------------------------
# exact LHS bound


def test_lhs_exact_mub_qubit_value():
    # each of the 8 strategies sums three pairwise unbiased projectors,
    # (3 1 + v.sigma)/2 with |v| = sqrt(3), so every norm is (3+sqrt(3))/2
    functional = mub_functional(build_mub_family(2, 3))
    result = lhs_bound(functional)
    assert result.strategy_count == 8
    assert result.value == pytest.approx(LHS_23, abs=1e-9)
    norms = strategy_norms(functional)
    assert np.allclose(norms, LHS_23, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_lhs_exact_clifford_all_strategies_tie(n):
    functional = clifford_functional(build_clifford_family(n))
    norms = strategy_norms(functional)
    assert norms.shape == (2**n,)
    assert np.abs(norms - np.sqrt(n) / 2).max() <= 1e-10
    result = lhs_bound(functional)
    # the closed form sqrt(sum_x c_x^2) with the all-zeros witness; the
    # enumerated maximum may sit elsewhere, where rounding makes it larger
    assert result.method == "anticommuting"
    assert result.witness == (0,) * n
    assert result.value == np.sqrt(n) / 2
    witness_op = sum(functional.coefficients[x, a] for x, a in enumerate(result.witness))
    assert abs(np.abs(np.linalg.eigvalsh(witness_op)).max() - norms.max()) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_lhs_exact_dichotomic(n):
    functional = dichotomic_functional(build_clifford_family(n))
    result = lhs_bound(functional)
    assert result.value == pytest.approx(np.sqrt(n), abs=1e-9)


def test_lhs_exact_witness_is_maximizer():
    rng = np.random.default_rng(41)
    functional = random_hermitian_functional(rng, 3, 2, 3)
    result = lhs_bound(functional)
    chosen = sum(functional.coefficients[x, result.witness[x]] for x in range(3))
    assert np.abs(np.linalg.eigvalsh(chosen)).max() == pytest.approx(result.value, abs=1e-12)


def test_lhs_exact_threads_identical():
    functional = mub_functional(build_mub_family(3, 4))
    single = lhs_bound(functional, threads=1)
    multi = lhs_bound(functional, threads=8)
    assert single == multi


def test_lhs_exact_cap():
    # the Weyl orbit leaves 3^2 of the 81 strategies
    functional = mub_functional(build_mub_family(3, 4))
    with pytest.raises(EnumerationCapExceeded, match="9"):
        lhs_bound(functional, cap=8)


# lhs_bound's (value, witness) on three random complex custom tables of
# shape (n, m, d), drawn in this order from default_rng(5), when the
# numerical radius took a 720-angle grid and a golden-section refinement
GRID_RADIUS_VALUES = {
    (4, 3, 4): (9.818429345016074, (0, 0, 0, 1)),
    (5, 2, 6): (12.035075912458623, (0, 1, 0, 1, 0)),
    (3, 4, 8): (11.577463985516626, (3, 1, 1)),
}


def test_witness_radius_interval_holds_the_grid_value():
    rng = np.random.default_rng(5)
    for (n, m, d), (value, witness) in GRID_RADIUS_VALUES.items():
        table = rng.normal(size=(n, m, d, d)) + 1j * rng.normal(size=(n, m, d, d))
        result = lhs_bound(SteeringFunctional.from_table(table))
        assert result.witness == witness
        assert (result.strategies_solved, result.strategies_evaluated) == (1, m**n)
        operator = sum(table[x, a] for x, a in enumerate(witness))
        (lower,), (upper,) = linalg_module.numerical_radius_bounds(operator[None], 2.0**-40)
        assert lower <= value <= upper
        assert upper - lower <= 2.0**-40 * upper
        assert result.value == pytest.approx(lower, rel=1e-14, abs=0)


def test_lhs_exact_redirects_non_hermitian():
    # non-Hermitian tables take the numerical-radius norm; the values are
    # pinned from the radius enumeration of these tables
    expected = (1.4013878188659974, 1.4013878188659974, 1.290569415042095)
    for seed, value in enumerate(expected):
        functional = random_functional(4, seed)
        assert not functional.hermitian
        assert lhs_bound(functional).value == value


def test_lhs_general_agrees_on_hermitian():
    # on a Hermitian table the numerical radius of every strategy operator
    # gives the same maximum as the top |eigenvalue| lhs_bound uses
    functional = mub_functional(build_mub_family(2, 3))
    radii = [
        numerical_radius(sum(functional.coefficients[x, a] for x, a in enumerate(strategy)))
        for strategy in itertools.product(range(2), repeat=3)
    ]
    assert lhs_bound(functional).value == pytest.approx(max(radii), abs=1e-7)


def test_lhs_general_zero_functional():
    functional = SteeringFunctional.from_table(np.zeros((2, 2, 2, 2)), kind="custom")
    assert lhs_bound(functional).value == 0.0


def test_lhs_general_matches_rank_one_oracle_for_all_sign_tables():
    # d = 2: every strategy operator is e_0 u^T, whose radius is
    # (|u_0| + |u|)/2; brute-force all 2^8 sign assignments
    d = 2
    for bits in range(2 ** (d * d * d)):
        eps = np.array([1 if bits >> k & 1 else -1 for k in range(d * d * d)])
        eps = eps.reshape(d, d, d)
        table = np.zeros((d, d, d, d), dtype=complex)
        table[:, :, 0, :] = eps / d
        functional = SteeringFunctional.from_table(table, kind="custom")
        expected = 0.0
        for strategy in itertools.product(range(d), repeat=d):
            u = sum(eps[x, strategy[x]] for x in range(d)) / d
            expected = max(expected, (abs(u[0]) + np.linalg.norm(u)) / 2)
        got = lhs_bound(functional).value
        assert got == pytest.approx(expected, abs=1e-7)


def full_enumeration_norms(functional):
    """Reference: every strategy operator gathered by index and summed."""
    n, m = functional.n, functional.m
    strategies = np.array(list(itertools.product(range(m), repeat=n)))
    ops = functional.coefficients[np.arange(n)[None, :], strategies].sum(axis=1)
    return np.abs(np.linalg.eigvalsh(ops)).max(axis=1)


def plus_minus_functional(rng, n, d, kind="custom"):
    raw = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    herm = raw + raw.conj().transpose(0, 2, 1)
    return SteeringFunctional.from_table(np.stack([herm, -herm], axis=1), kind=kind)


def complement_symmetric_cases():
    rng = np.random.default_rng(2024)
    for n in range(1, 11):
        family = build_clifford_family(n)
        yield f"clifford-{n}", clifford_functional(family)
        yield f"dichotomic-{n}", dichotomic_functional(family)
    for n, d in ((1, 3), (3, 2), (4, 5), (6, 4)):
        yield f"plus-minus-{n}-{d}", plus_minus_functional(rng, n, d)


def test_complement_halving_matches_full_enumeration(eigvalsh_matrices):
    for name, functional in complement_symmetric_cases():
        reference = full_enumeration_norms(functional)
        eigvalsh_matrices.clear()
        norms = strategy_norms(functional)
        assert sum(eigvalsh_matrices) == 2 ** (functional.n - 1), name
        assert norms.shape == reference.shape, name
        assert np.abs(norms - reference).max() <= 1e-12, name
        # strategy i and its complement 2^n - 1 - i share one computed value
        assert np.array_equal(norms, norms[::-1]), name
        result = lhs_bound(functional)
        assert result.strategy_count == 2**functional.n, name
        assert abs(result.value - reference.max()) <= 1e-12, name
        assert result.witness[0] == 0, name
        witness_index = int(np.ravel_multi_index(result.witness, (2,) * functional.n))
        assert abs(reference[witness_index] - reference.max()) <= 1e-12, name


def test_two_outcome_table_without_symmetry_enumerates_fully(eigvalsh_matrices):
    rng = np.random.default_rng(77)
    asymmetric = random_hermitian_functional(rng, 5, 2, 3)
    # one bit away from F_x^2 = -F_x^1, under a kind that usually has it
    table = plus_minus_functional(rng, 5, 3).coefficients.copy()
    table[2, 1, 0, 0] = np.nextafter(table[2, 1, 0, 0].real, np.inf)
    near = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    for functional in (asymmetric, near):
        reference = full_enumeration_norms(functional)
        eigvalsh_matrices.clear()
        norms = strategy_norms(functional)
        assert sum(eigvalsh_matrices) == 2**5
        assert np.abs(norms - reference).max() <= 1e-12
        result = lhs_bound(functional)
        assert abs(result.value - reference.max()) <= 1e-12
        assert result.witness == tuple(
            int(a) for a in np.unravel_index(int(np.argmax(norms)), (2,) * 5)
        )


def off_anticommuting(functional, kind="clifford-dichotomic"):
    """A copy with the first nonzero entry of B_0 given an imaginary part
    of one ulp of its modulus (and its Hermitian mirror), F_0^2 = -F_0^1
    kept: B_0^2 stays exactly c^2 I, but B_0 no longer anticommutes
    exactly, so the closed form does not apply."""
    table = functional.coefficients.copy()
    i, j = 0, int(np.flatnonzero(table[0, 0, 0])[0])
    table[0, 0, i, j] += 1j * np.spacing(abs(table[0, 0, i, j]))
    table[0, 0, j, i] = np.conj(table[0, 0, i, j])
    table[0, 1] = -table[0, 0]
    return SteeringFunctional.from_table(table, kind=kind)


def test_lhs_exact_independent_of_ambient_blas_threads(eigvalsh_matrices):
    # d = 256 eigensolves differ in the last bits between one and two
    # OpenBLAS threads; the enumeration pins BLAS, so the caller's count
    # cannot reach the result. The full-dim table itself takes the closed
    # form, so a copy one ulp off it keeps lhs_bound on the enumeration.
    functional = off_anticommuting(
        clifford_functional(build_clifford_family(8, full_dimension=True))
    )
    results = []
    for count in (1, 2):
        eigvalsh_matrices.clear()
        with blas_threads(count):
            results.append(lhs_bound(functional))
        assert sum(eigvalsh_matrices) == 2**7
    assert results[0] == results[1]
    assert results[0].method == "complement-half"
    assert results[0].value == pytest.approx(np.sqrt(2), abs=1e-12)


def test_enumeration_identical_for_any_threads():
    # dichotomic n = 12 and random d = 4 take closed forms in lhs_bound (and
    # so in the CLI thread-determinism tests); their full enumerations, and
    # lhs_bound on copies off their structure, still run through the pool
    dichotomic = dichotomic_functional(build_clifford_family(12))
    table = random_functional(4, 1).coefficients.copy()
    table[0, 0, 1, 0] = 1e-3
    radius = SteeringFunctional.from_table(table, kind="random")
    for functional in (dichotomic, random_functional(4, 1)):
        assert np.array_equal(strategy_norms(functional), strategy_norms(functional, threads=8))
    for functional, method in (
        (off_anticommuting(dichotomic_functional(build_clifford_family(10))), "complement-half"),
        (radius, "enumeration"),
    ):
        single = lhs_bound(functional)
        assert single.method == method
        assert lhs_bound(functional, threads=8) == single


# ---------------------------------------------------------------------------
# structure shortcuts of lhs_bound


def shortcut_cases():
    """(id, functional, expected method, expected strategies evaluated)."""
    for n in range(1, 13):
        family = build_clifford_family(n)
        yield f"clifford-{n}", clifford_functional(family), "anticommuting", 0
        yield f"dichotomic-{n}", dichotomic_functional(family), "anticommuting", 0
    for n in range(1, 9):
        family = build_clifford_family(n, full_dimension=True)
        yield f"clifford-{n}-full", clifford_functional(family), "anticommuting", 0
        yield f"dichotomic-{n}-full", dichotomic_functional(family), "anticommuting", 0
    for d in (2, 3, 5, 7):
        for n in range(2, d + 2):
            if d**n <= 10**6:
                functional = mub_functional(build_mub_family(d, n))
                yield f"mub-{d}-{n}", functional, "weyl-orbit", d ** (n - 2)
    for d in (2, 3, 4):
        for seed in range(3):
            yield f"random-{d}-{seed}", random_functional(d, seed), "rank-one", d**d
    # rank-one and complement-symmetric: the halving still applies
    rng = np.random.default_rng(5)
    table = np.zeros((4, 2, 3, 3), dtype=complex)
    table[:, 0, 1] = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    table[:, 1] = -table[:, 0]
    yield "rank-one-plus-minus", SteeringFunctional.from_table(table), "rank-one", 2**3


@pytest.mark.parametrize("name, functional, method, evaluated", list(shortcut_cases()))
def test_lhs_shortcut_matches_full_enumeration(name, functional, method, evaluated):
    norms = strategy_norms(functional)
    result = lhs_bound(functional)
    assert result.method == method
    assert result.strategies_evaluated == evaluated
    assert result.strategy_count == functional.m**functional.n
    assert abs(result.value - norms.max()) <= 1e-12
    witness = int(np.ravel_multi_index(result.witness, (functional.m,) * functional.n))
    assert abs(norms[witness] - norms.max()) <= 1e-12
    assert lhs_bound(functional, threads=8) == result


def edge_tables():
    """(id, table) with NaN, +-inf, -0.0 and absolute sums at and past the
    mass limit and the float range, in +- and other tables."""
    plus_minus = dichotomic_functional(build_clifford_family(3)).coefficients.copy()
    zeros = np.zeros((3, 2, 2, 2), dtype=complex)

    def put(table, *entries):
        table = table.copy()
        for index, value in entries:
            table[index] = value
        return table

    yield "plus-minus", plus_minus
    yield "signed zeros", put(zeros, ((0, 1), -0.0), ((2, 0, 1, 0), complex(0.0, -0.0)))
    yield "-0.0 against 0.0", put(plus_minus, ((1, 0, 0, 0), 0.0), ((1, 1, 0, 0), -0.0))
    yield "NaN", put(plus_minus, ((2, 0, 1, 1), np.nan))
    yield "NaN in both outcomes", put(plus_minus, ((2, 0, 1, 1), np.nan), ((2, 1, 1, 1), np.nan))
    yield "imaginary NaN", put(zeros, ((1, 1, 0, 1), complex(0.0, np.nan)))
    yield "+inf and -inf", put(zeros, ((0, 0, 0, 0), np.inf), ((0, 1, 0, 0), -np.inf))
    yield "+inf twice", put(zeros, ((0, 0, 0, 0), np.inf), ((0, 1, 0, 0), np.inf))
    yield "imaginary -inf", put(zeros, ((2, 1, 1, 0), complex(0.0, -np.inf)))
    yield "mass just under the limit", put(zeros, ((0, 0, 0, 0), 2.0**996))
    yield "mass over the limit", put(zeros, ((0, 0, 0, 0), 2.0**996), ((2, 1, 1, 1), 2.0**996j))
    yield "mass overflows", np.full((3, 2, 2, 2), 1e308 + 1e308j)
    yield "three outcomes", np.zeros((2, 3, 2, 2), dtype=complex)


@pytest.mark.parametrize("name, table", list(edge_tables()))
def test_per_setting_checks_decide_as_the_whole_table_ones(name, table):
    """_require_bounded_table and complement_symmetric take blocks of whole
    settings; they decide as the whole-table formulas they replace."""
    functional = SteeringFunctional.from_table(table)
    c = functional.coefficients
    with np.errstate(over="ignore"):
        mass = np.abs(c.real).sum() + np.abs(c.imag).sum()
    bounded = bool(mass < lhs_module._MAX_TABLE_MASS)
    try:
        lhs_module._require_bounded_table(functional)
    except PreconditionError:
        assert not bounded, name
    else:
        assert bounded, name
    symmetric = c.shape[1] == 2 and bool(np.array_equal(c[:, 1], -c[:, 0]))
    assert structure_module.complement_symmetric(functional) is symmetric, name


def monomial_form_tables():
    """(id, table) around a monomial +- table, dichotomic n = 4 (d = 4,
    32 nonzeros of modulus 1): NaN and +-inf at a monomial slot and at a
    zero slot, -0.0 entries, a stray nonzero, a moved nonzero and a
    one-ulp change in outcome 2, entry masses within 32 ulps of the limit
    on either side (sums of equal terms, exact in any order), and a dense
    +- table."""
    base = dichotomic_functional(build_clifford_family(4)).coefficients.copy()
    x, i = 2, 1
    j = int(np.flatnonzero(base[x, 0, i])[0])  # the monomial slot of row i
    k = (j + 1) % base.shape[-1]  # a zero slot of row i

    def put(*entries):
        table = base.copy()
        for index, value in entries:
            table[index] = value
        return table

    yield "plus-minus", base
    for name, value in (("NaN", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
        yield f"{name} at a monomial slot", put(((x, 0, i, j), value))
        yield f"{name} at both outcomes' monomial slot", put(
            ((x, 0, i, j), value), ((x, 1, i, j), -value)
        )
        yield f"{name} at a zero slot", put(((x, 0, i, k), value))
    yield "imaginary inf at a monomial slot", put(((x, 0, i, j), complex(0.0, np.inf)))
    yield "-0.0 entries", put(
        ((x, 0, i, k), -0.0), ((x, 1, i, k), complex(-0.0, -0.0)), ((0, 1, 0, k), 0.0)
    )
    yield "a stray nonzero in outcome 2", put(((x, 1, i, k), 1e-300))
    yield "outcome 2's nonzero in another column", put(
        ((x, 1, i, k), base[x, 1, i, j]), ((x, 1, i, j), 0.0)
    )
    re, im = base[x, 1, i, j].real, base[x, 1, i, j].imag
    off = complex(np.nextafter(re, 2.0), im) if re else complex(re, np.nextafter(im, 2.0))
    yield "outcome 2 one ulp off", put(((x, 1, i, j), off))
    fraction, exponent = math.frexp(lhs_module._MAX_TABLE_MASS)
    steps = int(fraction * 2.0**53) // 32  # the limit is 32 * steps ulps, rounded down
    for name, count in (("mass just under the limit", steps), ("mass just over it", steps + 1)):
        yield name, base * math.ldexp(count, exponent - 53)  # 32 entries of modulus count ulps
    yield "dense plus-minus", plus_minus_functional(np.random.default_rng(8), 4, 4).coefficients


@pytest.mark.parametrize("name, table", list(monomial_form_tables()))
def test_monomial_form_checks_decide_as_the_dense_passes(name, table):
    """The mass check, complement symmetry, the squares proof and the
    canonical certificate read the table's monomial form where it has
    one, and decide as the dense passes on the same table. The certificate
    runs, as in violation, only on tables the mass check admits: the
    others hold a non-finite entry or are too large, and their cells
    cannot be eigensolved."""
    functional = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    dense = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    dense.__dict__["monomials"] = None  # the cached form: none, so the dense passes run
    dense_only = ("zero slot" in name, "stray" in name, name == "dense plus-minus")
    assert (functional.monomials is None) == any(dense_only)
    paper = paper_values(functional)
    decisions = []
    for f in (functional, dense):
        try:
            lhs_module._require_bounded_table(f)
            bounded = True
        except PreconditionError:
            bounded = False
        symmetric = structure_module.complement_symmetric(f)
        proof = structure_module._squares_proof(f, symmetric)
        decisions.append([bounded, symmetric, proof])
        if bounded:
            squares = proof[0] if proof else None
            report, value, _ = quantum_module._canonical_check(f, paper, squares)
            attained = bool(abs(value - paper.s_q) <= TOLERANCES.bound_slack)
            decisions[-1] += [report.failed, attained]
    assert decisions[0] == decisions[1]
    if "mass" in name:
        c = functional.coefficients
        mass = np.abs(c.real).sum() + np.abs(c.imag).sum()
        assert mass == 32 * abs(table).max()  # no rounding, in the dense order either
        assert decisions[0][0] == (mass < lhs_module._MAX_TABLE_MASS) == ("under" in name)
    assert decisions[0][0] or not np.isfinite(table).all() or "over" in name


def monomial_permutation_table():
    """Two-outcome monomial cells of d = 6 whose column maps are random
    permutations (some rows fixed, some in cycles longer than two) and
    whose values are small Gaussian integers, so every sum is exact."""
    rng = np.random.default_rng(12)
    table = np.zeros((3, 2, 6, 6), dtype=complex)
    for x, a in itertools.product(range(3), range(2)):
        columns = rng.permutation(6)
        values = rng.integers(1, 4, 6) * rng.choice([1, -1, 1j, -1j], 6)
        table[x, a, np.arange(6), columns] = values
    return table


@pytest.mark.parametrize(
    "functional",
    [
        mub_functional(build_mub_family(3, 4)),
        dichotomic_functional(build_clifford_family(6)),
        clifford_functional(build_clifford_family(5)),
        clifford_functional(build_clifford_family(7, full_dimension=True)),
        dichotomic_functional(build_clifford_family(4, full_dimension=True)),
        SteeringFunctional.from_table(monomial_permutation_table(), kind="clifford"),
    ],
    ids=[
        "mub-3-4",
        "dichotomic-6",
        "clifford-5",
        "clifford-7-full",
        "dichotomic-4-full",
        "permutations",
    ],
)
def test_canonical_pairing_is_the_einsum_bit_for_bit(functional):
    """The canonical certificate's attained value, read from the monomial
    form on the +- tables and on monomial cells whose column maps are not
    involutions, is the dense einsum pairing's, compared with ==."""
    assert (functional.monomials is None) == (functional.kind == "mub")
    paper = paper_values(functional)
    squares = structure_module.proven_squares(functional)
    _, value, _ = quantum_module._canonical_check(functional, paper, squares)
    c = functional.coefficients
    trace = np.einsum("xaii->", c)
    expected = (paper.scale * np.einsum("xaij,xaji->", c, c) + paper.shift * trace) / functional.d
    assert value == complex(expected)


def setting_square_safe(cells):
    """(s * cells, s) of one setting, s one power of two for all its cells
    after which no square overflows, as linalg.square_safe once took it."""
    _, e = np.frexp(np.abs(cells).max(initial=0.0))
    if e <= 400:
        return cells, 1.0
    scale = float(np.ldexp(1.0, -int(e)))
    return cells * scale, scale


def whole_table_checks(functional):
    """complement_symmetric, _require_bounded_table, _hermiticity_defects,
    table_scale and _rank_one_row by the formulas their blocked passes
    replace: all but table_scale over the whole table, table_scale one
    setting at a time, each scaled on its own (setting_square_safe)."""
    c = functional.coefficients
    mass = np.abs(c.real).sum() + np.abs(c.imag).sum()
    rows = np.flatnonzero(np.any(c != 0, axis=(0, 1, 3)))
    defect = float(np.abs(c - c.conj().swapaxes(-1, -2)).max())
    ratio = defect / float(np.abs(c).max()) if defect else 0.0
    peaks = [np.linalg.norm(s, axis=(1, 2)).max() / k for s, k in map(setting_square_safe, c)]
    return (
        c.shape[1] == 2 and bool(np.array_equal(c[:, 1], -c[:, 0])),
        bool(mass < lhs_module._MAX_TABLE_MASS),
        (defect, ratio),
        float(np.sum(peaks)),
        int(rows[0]) if rows.size == 1 else None,
    )


def blocked_checks(functional):
    try:
        lhs_module._require_bounded_table(functional)
        bounded = True
    except PreconditionError:
        bounded = False
    return (
        structure_module.complement_symmetric(functional),
        bounded,
        functionals_module._hermiticity_defects(functional.coefficients),
        table_scale(functional),
        structure_module._rank_one_row(functional),
    )


def per_cell_outcome_permutation(functional, conjugate):
    """_outcome_permutation as it was, one cell against its setting at a
    time."""
    perm = np.empty((functional.n, functional.m), dtype=int)
    residue = 0.0
    for x, cells in enumerate(functional.coefficients):
        cells, scale = setting_square_safe(cells)
        dist = np.array([np.linalg.norm(cells - conjugate(cell), axis=(1, 2)) for cell in cells])
        perm[x] = dist.argmin(axis=1)
        if len(set(perm[x].tolist())) != functional.m:
            return None
        residue += dist[np.arange(functional.m), perm[x]].max() / scale
    return perm, float(residue)


def block_tables():
    """(id, functional) of every table kind, and tables whose settings
    differ in scale by up to 1e255."""
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
    mub34 = mub_functional(build_mub_family(3, 4))
    scales = np.array([1e200, 1.0, 1e-5, 3e250])[:, None, None, None]
    yield "mub-3-4", mub34
    yield "mub-5-3", mub_functional(build_mub_family(5, 3))
    yield "mub-settings-scaled", SteeringFunctional.from_table(mub34.coefficients * scales)
    yield "dichotomic-7", dichotomic_functional(build_clifford_family(7))
    yield "dichotomic-6-near-miss", off_anticommuting(dichotomic_functional(build_clifford_family(6)))
    repeated = dichotomic_functional(build_clifford_family(6)).coefficients.copy()
    repeated[5] = repeated[0]  # only the last pair of settings commutes
    yield "dichotomic-6-last-pair-commutes", SteeringFunctional.from_table(repeated)
    yield "clifford-4-full", clifford_functional(build_clifford_family(4, full_dimension=True))
    yield "random-3", random_functional(3, 0)
    yield "custom-hermitian", SteeringFunctional.from_table(raw + raw.conj().swapaxes(2, 3))
    yield "custom-non-hermitian", SteeringFunctional.from_table(raw)
    yield "custom-plus-minus", plus_minus_functional(rng, 4, 3)


@pytest.mark.parametrize("budget", [1, 1 << 40], ids=["one-setting-per-block", "one-block"])
def test_blocked_checks_decide_as_the_whole_table_formulas(budget, monkeypatch):
    """Every blocked pass gives the decision or the value of its
    whole-table formula, bit for bit, with one setting per block and with
    the whole table in one block, NaN and +-inf entries included."""
    monkeypatch.setattr(linalg_module, "_GRID_BLOCK_BYTES", budget)
    tables = [(name, SteeringFunctional.from_table(t)) for name, t in edge_tables()]
    for name, functional in tables + list(block_tables()):
        with np.errstate(over="ignore", invalid="ignore"):
            expected, got = whole_table_checks(functional), blocked_checks(functional)
        np.testing.assert_equal(got, expected, err_msg=name)
    for name, functional in block_tables():
        structure = structure_matches_dense_reference(functional)
        k = np.arange(functional.d)
        clock = np.exp(2j * np.pi * (np.subtract.outer(k, k) % functional.d) / functional.d)
        for conjugate in (lambda c: np.roll(c, 1, axis=(-2, -1)), lambda c: clock * c):
            found = structure_module._outcome_permutation(functional, conjugate)
            reference = per_cell_outcome_permutation(functional, conjugate)
            assert (found is None) == (reference is None), name
            if found is not None:
                assert np.array_equal(found[0], reference[0]) and found[1] == reference[1], name
        paper = paper_values(functional) or paper_values(mub_functional(build_mub_family(2, 3)))
        squares = structure.squares or None
        checks = []
        for size in (1 << 18, budget):
            monkeypatch.setattr(linalg_module, "_GRID_BLOCK_BYTES", size)
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e250 table's pairing
                report, value, eigs = quantum_module._canonical_check(functional, paper, squares)
            checks.append((*dataclasses.astuple(report), value, eigs))
        np.testing.assert_equal(checks[1], checks[0], err_msg=name)


def test_table_checks_peak_within_one_setting():
    """On tables whose settings exceed 256 KiB, table_structure and
    _require_bounded_table hold one setting's temporaries at a time. The
    bounds are what the per-setting checks they replace needed: one cell's
    negation and its booleans on the full-dim Pauli table (1,115,903 B
    there, against a 16 MiB table), two settings' worth of differences and
    their norm on the unbiased bases, and one setting's real parts."""
    full_dim = clifford_functional(build_clifford_family(8, full_dimension=True))
    mub = mub_functional(build_mub_family(31, 3))
    assert full_dim.coefficients[0].nbytes > 1 << 18 and mub.coefficients[0].nbytes > 1 << 18
    assert mub.hermitian  # the Hermiticity pass is not what is measured

    def peak(call, functional):
        tracemalloc.start()
        try:
            call(functional)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cell = full_dim.coefficients[0, 0].nbytes
    assert peak(structure_module.table_structure, full_dim) <= cell + cell // 16 + 4096
    setting = mub.coefficients[0].nbytes
    assert peak(structure_module.table_structure, mub) <= 2 * setting + (64 << 10)
    for functional in (full_dim, mub):
        setting = functional.coefficients[0].nbytes
        assert peak(lhs_module._require_bounded_table, functional) <= setting // 2 + 4096


def dense_anticommuting_value(functional):
    """The anticommuting check by dense d x d products, as it was before
    the monomial path: sqrt(sum_x c_x^2), or None."""
    c = functional.coefficients
    if c.shape[1] != 2 or not np.array_equal(c[:, 1], -c[:, 0]):
        return None
    ops = c[:, 0]
    if not all(np.array_equal(b, b.conj().T) for b in ops):
        return None
    total = 0.0
    with blas_threads(1):
        for x, b in enumerate(ops):
            square = b @ b
            c2 = square[0, 0]
            if c2.imag != 0 or not np.array_equal(square, c2 * np.eye(functional.d)):
                return None
            total += c2.real
            for y in range(x):
                p = b @ ops[y]
                if (p + p.conj().T).any():
                    return None
    return float(np.sqrt(total))


def structure_matches_dense_reference(functional):
    """table_structure's anticommuting decision and value are the dense
    reference's; returns the structure."""
    structure = structure_module.table_structure(functional)
    reference = dense_anticommuting_value(functional)
    assert (structure.method == "anticommuting") == (reference is not None)
    assert structure.value == reference
    return structure


@pytest.mark.parametrize("name, functional, method, evaluated", list(shortcut_cases()))
def test_monomial_check_matches_dense_products(name, functional, method, evaluated):
    assert structure_matches_dense_reference(functional).method == method


@pytest.fixture
def dense_checks(monkeypatch):
    """Counts the calls of the dense anticommutation check."""
    counted = []
    original = structure_module._dense_squares

    def counting(ops):
        counted.append(len(ops))
        return original(ops)

    monkeypatch.setattr(structure_module, "_dense_squares", counting)
    return counted


def test_pauli_tables_take_the_monomial_check(dense_checks):
    for functional in (
        clifford_functional(build_clifford_family(7, full_dimension=True)),
        dichotomic_functional(build_clifford_family(12)),
    ):
        assert structure_matches_dense_reference(functional).method == "anticommuting"
    assert dense_checks == []


def test_rotated_clifford_table_takes_the_dense_check(dense_checks):
    # a random unitary with entries i^k / 2: a permutation, a diagonal of
    # powers of i and the 4-point Fourier matrix, so every product stays
    # exact while the cells stop having one nonzero per row
    rng = np.random.default_rng(11)
    k = np.arange(4)
    fourier = 1j ** np.outer(k, k) / 2
    unitary = np.eye(4)[rng.permutation(4)] @ np.diag(1j ** rng.integers(0, 4, 4)) @ fourier
    table = clifford_functional(build_clifford_family(4)).coefficients
    rotated = unitary @ table @ unitary.conj().T
    functional = SteeringFunctional.from_table(rotated, kind="clifford")
    assert any(functionals_module._monomials(cell[None]) is None for cell in rotated[:, 0])
    structure = structure_matches_dense_reference(functional)
    assert (structure.method, structure.value) == ("anticommuting", 1.0)
    assert dense_checks == [4]


def _monomial_variants():
    """Monomial tables one exact relation away from anticommuting."""
    negated = dichotomic_functional(build_clifford_family(6)).coefficients.copy()
    i, j = 1, int(np.flatnonzero(negated[2, 0, 1])[0])
    negated[2, 0, i, j] *= -1
    negated[2, 0, j, i] *= -1  # one phase pair negated, still Hermitian
    negated[2, 1] = -negated[2, 0]
    # Hermitian involutions on the permutations (2 3) and (0 2)(1 3), which
    # do not commute, with values v_x = (1, 1, -1, -1) and v_y = 1 that
    # satisfy v_x v_y[c_x] + v_y v_x[c_y] = 0 in every row
    swaps = np.zeros((2, 2, 4, 4), dtype=complex)
    swaps[0, 0] = np.diag([1, 1, -1, -1])[[0, 1, 3, 2]]
    swaps[1, 0] = np.eye(4)[[2, 3, 0, 1]]
    swaps[:, 1] = -swaps[:, 0]
    # B^2 = diag(|v|^2, |v|^2, 1, 1), and |v|^2 rounds to one ulp above 1
    v = np.exp(0.08j)
    assert (v * np.conj(v)).real == 1 + np.spacing(1.0)
    ulp = np.zeros((1, 2, 4, 4), dtype=complex)
    ulp[0, 0, 0, 1], ulp[0, 0, 1, 0], ulp[0, 0, 2, 3], ulp[0, 0, 3, 2] = v, np.conj(v), 1, 1
    ulp[0, 1] = -ulp[0, 0]
    return {"negated-phase": negated, "non-commuting-maps": swaps, "square-one-ulp-off": ulp}


@pytest.mark.parametrize("name", list(_monomial_variants()))
def test_monomial_table_off_anticommuting_is_rejected_as_dense(name, dense_checks):
    table = _monomial_variants()[name]
    assert all(functionals_module._monomials(cell[None]) is not None for cell in table[:, 0])
    functional = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    assert structure_matches_dense_reference(functional).method == "complement-half"
    assert dense_checks == []


def _pauli_near_misses():
    """B_x of the compact dichotomic n = 7 table (d = 8) and near misses of
    them for the monomial Hermiticity proof, every cell still one nonzero
    per row. In the single settings the anticommutation has no pair to
    check, and B_x^2 is still exactly I on the diagonal _monomial_squares
    reads, so only the Hermiticity proof rejects them."""
    ops = dichotomic_functional(build_clifford_family(7)).coefficients[:, 0]
    x, i, j = next((x, i, j) for x, i, j in zip(*np.nonzero(ops.real)) if i != j)
    y, k = next((y, k) for y, k, l in zip(*np.nonzero(ops.real)) if k == l)

    def put(*entries):
        changed = ops.copy()
        for index, value in entries:
            changed[index] = value
        return changed

    # (1 + 2^-52)(1 - 2^-53) rounds to 1
    sign = ops[x, i, j].real
    off_by_ulps = put(
        ((x, i, j), sign * np.nextafter(1.0, 2.0)), ((x, j, i), sign * np.nextafter(1.0, 0.0))
    )
    return {
        "pauli": ops,
        "columns shifted, no involution": put((x, np.roll(np.eye(8), 1, axis=1))),
        "one setting, columns shifted": np.roll(np.eye(8), 1, axis=1)[None],
        "columns collapsed, no permutation": put((x, np.eye(8)[np.zeros(8, dtype=int)])),
        "one ulp off its conjugate": put(((x, i, j), np.nextafter(ops[x, i, j].real, 2.0))),
        "one setting, a pair an ulp off its conjugates": off_by_ulps[x : x + 1],
        "-0.0 imaginary part": put(((x, i, j), complex(ops[x, i, j].real, -0.0))),
        "-0.0 imaginary part on the diagonal": put(((y, k, k), complex(ops[y, k, k].real, -0.0))),
        "NaN": put(((x, i, j), np.nan)),
    }


# what lhs_bound and violation(strict=False) returned for each near miss
# before the monomial proof replaced the Hermiticity pass: (method, value,
# witness) and (s_q, s_q_method, violation, failed certificates), or the
# exception raised. The two non-Hermitian tables (columns shifted or
# collapsed) read the lower end of the numerical radius's phase search,
# within 2^-40 of the radius and so up to 7e-14 below the 720-angle grid
# value recorded first (3.2841750840240387 at witness (0, 1, 1, 1, 1, 1, 0),
# violation 1.8269427927844553; 3.9702555234583587 at (0, 0, 0, 1, 0, 1,
# 0)); several of their strategies tie to within rounding, so the last
# bits pick the witness
_CLOSED_FORM = ("anticommuting", 2.6457513110645907, (0,) * 7)
_ANALYTIC = (7.0, "analytic", 2.6457513110645903, ())
_VIOLATION_CHECK = "violation_ge_dichotomic"
EXACTLY_HERMITIAN_NEAR_MISSES = (
    "pauli",
    "-0.0 imaginary part",
    "-0.0 imaginary part on the diagonal",
)
PAULI_NEAR_MISS_RESULTS = {
    "pauli": (_CLOSED_FORM, _ANALYTIC),
    "columns shifted, no involution": (
        ("complement-half", 3.284175084023983, (0, 1, 0, 1, 1, 0, 1)),
        (6.0, "canonical-lower", 1.8269427927844861, ("canonical_attainment", _VIOLATION_CHECK)),
    ),
    "one setting, columns shifted": (
        ("complement-half", 1.0000000000000004, (0,)),
        (0.0, "canonical-lower", 0.0, ("canonical_attainment", _VIOLATION_CHECK)),
    ),
    "columns collapsed, no permutation": (
        ("complement-half", 3.970255523458077, (0, 1, 0, 0, 0, 1, 0)),
        BoundCheckError,
    ),
    "one ulp off its conjugate": (
        ("complement-half", 2.6457513110645916, (0, 0, 0, 0, 0, 1, 0)),
        (7.0, "analytic", 2.6457513110645894, ()),
    ),
    "one setting, a pair an ulp off its conjugates": (
        ("complement-half", 1.0, (0,)),
        (1.0, "analytic", 1.0, ()),
    ),
    "-0.0 imaginary part": (_CLOSED_FORM, _ANALYTIC),
    "-0.0 imaginary part on the diagonal": (_CLOSED_FORM, _ANALYTIC),
    "NaN": (PreconditionError, PreconditionError),
}


@pytest.mark.parametrize("name", list(PAULI_NEAR_MISS_RESULTS))
def test_monomial_exactness_decides_like_the_entrywise_comparison(
    name, dense_checks, hermiticity_passes
):
    """The monomial cells' exact Hermiticity, read from their nonzeros,
    rejects a table exactly where comparing every B_x with its adjoint or
    the anticommutation does, without the table's Hermiticity pass; bounds
    and reports are what they were when that pass decided."""
    ops = _pauli_near_misses()[name]
    functional = SteeringFunctional.from_table(
        np.stack([ops, -ops], axis=1), kind="clifford-dichotomic"
    )
    exact = all(np.array_equal(b, b.conj().T) for b in ops)
    assert exact is (name in EXACTLY_HERMITIAN_NEAR_MISSES)
    squares = structure_module.proven_squares(functional)
    assert (not squares) == (dense_anticommuting_value(functional) is None)
    assert (not squares) is not exact
    assert dense_checks == [] and hermiticity_passes == []
    lhs, report = PAULI_NEAR_MISS_RESULTS[name]
    if isinstance(lhs, type):
        with pytest.raises(lhs):
            lhs_bound(functional)
    else:
        result = lhs_bound(functional)
        assert (result.method, result.value, result.witness) == (
            lhs[0], pytest.approx(lhs[1], rel=1e-14), lhs[2]
        )
    if isinstance(report, type):
        with pytest.raises(report):
            violation(functional, strict=False)
    else:
        found = violation(functional, strict=False)
        assert (found.s_q, found.s_q_method, found.violation, found.failed) == (
            report[0], report[1], pytest.approx(report[2], rel=1e-14), report[3]
        )


PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_string(letters):
    """The Kronecker product of I, X, Y, Z (0..3) over the qubits."""
    out = np.ones((1, 1), dtype=complex)
    for letter in letters:
        out = np.kron(out, PAULIS[letter])
    return out


def _anticommute(a, b):
    # X, Y and Z anticommute with each other and commute with I and themselves
    return sum(p != q and p != 0 and q != 0 for p, q in zip(a, b)) % 2 == 1


def _random_pauli_table(rng, qubits, case):
    """Hermitian monomial cells +-c_x B_x from random Pauli strings, in one
    of the cases the anticommutation check must decide like dense
    products: all pairs anticommuting, one commuting pair, one phase
    pair negated, or one square an ulp off c_x^2 I."""
    strings = [tuple(rng.integers(0, 4, qubits)) for _ in range(200)]
    chosen = []
    for letters in strings:
        if any(letters) and all(_anticommute(letters, other) for other in chosen):
            chosen.append(letters)
    if case == "commuting-pair":  # a string commutes with itself
        chosen.append(chosen[int(rng.integers(len(chosen)))])
    scales = rng.choice([0.5, 1.0, 2.0, 3.0], len(chosen)) * rng.choice([-1, 1], len(chosen))
    ops = np.stack([c * _pauli_string(letters) for c, letters in zip(scales, chosen)])
    if case in ("negated-phase", "square-one-ulp-off"):
        # a string with an X or Y is off the diagonal; |exp(0.08i)|^2 rounds
        # to one ulp above 1
        x = next(x for x, letters in enumerate(chosen) if any(p in (1, 2) for p in letters))
        ops[x] /= abs(scales[x])
        i = int(rng.integers(ops.shape[1]))
        j = int(np.flatnonzero(ops[x, i])[0])
        phase = -1 if case == "negated-phase" else np.exp(0.08j)
        ops[x, i, j] *= phase
        ops[x, j, i] *= np.conj(phase)
    return ops


@pytest.mark.parametrize(
    "case", ["anticommuting", "commuting-pair", "negated-phase", "square-one-ulp-off"]
)
@pytest.mark.parametrize("qubits", [2, 3, 4, 5])
def test_pair_gathers_decide_random_pauli_tables_like_dense_products(qubits, case):
    rng = np.random.default_rng(100 * qubits + len(case))
    for _ in range(5):
        ops = _random_pauli_table(rng, qubits, case)
        columns, values = functionals_module._monomials(ops)
        with blas_threads(1):
            dense = structure_module._dense_squares(ops)
        assert structure_module._monomial_squares(columns, values) == dense
        if case == "anticommuting":
            assert dense == (tuple(np.abs(ops[:, 0]).max(axis=1) ** 2), True)
        elif case == "commuting-pair":
            assert dense == (tuple(np.abs(ops[:, 0]).max(axis=1) ** 2), False)
        elif case == "square-one-ulp-off":
            assert dense is None


def test_pair_gathers_reject_many_settings_within_the_table_memory():
    # 3000 settings of d = 2 hold 4.5 million pairs; sigma_z commutes with
    # the sigma_z before it, so the check ends at the third setting. The
    # per-cell (column, value) arrays take about five times the table;
    # pair index arrays would take over two hundred times it
    ops = np.tile(np.diag([1, -1]).astype(complex), (3000, 1, 1))
    ops[0] = [[0, 1], [1, 0]]
    functional = SteeringFunctional.from_table(np.stack((ops, -ops), axis=1), kind="custom")
    tracemalloc.start()
    try:
        assert structure_module._squares_proof(functional, True) == ((1.0,) * 3000, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * functional.coefficients.nbytes


def test_reduced_strategies_keep_their_full_enumeration_values():
    # the representatives are the first m^(n-k) strategies, each computed
    # exactly as in the full enumeration
    functional = mub_functional(build_mub_family(5, 5))
    norms = strategy_norms(functional)
    result = lhs_bound(functional)
    best = int(np.argmax(norms[: result.strategies_evaluated]))
    assert result.value == norms[best]
    assert result.witness == tuple(int(a) for a in np.unravel_index(best, (5,) * 5))


@pytest.fixture
def radius_matrices(monkeypatch):
    """Counts the matrices passed to the enumeration's numerical radius."""
    counted = []
    original = lhs_module.numerical_radius

    def counting(ms, *args, **kwargs):
        counted.append(int(np.prod(np.shape(ms)[:-2])))
        return original(ms, *args, **kwargs)

    monkeypatch.setattr(lhs_module, "numerical_radius", counting)
    return counted


def test_table_one_ulp_off_anticommuting_is_enumerated(eigvalsh_matrices):
    functional = off_anticommuting(dichotomic_functional(build_clifford_family(5)))
    square = functional.coefficients[0, 0] @ functional.coefficients[0, 0]
    assert np.array_equal(square, np.eye(4))
    eigvalsh_matrices.clear()
    result = lhs_bound(functional)
    assert result.method == "complement-half"
    assert sum(eigvalsh_matrices) == result.strategies_evaluated == 2**4
    assert abs(result.value - full_enumeration_norms(functional).max()) <= 1e-12


def test_table_one_ulp_off_a_square_is_enumerated(eigvalsh_matrices):
    table = dichotomic_functional(build_clifford_family(6)).coefficients.copy()
    i, j = 0, int(np.flatnonzero(table[2, 0, 0])[0])
    table[2, 0, i, j] = np.nextafter(table[2, 0, i, j].real, 2.0)
    table[2, 0, j, i] = np.conj(table[2, 0, i, j])
    table[2, 1] = -table[2, 0]
    functional = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    eigvalsh_matrices.clear()
    result = lhs_bound(functional)
    assert result.method == "complement-half"
    assert sum(eigvalsh_matrices) == 2**5
    assert abs(result.value - full_enumeration_norms(functional).max()) <= 1e-12


def test_single_setting_with_a_non_scalar_square_is_enumerated():
    # no pair to anticommute: only the square check keeps B = diag(1, 1 + ulp)
    # from the closed form sqrt(B^2[0, 0]) = 1
    b = np.diag([1.0, np.nextafter(1.0, 2.0)]).astype(complex)
    functional = SteeringFunctional.from_table(np.stack([b, -b])[None])
    result = lhs_bound(functional)
    assert result.method == "complement-half"
    assert result.value == np.nextafter(1.0, 2.0)


def test_anticommuting_table_hermitian_only_within_tolerance_is_enumerated():
    # B = sigma_x + i eps sigma_y squares to (1 - eps^2) I, which rounds to
    # I, but is not exactly Hermitian; the eigensolver reads its lower
    # triangle, whose norm is 1 - eps, not 1
    eps = 1e-11
    b = np.array([[0, 1 + eps], [1 - eps, 0]], dtype=complex)
    assert np.array_equal(b @ b, np.eye(2))
    table = np.stack([b, -b])[None]
    functional = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    assert functional.hermitian
    result = lhs_bound(functional)
    assert result.method == "complement-half"
    assert abs(result.value - strategy_norms(functional).max()) <= 1e-12


def test_mub_cell_off_by_more_than_the_match_tolerance_is_enumerated(eigvalsh_matrices):
    table = mub_functional(build_mub_family(3, 4)).coefficients.copy()
    table[1, 2, 0, 1] += 1e-9
    table[1, 2, 1, 0] += 1e-9
    functional = SteeringFunctional.from_table(table, kind="mub")
    eigvalsh_matrices.clear()
    result = lhs_bound(functional)
    assert (result.method, result.strategies_evaluated) == ("enumeration", 81)
    # one chunk: the strategy with the largest bound, then the 71 others
    # whose bounds reach its value
    assert result.strategies_solved == 72
    assert eigvalsh_matrices == [1, 71]
    assert abs(result.value - full_enumeration_norms(functional).max()) <= 1e-12


def test_random_table_with_an_entry_outside_row_zero_is_enumerated(radius_matrices):
    table = random_functional(3, 0).coefficients.copy()
    table[1, 2, 2, 1] = 1e-3
    functional = SteeringFunctional.from_table(table, kind="random")
    result = lhs_bound(functional)
    assert (result.method, result.strategies_evaluated) == ("enumeration", 27)
    assert result.strategies_solved == 6
    assert radius_matrices == [1, 5]
    assert result.value == strategy_norms(functional).max()


def pruning_cases():
    """(id, custom table whose lhs_bound takes the pruned enumeration,
    whether it solves fewer than half of its strategies)."""
    rng = np.random.default_rng(31)

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    yield "hermitian-3-3-3", random_hermitian_functional(rng, 3, 3, 3), True
    yield "hermitian-4-5-4", random_hermitian_functional(rng, 5, 4, 4), True
    # 81 strategies in chunks of 64: two chunks, each pruned on its own;
    # d = 32 spectra are flat enough that every strategy is solved
    yield "hermitian-32-4-3", random_hermitian_functional(rng, 4, 3, 32), False
    yield "general-3-3-3", SteeringFunctional.from_table(complex_normal(3, 3, 3, 3)), True
    yield "general-5-4-3", SteeringFunctional.from_table(complex_normal(4, 3, 5, 5)), True
    # every outcome of setting 1 has the same cell: each value is taken by
    # three strategies, and the witness is the first of them (a_1 = 0)
    tied = random_hermitian_functional(rng, 3, 3, 3).coefficients.copy()
    tied[1] = tied[1, 0]
    yield "tied", SteeringFunctional.from_table(tied), True
    # every bound of this table is below the 2^-225 floor, so none is trusted
    tiny = 1e-90 * random_hermitian_functional(rng, 3, 3, 3).coefficients
    yield "hermitian-3-3-3-tiny", SteeringFunctional.from_table(tiny), False


@pytest.mark.parametrize("name, functional, prunes", list(pruning_cases()))
def test_pruned_enumeration_matches_the_full_one(name, functional, prunes):
    norms = strategy_norms(functional)
    first = np.unravel_index(int(np.argmax(norms)), (functional.m,) * functional.n)
    results = [lhs_bound(functional, threads=threads) for threads in (1, 3)]
    assert results[0] == results[1]
    result = results[0]
    assert result.method == "enumeration"
    assert result.value == norms.max()
    assert result.witness == tuple(int(a) for a in first)
    assert result.strategies_evaluated == norms.size
    assert 1 <= result.strategies_solved <= norms.size
    assert (result.strategies_solved < norms.size / 2) == prunes
    if name == "tied":
        assert result.witness[1] == 0
        assert np.count_nonzero(norms == norms.max()) >= 3


def test_pruning_bounds_the_matrix_eigvalsh_reads():
    # Strategy (0, 0) sums to the nilpotent N = [[0, 0], [1e-10, 0]]: its
    # square is 0, while eigvalsh reads its lower triangle, of norm 1e-10.
    # A bound on N itself would rank it below diag(6e-11, 0), the sum of
    # (1, 0), and skip the maximum. The identity cells that cancel in the
    # sums make the table Hermitian within tolerance of its largest entry.
    low = np.array([[1, 0], [1e-10, 1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    table = np.stack([np.stack([low, np.diag([1 + 6e-11, 1])]), np.stack([-eye, -eye])])
    functional = SteeringFunctional.from_table(table)
    assert functional.hermitian and not functional.exactly_hermitian
    result = lhs_bound(functional)
    assert result.method == "enumeration"
    assert (result.value, result.witness) == (1e-10, (0, 0))
    assert result.value == strategy_norms(functional).max()


def test_exactly_hermitian_sums_are_bounded_as_they_come():
    """The strategy sums of an exactly Hermitian table, bounded without the
    lower-triangle rebuild, get the rebuilt bounds bit for bit: the one-hot
    GEMM adds the same terms in the same order to entries (i, j) and (j, i)."""
    rng = np.random.default_rng(13)
    for functional in (
        mub_functional(build_mub_family(7, 4)),
        mub_functional(build_mub_family(5, 6)),
        random_hermitian_functional(rng, 5, 3, 6),
    ):
        n, m, d = functional.n, functional.m, functional.d
        assert functional.exactly_hermitian
        cells = functional.coefficients.reshape(n * m, -1).view(np.float64)
        sums = lhs_module._chunk_sums(cells, n, m, 0, min(m**n, 4096)).reshape(-1, d, d)
        exact = linalg_module.hermitian_norm_upper_bounds(sums, exact=True)
        assert np.array_equal(exact, linalg_module.hermitian_norm_upper_bounds(sums))


def signed_table(observables):
    """The +- table F_x^1 = B_x, F_x^2 = -B_x of a stack of Hermitian B_x."""
    observables = np.asarray(observables, dtype=complex)
    return SteeringFunctional.from_table(np.stack([observables, -observables], axis=1))


@pytest.fixture
def bounded(monkeypatch):
    """Counts the matrices passed to the enumeration's Hermitian upper bound."""
    counted = []
    original = lhs_module.hermitian_norm_upper_bounds

    def counting(ms, **kwargs):
        counted.append(len(ms))
        return original(ms, **kwargs)

    monkeypatch.setattr(lhs_module, "hermitian_norm_upper_bounds", counting)
    return counted


def first_maximiser(functional):
    """(value, witness) of the full enumeration's first maximiser."""
    norms = strategy_norms(functional)
    best = int(np.argmax(norms))
    witness = np.unravel_index(best, (functional.m,) * functional.n)
    return norms[best], tuple(int(a) for a in witness)


def test_near_miss_of_the_closed_form_prunes_from_its_one_chunk(bounded):
    # dichotomic n = 6 (d = 8) with B_0 one ulp off anticommuting with the
    # rest: its 32 strategies are one chunk, bounded once, and every value
    # is within the slack of the largest, so every strategy is solved
    near_miss = off_anticommuting(dichotomic_functional(build_clifford_family(6)))
    result = lhs_bound(near_miss)
    assert (result.method, result.strategies_evaluated, result.strategies_solved) == (
        "complement-half", 32, 32)
    assert bounded == [32]
    assert (result.value, result.witness) == first_maximiser(near_miss)
    # commuting +- observables are not a near miss, and prune
    bounded.clear()
    signs = np.random.default_rng(4).choice([-1.0, 1.0], size=(6, 8))
    commuting = signed_table([np.diag(s) for s in signs])
    result = lhs_bound(commuting)
    assert bounded and result.strategies_solved < result.strategies_evaluated == 32
    assert (result.value, result.witness) == first_maximiser(commuting)


def test_complement_symmetry_is_checked_once_per_bound(monkeypatch):
    """table_structure hands its one complement_symmetric pass to the
    anticommutation proof."""
    calls = []
    original = structure_module.complement_symmetric

    def counting(f):
        calls.append(f.n)
        return original(f)

    monkeypatch.setattr(structure_module, "complement_symmetric", counting)
    monkeypatch.setattr(lhs_module, "complement_symmetric", counting)
    observables = dichotomic_functional(build_clifford_family(10)).coefficients[:, 0].copy()
    observables[9] = observables[0]
    table = np.stack([observables, -observables], axis=1)
    functional = SteeringFunctional.from_table(table, kind="clifford-dichotomic")
    result = lhs_bound(functional)
    assert result.method == "complement-half"
    assert result.value == pytest.approx(np.sqrt(12.0), rel=1e-14)
    assert calls == [10]
    calls.clear()
    assert violation(functional, strict=False).s_q_method == "analytic"
    assert calls == [10]


def test_monomial_near_miss_bounds_only_its_first_chunk(dense_checks, bounded):
    # dichotomic n = 10 (d = 32) with B_0 one ulp off: 512 strategies in 8
    # chunks of 64; the first chunk's bounds skip nothing, so the other 7
    # are solved without bounds. The proof takes no dense product
    near_miss = off_anticommuting(dichotomic_functional(build_clifford_family(10)))
    result = lhs_bound(near_miss)
    assert result.method == "complement-half"
    assert result.strategies_solved == result.strategies_evaluated == 512
    assert dense_checks == [] and bounded == [64]
    assert (result.value, result.witness) == first_maximiser(near_miss)


def test_plus_minus_squares_table_bounds_only_its_first_chunk(bounded):
    """Dichotomic n = 10 with B_9 = B_0: every strategy operator squares to
    a multiple of I, so (Tr H^4)^(1/4) = d^(1/4) ||H|| lies above every
    other norm and prunes nothing. The first of its 8 chunks of 64 shows
    that, and is the only one bounded, whatever the thread count."""
    observables = dichotomic_functional(build_clifford_family(10)).coefficients[:, 0].copy()
    observables[9] = observables[0]
    functional = signed_table(observables)
    results = []
    for threads in (1, 3):
        bounded.clear()
        results.append(lhs_bound(functional, threads=threads))
        assert bounded == [64]
    assert results[0] == results[1]
    result = results[0]
    assert (result.method, result.strategies_evaluated) == ("complement-half", 512)
    assert result.strategies_solved == 512
    assert (result.value, result.witness) == first_maximiser(functional)


def test_unbiased_bases_prune_past_their_first_chunk(eigvalsh_matrices):
    # mub (7,6): the Weyl orbit leaves 2,401 strategies, in chunks of 1,337;
    # the first chunk's bounds prune, so the second is bounded too, and each
    # solves its top strategy and one more
    functional = mub_functional(build_mub_family(7, 6))
    eigvalsh_matrices.clear()
    result = lhs_bound(functional)
    assert (result.method, result.strategy_count) == ("weyl-orbit", 7**6)
    assert (result.strategies_evaluated, result.strategies_solved) == (2401, 4)
    assert eigvalsh_matrices == [1, 1, 1, 1]


class _CountedProducts(np.ndarray):
    """An array that records the operands of the matrix products taken
    with it, by their data addresses."""

    products = []

    def __matmul__(self, other):
        other = np.asarray(other)
        _CountedProducts.products.append((self.ctypes.data, other.ctypes.data))
        return np.asarray(self) @ other


def test_dense_near_miss_takes_each_product_at_most_once(dense_checks, bounded):
    # dichotomic n = 6 (d = 8) turned by a random unitary, then made exactly
    # Hermitian: anticommuting up to rounding, with dense cells
    rng = np.random.default_rng(5)
    unitary, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    observables = dichotomic_functional(build_clifford_family(6)).coefficients[:, 0]
    turned = unitary @ observables @ unitary.conj().T
    turned = (turned + turned.conj().swapaxes(1, 2)) / 2
    table = np.stack([turned, -turned], axis=1).view(_CountedProducts)
    near_miss = SteeringFunctional(kind="custom", coefficients=table)
    assert near_miss.exactly_hermitian
    assert functionals_module._monomials(turned) is None
    _CountedProducts.products = []
    result = lhs_bound(near_miss)
    products = _CountedProducts.products
    assert 1 <= len(products) == len(set(products)) <= 6 * 7 // 2  # B_x B_y, y <= x
    assert dense_checks == [6] and bounded == [32]
    assert result.method == "complement-half"
    assert result.strategies_solved == result.strategies_evaluated == 32
    assert (result.value, result.witness) == first_maximiser(signed_table(turned))


def test_rank_one_table_makes_no_numerical_radius_call(radius_matrices):
    result = lhs_bound(random_functional(4, 0))
    assert result.method == "rank-one"
    assert radius_matrices == []


def test_closed_form_makes_no_eigensolve(eigvalsh_matrices):
    functional = dichotomic_functional(build_clifford_family(12))
    eigvalsh_matrices.clear()
    result = lhs_bound(functional)
    assert (result.method, result.strategies_evaluated) == ("anticommuting", 0)
    assert result.value == np.sqrt(12.0)
    assert eigvalsh_matrices == []


def test_weyl_orbit_needs_a_transitive_action():
    # two copies of the computational basis: shift and clock permute the
    # outcomes, but only along the diagonal a_0 = a_1
    family = MubFamily(bases=np.stack([np.eye(3, dtype=complex)] * 2))
    result = lhs_bound(mub_functional(family))
    assert result.method == "enumeration"
    assert result.value == 2.0 and result.strategies_evaluated == 9


def test_weyl_orbit_tolerance_follows_the_table_scale():
    # scaled up, the clock's rounding residue grows with the entries; the
    # reduction still applies, and stays within the scaled tolerance
    table = mub_functional(build_mub_family(3, 4)).coefficients * 1e10
    functional = SteeringFunctional.from_table(table, kind="custom")
    result = lhs_bound(functional)
    assert result.method == "weyl-orbit"
    scale = 1e10 * 4
    assert abs(result.value - strategy_norms(functional).max()) <= 1e-12 * scale


def test_weyl_orbit_tolerance_is_relative_below_unit_scale():
    # a random Hermitian table without the Weyl symmetry, scaled down: with
    # the table scale floored at 1 the orbit tolerance turned absolute, the
    # shortcut was taken and S_LHS read 3.68e-20 for 8.54e-20, a violation
    # of 2.3 on a table the see-saw cannot steer at scale 1
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    table = raw + raw.conj().swapaxes(-1, -2)
    for factor in (1.0, 1e-20):
        functional = SteeringFunctional.from_table(table * factor)
        result = lhs_bound(functional)
        assert result.method == "enumeration"
        assert result.value == strategy_norms(functional).max()
        assert violation(functional).violation == pytest.approx(1.0, abs=1e-12)
    mub = mub_functional(build_mub_family(5, 4)).coefficients
    for factor in (1e-20, 1e20):  # a scaled copy of a covariant table keeps it
        assert lhs_bound(SteeringFunctional.from_table(mub * factor)).method == "weyl-orbit"


def _uneven_mub_table(factor):
    """mub (3,3) with cell (0, 1) stretched by 1.2, which breaks its Weyl
    symmetry, times `factor`."""
    table = mub_functional(build_mub_family(3, 3)).coefficients.copy()
    table[0, 1] *= 1.2
    return SteeringFunctional.from_table(table * factor, kind="custom")


def test_large_entries_keep_the_weyl_check_and_table_scale_finite():
    # entries near 1e154 square past the float range; the mass guard admits
    # them, so the Frobenius norms scale before they square: the table scale
    # stays finite and the broken symmetry is still found
    functional = _uneven_mub_table(6e154)
    assert table_scale(functional) == pytest.approx(6e154 * table_scale(_uneven_mub_table(1)))
    result = lhs_bound(functional)
    assert result.method == "enumeration"
    assert result.value == strategy_norms(functional).max()
    assert result.value == pytest.approx(2.2844212084666236 * 6e154, rel=1e-12)


@pytest.mark.parametrize("factor", [1e-160, 1e-170, 1e-300])
def test_tiny_entries_keep_norms_table_scale_and_the_weyl_check(factor):
    # squares of entries below 2^-400 underflow, to subnormals near 1e-160
    # and to 0 below; the norms scale before they square, so a scaled copy
    # decides and reads as the table does
    base, mub = random_functional(4, 0), mub_functional(build_mub_family(3, 4))
    functional = SteeringFunctional.from_table(base.coefficients * factor, kind="custom")
    result = lhs_bound(functional)
    assert result.method == "rank-one"
    assert result.value == pytest.approx(lhs_bound(base).value * factor, rel=1e-15, abs=0)
    assert result.value == pytest.approx(strategy_norms(functional).max(), rel=1e-12, abs=0)
    assert table_scale(functional) == pytest.approx(table_scale(base) * factor, rel=1e-15, abs=0)
    scaled = lhs_bound(SteeringFunctional.from_table(mub.coefficients * factor, kind="custom"))
    assert scaled.method == "weyl-orbit"
    assert scaled.value == pytest.approx(lhs_bound(mub).value * factor, rel=1e-15, abs=0)


def test_large_entries_keep_the_rank_one_radius_finite():
    functional = random_functional(3, 0)
    large = SteeringFunctional.from_table(functional.coefficients * 1e155)
    result = lhs_bound(large)
    assert result.method == "rank-one"
    assert result.value == pytest.approx(1.226483157256779e155, rel=1e-12)
    # scaling by a power of two is exact, so the radius scales bit for bit
    exact = SteeringFunctional.from_table(functional.coefficients * 2.0**520)
    assert lhs_bound(exact).value == lhs_bound(functional).value * 2.0**520


def test_weyl_orbit_needs_a_bijection_per_setting():
    # a third setting whose cells are all I/3: every cell is nearest to the
    # first one, so shift and clock give no outcome permutation there
    table = mub_functional(build_mub_family(3, 2)).coefficients
    flat = np.broadcast_to(np.eye(3) / 3, (1, 3, 3, 3))
    functional = SteeringFunctional.from_table(np.concatenate([table, flat]), kind="mub")
    result = lhs_bound(functional)
    assert (result.method, result.strategies_evaluated) == ("enumeration", 27)
    assert result.value == strategy_norms(functional).max()


def test_weyl_orbit_residue_is_charged_per_orbit_step():
    # one mub (3,4) cell moved by 1e-12 leaves a matching residue of 1.4e-12,
    # under 1e-12 times the table scale 4; but strategies lie up to four
    # shift/clock steps from a representative, and the residues add up
    table = mub_functional(build_mub_family(3, 4)).coefficients
    for delta, method in ((1e-15, "weyl-orbit"), (1e-12, "enumeration")):
        moved = table.copy()
        moved[1, 2, 0, 1] += delta
        moved[1, 2, 1, 0] += delta
        functional = SteeringFunctional.from_table(moved, kind="mub")
        result = lhs_bound(functional)
        assert result.method == method
        assert abs(result.value - strategy_norms(functional).max()) <= 1e-12


def test_lhs_cap_prices_the_strategies_the_path_evaluates():
    # the closed form evaluates none of its 16 strategies
    result = lhs_bound(dichotomic_functional(build_clifford_family(4)), cap=15)
    assert (result.value, result.strategies_evaluated, result.strategy_count) == (2.0, 0, 16)
    # the Weyl orbit evaluates 9 of 81
    with pytest.raises(EnumerationCapExceeded, match="needs 9 deterministic"):
        lhs_bound(mub_functional(build_mub_family(3, 4)), cap=8)
    # the full enumeration keeps pricing m^n
    with pytest.raises(EnumerationCapExceeded, match="needs 16 deterministic"):
        strategy_norms(dichotomic_functional(build_clifford_family(4)), cap=15)


def test_complete_mub_set_of_dimension_seven_is_reported():
    # 7^8 = 5,764,801 strategies, above the default cap; the Weyl orbit
    # evaluates the 7^6 = 117,649 with a_0 = a_1 = 0
    functional = mub_functional(build_mub_family(7, 8))
    report = violation(functional)
    assert report.diagnostics["lhs_method"] == "weyl-orbit"
    assert report.diagnostics["strategy_count"] == 7**8
    assert report.diagnostics["strategies_evaluated"] == 7**6
    assert report.certificates and not report.failed
    assert report.s_lhs_exact < report.s_lhs_analytic["mub-uncertainty"]
    assert report.violation > max(report.violation_lower_bounds.values())


def test_report_names_the_lhs_path():
    cases = (
        (dichotomic_functional(build_clifford_family(4)), "anticommuting", 0),
        (mub_functional(build_mub_family(3, 4)), "weyl-orbit", 9),
        (random_functional(2, 1), "rank-one", 4),
        (plus_minus_functional(np.random.default_rng(3), 3, 2), "complement-half", 4),
        (random_hermitian_functional(np.random.default_rng(3), 2, 3, 2), "enumeration", 9),
    )
    for functional, method, evaluated in cases:
        reports = [
            violation(functional, threads=threads, seesaw_restarts=2, seesaw_max_iters=20)
            for threads in (1, 8)
        ]
        for report in reports:
            report.diagnostics.pop("timings")
        assert reports[0] == reports[1]
        assert reports[0].diagnostics["lhs_method"] == method
        assert reports[0].diagnostics["strategies_evaluated"] == evaluated
        assert 0 <= reports[0].diagnostics["strategies_solved"] <= evaluated


# ---------------------------------------------------------------------------
# analytic bounds


def mub_lhs_upper(d, n):
    return paper_values(mub_functional(build_mub_family(d, n))).lhs_upper


def test_mub_analytic_values():
    assert mub_lhs_upper(2, 3)["mub-uncertainty"] == pytest.approx(LHS_23, abs=1e-12)
    assert mub_lhs_upper(5, 6)["mub-gram"] == pytest.approx(1 + 7 / np.sqrt(5), abs=1e-12)
    assert mub_lhs_upper(3, 4)["mub-uncertainty"] == pytest.approx(8 / 3, abs=1e-12)


def test_clifford_analytic_values():
    eight = paper_values(clifford_functional(build_clifford_family(8)))
    assert eight.lhs_upper["clifford"] == pytest.approx(2.0, abs=1e-12)
    two = paper_values(dichotomic_functional(build_clifford_family(2)))
    assert two.lhs_upper["dichotomic"] == pytest.approx(2.0, abs=1e-12)
    one = clifford_functional(build_clifford_family(1))
    exact = lhs_bound(one).value
    assert exact == pytest.approx(0.5, abs=1e-12)
    assert exact <= paper_values(one).lhs_upper["clifford"]


@pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 6)])
def test_exact_below_both_mub_bounds(d, n):
    functional = mub_functional(build_mub_family(d, n))
    exact = lhs_bound(functional).value
    assert exact <= mub_lhs_upper(d, n)["mub-gram"] + 1e-9
    assert exact <= mub_lhs_upper(d, n)["mub-uncertainty"] + 1e-9


def paper_tables():
    """Every structured table the paper's values are stated for, within
    mub d in {2, 3, 5, 7}, 2 <= n <= d+1, and anticommuting n = 1..12."""
    for d in (2, 3, 5, 7):
        for n in range(2, d + 2):
            yield mub_functional(build_mub_family(d, n))
    for n in range(1, 13):
        family = build_clifford_family(n)
        yield clifford_functional(family)
        yield dichotomic_functional(family)


def test_paper_values_violation_lower_is_s_q_over_lhs_upper():
    tables = list(paper_tables())
    assert len(tables) == 2 + 3 + 5 + 7 + 2 * 12
    for f in tables:
        values = paper_values(f)
        assert isinstance(values, PaperValues)
        assert values.lhs_upper.keys() == values.violation_lower.keys(), f.kind
        assert values.lhs_upper, f.kind
        for tag, upper in values.lhs_upper.items():
            quotient = values.s_q / upper
            assert abs(values.violation_lower[tag] - quotient) <= 1e-14 * quotient, (
                f.kind, f.n, f.d, tag
            )


def test_paper_values_none_for_random_and_custom():
    assert paper_values(random_functional(3, 0)) is None
    custom = SteeringFunctional.from_table(
        mub_functional(build_mub_family(3, 4)).coefficients, kind="custom"
    )
    assert paper_values(custom) is None


# ---------------------------------------------------------------------------
# quantum bounds


def test_quantum_bound_values():
    assert quantum_bound(mub_functional(build_mub_family(3, 4))) == 4.0
    assert quantum_bound(clifford_functional(build_clifford_family(6))) == 3.0
    dicho = dichotomic_functional(build_clifford_family(5))
    assert quantum_bound(dicho) == 5.0


def test_paper_values_reject_a_one_dimensional_mub_table():
    table = SteeringFunctional.from_table(np.ones((2, 1, 1, 1)), kind="mub")
    with pytest.raises(PreconditionError, match="invalid scenario d=1"):
        paper_values(table)


def test_quantum_bound_canonical_method():
    functional = mub_functional(build_mub_family(2, 3))
    result = quantum_bound(functional)
    assert result == pytest.approx(3.0, abs=1e-9)


def test_quantum_bound_rejects_random():
    with pytest.raises(PreconditionError, match="seesaw"):
        quantum_bound(random_functional(2, 0))


def test_seesaw_reaches_mub_value():
    functional = mub_functional(build_mub_family(2, 3))
    result = quantum_bound_seesaw(functional, restarts=5, max_iters=300, seed=2)
    assert result.value >= 2.97
    assert result.value <= 3.0 + 1e-7


def test_seesaw_reaches_clifford_value():
    functional = clifford_functional(build_clifford_family(4))
    result = quantum_bound_seesaw(functional, restarts=5, max_iters=300, seed=2)
    assert result.value >= 1.98
    assert result.value <= 2.0 + 1e-7


def test_seesaw_zero_functional():
    functional = SteeringFunctional.from_table(np.zeros((2, 2, 2, 2)), kind="custom")
    assert quantum_bound_seesaw(functional, restarts=2, max_iters=20).value == pytest.approx(
        0.0, abs=1e-12
    )


def test_seesaw_monotone_trace():
    functional = mub_functional(build_mub_family(3, 4))
    result = quantum_bound_seesaw(functional, restarts=1, max_iters=200, seed=5)
    diffs = np.diff(result.trace)
    assert diffs.min(initial=0.0) >= -TOLERANCES.seesaw_monotone


def test_seesaw_raises_on_a_decreasing_step(monkeypatch):
    # a negative tolerance turns every step that does not rise by at least
    # 1.0 into a violation, so the per-step check must fire
    monkeypatch.setattr(
        seesaw_module, "TOLERANCES", dataclasses.replace(TOLERANCES, seesaw_monotone=-1.0)
    )
    functional = mub_functional(build_mub_family(2, 3))
    with pytest.raises(BoundCheckError, match="see-saw objective fell"):
        quantum_bound_seesaw(functional, restarts=1, max_iters=50, seed=5)


def sequential_seesaw(f, restarts, max_iters, tol=1e-10, seed=0):
    """One restart, and within it one setting, at a time: the reference
    the batched see-saw must agree with. Returns (value, converged).

    Updates 3, 6, 9, ... start from the SQUAREM state of the last three
    kept states and are kept only if they do not lower the objective."""

    def herm(x):
        return (x + x.conj().T) / 2

    def positive_projector(h):
        vals, vecs = np.linalg.eigh(herm(h))
        pos = vecs[:, vals > 0]
        return pos @ pos.conj().T

    def pairwise(conditioned, povm):
        povm = povm.copy()
        for a in range(povm.shape[0]):
            for b in range(a + 1, povm.shape[0]):
                q = herm(povm[a] + povm[b])
                vals, vecs = np.linalg.eigh(q)
                root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
                split = herm(root @ (conditioned[a] - conditioned[b]) @ root)
                povm[a] = herm(root @ positive_projector(split) @ root)
                povm[b] = q - povm[a]
        return povm

    def squarem(t0, t1, t2):
        r, v = t1 - t0, t2 - 2 * t1 + t0
        alpha = -1.0
        if np.linalg.norm(v) > 0:
            alpha = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        start = t0 - 2 * alpha * r + alpha**2 * v
        return start / np.linalg.norm(start)

    n, m, d = f.n, f.m, f.d
    rng = np.random.default_rng(seed)
    coeffs_t = f.coefficients.transpose(0, 1, 3, 2)
    eye = np.eye(d, dtype=complex)
    best = None
    for _ in range(restarts):
        raw = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        kept = [(raw / np.linalg.norm(raw)).reshape(d, d)]
        povms = np.broadcast_to(eye / m, (n, m, d, d)).copy()
        previous, converged = 0.0, False
        for it in range(max_iters):
            extrapolating = it > 0 and it % 3 == 0
            state = squarem(*kept[-3:]) if extrapolating else kept[-1]
            conditioned = np.einsum("pj,xajq,rq->xapr", state, coeffs_t, state.conj())
            value = complex(np.einsum("xaij,xaji->", povms, conditioned))
            phase = 1.0 if value == 0 else np.exp(-1j * np.angle(value))
            rotated = np.array([[herm(phase * c) for c in row] for row in conditioned])
            trial = np.empty_like(povms)
            for x in range(n):
                if m == 2:
                    trial[x, 0] = positive_projector(rotated[x, 0] - rotated[x, 1])
                    trial[x, 1] = eye - trial[x, 0]
                else:
                    trial[x] = pairwise(rotated[x], povms[x])
            value = complex(np.einsum("xaij,xaji->", trial, conditioned))
            phase = 1.0 if value == 0 else np.exp(-1j * np.angle(value))
            assembled = sum(
                np.kron(trial[x, a], phase * f.coefficients[x, a])
                for x in range(n)
                for a in range(m)
            )
            vals, vecs = np.linalg.eigh(herm(assembled))
            objective = float(vals[-1])
            if extrapolating and objective < previous:
                continue  # discarded: carry on from the last kept state
            top = vecs[:, -1].reshape(d, d)
            overlap = np.vdot(top, kept[-1])
            kept.append(top if overlap == 0 else top * overlap / abs(overlap))
            povms = trial
            if it and objective - previous <= tol:
                previous, converged = objective, True
                break
            previous = objective
        if best is None or previous > best[0]:
            best = (previous, converged)
    return best


@pytest.mark.parametrize(
    "functional, max_iters",
    [
        (random_functional(2, 7), 4),  # stopped early: the restarts end apart
        (random_functional(2, 7), 300),
        (random_functional(3, 0), 300),
        (mub_functional(build_mub_family(2, 3)), 300),
        (clifford_functional(build_clifford_family(3)), 300),
        # random tables take the rank-one pair step; this one the generic one
        (random_hermitian_functional(np.random.default_rng(100), 3, 3, 3), 300),
    ],
    ids=["random-2-capped", "random-2", "random-3", "mub-2-3", "clifford-3", "hermitian-3"],
)
def test_batched_seesaw_matches_sequential_reference(functional, max_iters):
    result = quantum_bound_seesaw(functional, restarts=8, max_iters=max_iters, seed=3)
    value, converged = sequential_seesaw(functional, restarts=8, max_iters=max_iters, seed=3)
    assert result.value == pytest.approx(value, abs=1e-9)
    assert result.converged == converged
    assert result.trace[-1] == result.value
    # a restart stops at its first step that gains at most tol
    gains = np.diff(result.trace)
    assert (gains[:-1] > 1e-10).all()
    assert (gains[-1] <= 1e-10) == result.converged


# Values the plain see-saw (no extrapolation) returned at default settings,
# seed = table seed: random d = 4 tables 0-2, which its 2,792 updates left
# below S_LHS, and the violating random d = 3 tables 3 and 7.
PLAIN_SEESAW_VALUES = {
    (4, 0): 1.4013878182719723,
    (4, 1): 1.401387818839705,
    (4, 2): 1.2905694150179583,
    (3, 3): 1.253527078466793,
    (3, 7): 1.252968428703997,
}


def test_extrapolated_seesaw_reaches_higher_values_in_fewer_updates():
    updates = 0
    for (d, t), plain in PLAIN_SEESAW_VALUES.items():
        result = quantum_bound_seesaw(random_functional(d, t), seed=t)
        assert result.value >= plain
        assert 0 <= result.extrapolations_kept <= result.extrapolations_tried
        if d == 4:
            updates += result.iterations
    assert updates <= 1675  # 0.6 x the plain see-saw's 2,792


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4])
def test_seesaw_counts_every_update_against_max_iters(monkeypatch, max_iters):
    update, extrapolated = seesaw_module._povm_update, seesaw_module._extrapolated
    batches, extrapolated_at = [], []

    def counting(rotated, factors):
        batches.append(rotated.shape[0])  # restarts this update moves
        return update(rotated, factors)

    def recording(history):
        extrapolated_at.append(len(batches))  # 0-based index of the update it starts
        return extrapolated(history)

    monkeypatch.setattr(seesaw_module, "_povm_update", counting)
    monkeypatch.setattr(seesaw_module, "_extrapolated", recording)
    restarts = 5
    result = quantum_bound_seesaw(random_functional(3, 0), restarts=restarts, max_iters=max_iters)
    # one group: each call updates every restart still running once
    assert len(batches) <= max_iters
    assert result.iterations == sum(batches) <= restarts * max_iters
    assert len(result.trace) <= max_iters
    assert extrapolated_at == ([3] if max_iters == 4 else [])
    assert result.extrapolations_tried == (batches[3] if max_iters == 4 else 0)
    assert 0 <= result.extrapolations_kept <= result.extrapolations_tried


def test_seesaw_values_are_attained_by_the_final_measurements():
    # ten updates, three of them extrapolated: each final value is the top
    # eigenvalue of a rotated sum_xa E_x^a (x) F_x^a of the POVMs returned,
    # so a state attains it with them, within that operator's numerical
    # radius; a random table takes the rank-one pair step, the Hermitian
    # one the generic step, and each discards some extrapolation
    cases = [
        (random_functional(3, 3), 4),
        (random_hermitian_functional(np.random.default_rng(100), 3, 3, 3), 0),
    ]
    for f, seed in cases:
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        state = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).reshape(-1, 3, 3)
        values, _, traces, _, povms, (kept, tried) = seesaw_module._seesaw_group(
            f, state, 10, 1e-12
        )
        assert tried == 18 and kept < tried  # some extrapolations were discarded
        seesaw_module._require_measurements(povms, 0)
        for value, trace, measurement in zip(values, traces, povms):
            assert trace[-1] == value
            assert (np.diff(trace) >= 0).all()
            assembled = sum(
                np.kron(measurement[x, a], f.coefficients[x, a])
                for x in range(3)
                for a in range(3)
            )
            assert numerical_radius(assembled) >= value - 1e-7


def test_extrapolation_of_fixed_straight_and_geometric_paths():
    rng = np.random.default_rng(1)
    # integer entries, so that r and v are exact
    a, b = rng.integers(-4, 5, size=(2, 3, 3)) + 1j * rng.integers(-4, 5, size=(2, 3, 3))
    fixed = a / np.linalg.norm(a)
    history = np.stack([
        np.stack([fixed] * 3),
        np.stack([a, a + b, a + 2 * b]),
        # steps 2b, b: alpha = -2 lands on the limit a + 4b of the halving steps
        np.stack([a, a + 2 * b, a + 3 * b]),
    ])
    start = seesaw_module._extrapolated(history)
    unit = [fixed, a + 2 * b, a + 4 * b]  # v = 0 gives alpha = -1: the newest state
    for got, want in zip(start, unit):
        assert np.abs(got - want / np.linalg.norm(want)).max() <= 1e-15


def root_form_sweep(rotated, povms):
    """The pairwise sweep on POVM elements themselves: each pair split
    through Q^(1/2) with Q = E_a + E_b, the form the factored step must
    reproduce. Eigenvalues of Q below 1e-12 count as 0: the root of a
    rounding-level eigenvalue (about 1e-8) would put errors near 1e-11
    into the reference itself when Q is rank-deficient."""

    def herm(x):
        return (x + x.conj().swapaxes(-1, -2)) / 2

    def dagger(x):
        return x.conj().swapaxes(-1, -2)

    povms = povms.copy()
    m = povms.shape[-3]
    for a in range(m):
        for b in range(a + 1, m):
            q = herm(povms[..., a, :, :] + povms[..., b, :, :])
            vals, vecs = np.linalg.eigh(q)
            root = (vecs * np.sqrt(np.where(vals > 1e-12, vals, 0.0))[..., None, :]) @ dagger(vecs)
            split = herm(root @ (rotated[..., a, :, :] - rotated[..., b, :, :]) @ root)
            vals, vecs = np.linalg.eigh(split)
            proj = (vecs * (vals > 0)[..., None, :]) @ dagger(vecs)
            povms[..., a, :, :] = herm(root @ proj @ root)
            povms[..., b, :, :] = q - povms[..., a, :, :]
    return povms


def random_factors(rng, shape, m, d):
    """Square factors of random full-rank POVMs, (*shape, m, d, d)."""
    raw = rng.normal(size=(*shape, m, d, d)) + 1j * rng.normal(size=(*shape, m, d, d))
    total = np.einsum("...aij,...akj->...ik", raw, raw.conj())
    vals, vecs = np.linalg.eigh(total)
    inverse_root = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return inverse_root[..., None, :, :] @ raw


def projective_factors(shape, m, d, zero=None):
    """Factors of a projective POVM: outcome a < m - 1 projects onto basis
    vector a, the last outcome onto the rest; `zero` names an outcome
    whose element is 0, its projector moved to the last outcome."""
    factors = np.zeros((*shape, m, d, d), dtype=complex)
    eye = np.eye(d)
    for a in range(m - 1):
        factors[..., a, a, a] = 1.0
    factors[..., m - 1, :, :] = eye - factors[..., : m - 1, :, :].sum(axis=-3)
    if zero is not None:
        factors[..., m - 1, :, :] += factors[..., zero, :, :]
        factors[..., zero, :, :] = 0.0
    return factors


@pytest.mark.parametrize(
    "m, d, kind",
    [(3, 3, "random"), (4, 4, "random"), (3, 4, "projective"), (4, 4, "projective"),
     (4, 4, "zero-element"), (3, 2, "zero-element")],
)
def test_factored_pair_step_matches_root_form(m, d, kind):
    rng = np.random.default_rng(m * 10 + d)
    shape = (3, 2)
    if kind == "random":
        factors = random_factors(rng, shape, m, d)
    else:
        factors = projective_factors(shape, m, d, zero=1 if kind == "zero-element" else None)
    raw = rng.normal(size=(*shape, m, d, d)) + 1j * rng.normal(size=(*shape, m, d, d))
    rotated = (raw + raw.conj().swapaxes(-1, -2)) / 2
    povms = factors @ factors.conj().swapaxes(-1, -2)
    new_povms, new_factors = seesaw_module._povm_update(rotated, factors)
    assert np.abs(new_povms - root_form_sweep(rotated, povms)).max() <= 1e-12
    assert np.abs(new_povms - new_factors @ new_factors.conj().swapaxes(-1, -2)).max() <= 1e-12
    # the sweep keeps every POVM normalised
    assert np.abs(new_povms.sum(axis=-3) - np.eye(d)).max() <= 1e-12


@pytest.mark.parametrize("d", [3, 4])
def test_seesaw_step_makes_one_qr_and_one_eigh_per_outcome_pair(linalg_calls, d):
    # a generic table with m = d outcomes; one step, then the stop at max_iters
    functional = random_hermitian_functional(np.random.default_rng(100), 3, d, d)
    quantum_bound_seesaw(functional, restarts=1, max_iters=1)
    pairs = d * (d - 1) // 2
    assert linalg_calls == {"eigh": pairs + 1, "qr": pairs}


@pytest.mark.parametrize("d", [3, 4])
def test_rank_one_seesaw_step_makes_one_qr_per_outcome_pair_and_one_eigh(linalg_calls, d):
    # random tables (m = d outcomes) split their pairs in closed form: the
    # one eigensolve of the step is the state's
    quantum_bound_seesaw(random_functional(d, 0), restarts=1, max_iters=1)
    assert linalg_calls == {"eigh": 1, "qr": d * (d - 1) // 2}


def test_two_outcome_rank_one_table_keeps_the_eigensolved_projector(linalg_calls):
    # a random d = 2 table is rank-one with two outcomes: the measurement
    # step eigensolves R^1 - R^2 as for any table, then the state's eigh
    quantum_bound_seesaw(random_functional(2, 0), restarts=1, max_iters=1)
    assert linalg_calls == {"eigh": 2, "qr": 0}


def rank_one_pair_case(name, d=4):
    """(square factors G_a, G_b, phased difference phi (u_a - u_b), v) of
    one outcome pair of a rank-one table, the pair operator being
    herm(phi (u_a - u_b) v^dagger); the degenerate cases are those a
    random sign table meets: equal sign rows (u_a = u_b), v in the kernel
    of Q = E_a + E_b, and u_a - u_b parallel to v."""
    rng = np.random.default_rng(sum(map(ord, name)))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    diff = np.exp(0.4j) * (rng.normal(size=d) + 1j * rng.normal(size=d))
    factors = random_factors(rng, (), 3, d)[:2]  # two of three outcomes: Q < I
    if name == "equal-outcomes":
        diff = np.zeros(d, complex)
    elif name == "v-in-kernel":
        unit = v / np.linalg.norm(v)
        factors = np.stack([np.eye(d) - np.outer(unit, unit.conj())] * 2) / np.sqrt(2)
    elif name.startswith("parallel"):
        diff = {"positive": 0.3 + 0.8j, "negative": -0.3 + 0.8j, "negative-real": -2.0,
                "imaginary": 0.7j}[name.split("-", 1)[1]] * v
    return factors, diff, v


RANK_ONE_PAIR_CASES = ["random", "equal-outcomes", "v-in-kernel", "parallel-positive",
                       "parallel-negative", "parallel-negative-real", "parallel-imaginary"]


@pytest.mark.parametrize("name", RANK_ONE_PAIR_CASES)
def test_rank_one_pair_split_matches_the_eigensolved_split(name):
    """The closed-form split of one pair reaches the objective of the
    eigensolved split within 1e-12 of the pair's scale, and both its
    elements are positive semidefinite and sum to Q."""
    factors, diff, v = rank_one_pair_case(name)
    d = v.size
    r = np.linalg.qr(factors.conj().swapaxes(-1, -2).reshape(2 * d, d), mode="r")
    alpha, beta = r @ diff, r @ v
    pair = np.outer(diff, v.conj())
    pair = (pair + pair.conj().T) / 2  # R_a - R_b
    vals, vecs = np.linalg.eigh(r @ pair @ r.conj().T)
    eigensolved = (r.conj().T @ vecs) * (vals > 0)
    first, second = seesaw_module._rank_one_split(r, alpha, beta)
    scale = max(1.0, np.linalg.norm(diff) * np.linalg.norm(v))
    objective = np.trace(first @ first.conj().T @ pair).real
    assert objective == pytest.approx(
        np.trace(eigensolved @ eigensolved.conj().T @ pair).real, abs=1e-12 * scale
    )
    assert objective >= -1e-12 * scale
    elements = np.stack([first @ first.conj().T, second @ second.conj().T])
    assert np.linalg.eigvalsh(elements).min() >= -1e-12
    q = factors @ factors.conj().swapaxes(-1, -2)
    assert np.abs(elements.sum(axis=0) - q.sum(axis=0)).max() <= 1e-12


def test_rank_one_pair_split_sends_the_kernel_by_the_pairing_bit():
    """On full-rank pairs (Q = I, d = 4) the pair operator has one positive
    and one negative eigenvalue: the outcome that takes the kernel has rank
    3, the other rank 1, and the lowest mantissa bit of Re(beta^dagger
    alpha) picks a, when set, or b; both occur."""
    rng = np.random.default_rng(5)
    k, d = 200, 4
    alpha = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
    beta = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
    r = np.broadcast_to(np.eye(d, dtype=complex), (k, d, d))
    first, second = seesaw_module._rank_one_split(r, alpha, beta)
    ranks = [
        (np.linalg.eigvalsh(g @ g.conj().swapaxes(-1, -2)) > 1e-9).sum(axis=-1)
        for g in (first, second)
    ]
    to_a = (seesaw_module._dot(beta, alpha).real.view(np.int64) & 1).astype(bool)
    assert 0 < to_a.sum() < k
    assert (ranks[0] == np.where(to_a, 3, 1)).all()
    assert (ranks[1] == np.where(to_a, 1, 3)).all()


@pytest.mark.parametrize("m", [3, 4])
def test_rank_one_update_keeps_measurements_on_degenerate_tables(m):
    """A whole rank-one update over pairs with equal outcomes, differences
    parallel to v and v in the kernel of a pair's Q: every POVM stays
    positive semidefinite, sums to I, matches its factors, and the
    objective does not fall."""
    d = 4
    rng = np.random.default_rng(m)
    v = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
    phased = rng.normal(size=(5, m, d)) + 1j * rng.normal(size=(5, m, d))
    phased[0, 1] = phased[0, 0]  # equal sign rows
    phased[1, 1] = phased[1, 0] - 2.0 * v[1]  # alpha = -2 beta
    phased[2, 1] = phased[2, 0] + (0.3 + 0.8j) * v[2]
    phased[3] = v[3] * np.arange(1, m + 1)[:, None]  # every operator parallel to v
    v[4] = 0.0
    v[4, 0] = 1.0  # the first outcome of every pair holds only e_0
    factors = projective_factors((5,), m, d)
    vectors = np.concatenate((phased, v[:, None]), axis=1)
    povms, new_factors = seesaw_module._povm_update(vectors, factors)
    assert np.abs(povms.sum(axis=-3) - np.eye(d)).max() <= 1e-12
    assert np.linalg.eigvalsh(povms).min() >= -1e-12
    assert np.abs(povms - new_factors @ new_factors.conj().swapaxes(-1, -2)).max() <= 1e-12
    rotated = phased[..., :, None] * v.conj()[:, None, None, :]
    rotated = (rotated + rotated.conj().swapaxes(-1, -2)) / 2
    before = np.einsum("kaij,kaji->k", factors @ factors.conj().swapaxes(-1, -2), rotated)
    after = np.einsum("kaij,kaji->k", povms, rotated)
    assert (after.real >= before.real - 1e-12).all()


def test_seesaw_measurement_check_names_restart_and_setting():
    eye = np.eye(2, dtype=complex)
    povms = np.broadcast_to(eye / 2, (3, 2, 2, 2, 2)).copy()
    seesaw_module._require_measurements(povms, first=5)
    povms[1, 1, 0] = np.diag([1.0, -1e-6])
    povms[1, 1, 1] = eye - povms[1, 1, 0]
    with pytest.raises(BoundCheckError, match="restart 6, setting 1"):
        seesaw_module._require_measurements(povms, first=5)
    povms = np.broadcast_to(eye / 2, (3, 2, 2, 2, 2)).copy()
    povms[2, 0, 1] *= 1 + 1e-6
    with pytest.raises(BoundCheckError, match="restart 7, setting 0"):
        seesaw_module._require_measurements(povms, first=5)


def test_seesaw_rejects_measurements_that_drift(monkeypatch):
    update = seesaw_module._povm_update

    def drifting(rotated, factors):
        povms, factors = update(rotated, factors)
        return povms * (1 + 1e-6), factors

    monkeypatch.setattr(seesaw_module, "_povm_update", drifting)
    with pytest.raises(BoundCheckError, match="see-saw restart 0, setting 0"):
        quantum_bound_seesaw(random_functional(3, 0), restarts=2, max_iters=3)


def test_seesaw_never_exceeds_quantum_value():
    for functional, target in (
        (mub_functional(build_mub_family(2, 3)), 3.0),
        (clifford_functional(build_clifford_family(2)), 1.0),
    ):
        result = quantum_bound_seesaw(functional, restarts=4, max_iters=200, seed=9)
        assert result.value <= target + 1e-7


# ---------------------------------------------------------------------------
# violation reports


def test_violation_mub_qubit():
    report = violation(mub_functional(build_mub_family(2, 3)))
    assert report.violation == pytest.approx(6 / (3 + np.sqrt(3)), abs=1e-9)
    assert report.s_q == 3.0
    assert not report.failed
    assert report.violation == pytest.approx(report.s_q / report.s_lhs_exact, abs=1e-12)


def test_violation_clifford_eight():
    report = violation(clifford_functional(build_clifford_family(8)))
    assert report.violation == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert report.violation_lower_bounds["clifford"] == pytest.approx(2.0, abs=1e-12)
    assert not report.failed


def test_violation_dichotomic_nine():
    report = violation(dichotomic_functional(build_clifford_family(9)))
    assert report.violation == pytest.approx(3.0, abs=1e-9)
    assert report.violation >= np.sqrt(9 / 2)


def test_violation_rejects_zero_lhs_bound():
    functional = SteeringFunctional.from_table(np.zeros((2, 2, 2, 2)))
    with pytest.raises(PreconditionError, match="S_LHS is 0"):
        violation(functional)


def test_violation_random_uses_seesaw():
    report = violation(random_functional(2, 7), seesaw_restarts=5)
    assert report.s_q_method == "seesaw-lower"
    assert report.s_lhs_exact > 0


def test_violation_floors_the_seesaw_at_the_lhs_bound():
    # every LHS assemblage is quantum, so S_Q >= S_LHS; the default see-saw
    # on random d = 4 seed 0 ends about 1e-11 below S_LHS
    functional = random_functional(4, 0)
    seesaw = seesaw_module.quantum_bound_seesaw(functional)
    report = violation(functional)
    assert seesaw.value < report.s_lhs_exact
    assert (report.s_q, report.s_q_method) == (report.s_lhs_exact, "lhs-lower")
    assert report.violation >= 1


@functools.cache
def unscaled_seesaw(d, seed):
    """(violation report, see-saw value) of random table (d, seed)."""
    table = random_functional(d, seed)
    return violation(table), seesaw_module.quantum_bound_seesaw(table).value


@pytest.mark.parametrize("factor", [1e-300, 1e-160, 1e-20, 1e20, 1e200])
def test_violation_reads_a_scaled_table_as_the_table(factor):
    # the see-saw runs on the table times the power of two that brings its
    # scale into [1, 2): its absolute stop, the rank-one split's squared
    # norms and the eigensolves then see the numbers of a scale near 1
    for d, seed in ((4, 0), (3, 3)):
        reference, value = unscaled_seesaw(d, seed)
        table = random_functional(d, seed).coefficients * factor
        report = violation(SteeringFunctional.from_table(table, kind="custom"))
        assert report.s_q_method == reference.s_q_method
        assert report.violation == pytest.approx(reference.violation, rel=1e-9, abs=0)
        seesaw = seesaw_module.quantum_bound_seesaw(SteeringFunctional.from_table(table))
        assert seesaw.trace[-1] == seesaw.value
        assert seesaw.value == pytest.approx(value * factor, rel=1e-9, abs=0)


def plus_minus_custom(ops):
    """The custom-labelled +- table of the (n, d, d) stack B_x."""
    return SteeringFunctional.from_table(np.stack([ops, -ops], axis=1), kind="custom")


def proven_squares_tables():
    """(id, custom +- table whose squares B_x^2 = c_x^2 I hold exactly, its
    S_Q = sum_x c_x): both anticommuting kinds relabelled, the commuting
    diagonal Z I, I Z, Z Z, and all 15 two-qubit Pauli strings."""
    for name, build, n, s_q in (
        ("dichotomic-12", dichotomic_functional, 12, 12.0),
        ("clifford-5", clifford_functional, 5, 2.5),
    ):
        table = build(build_clifford_family(n)).coefficients
        yield name, SteeringFunctional.from_table(table, kind="custom"), s_q
    diagonal = [_pauli_string(letters) for letters in ((3, 0), (0, 3), (3, 3))]
    yield "commuting-diagonal", plus_minus_custom(np.stack(diagonal)), 3.0
    strings = [_pauli_string(s) for s in itertools.product(range(4), repeat=2) if any(s)]
    yield "pauli-15", plus_minus_custom(np.stack(strings)), 15.0


@pytest.mark.parametrize("name, functional, s_q", list(proven_squares_tables()))
def test_violation_takes_s_q_from_proven_squares_without_the_seesaw(
    monkeypatch, name, functional, s_q
):
    def no_seesaw(*args, **kwargs):
        raise AssertionError("the see-saw ran on a table with proven squares")

    monkeypatch.setattr(bounds_module, "quantum_bound_seesaw", no_seesaw)
    report = violation(functional)
    assert (report.s_q, report.s_q_method, report.certificates) == (s_q, "analytic", ())
    assert not any(key.startswith("seesaw") for key in report.diagnostics)
    assert quantum_bound(functional) == s_q  # one rule for both
    if name == "commuting-diagonal":  # S_LHS = S_Q = 3: the table cannot steer
        assert report.violation == 1.0


DENSE_PAIR = np.array([[[3, 4], [4, -3]], [[4, -3], [-3, -4]]], dtype=complex)


SQUARE_FACTORS = [("dichotomic-4", f) for f in (1e150, 1e155, 1e160, 1e-150, 1.234e-160, 1e-170)]
SQUARE_FACTORS += [("dense-pair", f) for f in (1e-160, 1e-165)]


@pytest.mark.parametrize(
    "ops, factor",
    SQUARE_FACTORS,
    ids=[str(f) if ops == "dichotomic-4" else f"{ops}-{f}" for ops, f in SQUARE_FACTORS],
)
def test_proven_squares_are_finite(ops, factor):
    # c_x^2 = factor^2 (25 factor^2 for the anticommuting dense pair)
    # overflows above about 1.3e154 and leaves the normal floats below
    # about 1.5e-154. A square out of that range proves nothing: an
    # overflowed one is infinite, an underflowed one holds B_x^2 = c_x^2 I
    # only after rounding. The table is enumerated and see-sawed instead
    if ops == "dense-pair":
        functional = plus_minus_custom(DENSE_PAIR * factor)
    else:
        table = dichotomic_functional(build_clifford_family(4)).coefficients * factor
        functional = SteeringFunctional.from_table(table, kind="custom")
    report = violation(functional)
    if 1e-154 < factor < 1e154:
        assert (report.diagnostics["lhs_method"], report.s_q_method) == (
            "anticommuting",
            "analytic",
        )
        assert report.s_q == pytest.approx(4 * factor, rel=1e-15)
    else:
        assert (report.diagnostics["lhs_method"], report.s_q_method) == (
            "complement-half",
            "seesaw-lower",
        )
        assert math.isfinite(report.s_q)
        assert report.s_lhs_exact == strategy_norms(functional).max()


def test_one_setting_with_an_overflowing_square_is_enumerated():
    # no pair product overflows to hide the infinite square: the one
    # strategy of the a_0 = 0 half is solved
    table = dichotomic_functional(build_clifford_family(1)).coefficients * 1e160
    report = violation(SteeringFunctional.from_table(table, kind="custom"))
    assert report.diagnostics["lhs_method"] == "complement-half"
    assert report.diagnostics["strategies_solved"] == 1
    assert report.s_lhs_exact == pytest.approx(1e160, rel=1e-15)


def test_steering_witness_strict_gap():
    for d, n in ((2, 2), (2, 3), (3, 2), (3, 4)):
        report = violation(mub_functional(build_mub_family(d, n)))
        assert report.s_q > report.s_lhs_exact
    for n in (2, 3, 4):
        report = violation(clifford_functional(build_clifford_family(n)))
        assert report.s_q > report.s_lhs_exact


def test_lhs_convexity_reduction_sampling():
    # stochastic response tables never beat the deterministic-strategy
    # oracle: single-hidden-variable values are max |eig| of sum_xa p(a|x) F_x^a
    rng = np.random.default_rng(44)
    for _ in range(5):
        functional = random_hermitian_functional(rng, 2, 2, 2)
        oracle = lhs_bound(functional).value
        for _ in range(200):
            p = rng.random((2, 2))
            p /= p.sum(axis=1, keepdims=True)
            blended = np.einsum("xa,xaij->ij", p, functional.coefficients)
            value = np.abs(np.linalg.eigvalsh(blended)).max()
            assert value <= oracle + 1e-9


# ---------------------------------------------------------------------------
# Gram identities


def test_gram_deterministic_table_one_entry_per_block():
    family = build_mub_family(3, 4)
    n, d = 4, 3
    p = np.zeros((n, d))
    p[:, 1] = 1.0  # deterministic response: outcome 1 for every setting
    gram = gram_matrix(family, p)
    for x in range(n):
        for y in range(n):
            block = gram[x * d : (x + 1) * d, y * d : (y + 1) * d]
            assert np.count_nonzero(np.abs(block) > 1e-12) == 1
            assert abs(block[1, 1]) > 1e-12


def test_gram_uniform_table_structure():
    family = build_mub_family(3, 4)
    n, d = 4, 3
    p = np.full((n, d), 1 / d)
    gram = gram_matrix(family, p)
    for x in range(n):
        block = gram[x * d : (x + 1) * d, x * d : (x + 1) * d]
        assert np.abs(block - np.eye(d) / d).max() <= 1e-12


def test_gram_entry_moduli_formula():
    rng = np.random.default_rng(45)
    family = build_mub_family(3, 4)
    n, d = 4, 3
    p = rng.random((n, d))
    p /= p.sum(axis=1, keepdims=True)
    gram = gram_matrix(family, p)
    for x, a, y, b in itertools.product(range(n), range(d), range(n), range(d)):
        base = 1.0 if (x == y and a == b) else (0.0 if x == y else 1 / np.sqrt(d))
        expected = base * np.sqrt(p[x, a] * p[y, b])
        assert abs(gram[x * d + a, y * d + b]) == pytest.approx(expected, abs=1e-12)


def test_gram_rejects_malformed_table():
    family = build_mub_family(2, 3)
    with pytest.raises(PreconditionError, match="sum to 1"):
        gram_matrix(family, np.full((3, 2), 0.7))
    with pytest.raises(PreconditionError, match="negative"):
        gram_matrix(family, np.array([[1.2, -0.2]] * 3))
    with pytest.raises(PreconditionError, match="shape"):
        gram_matrix(family, np.full((2, 2), 0.5))
    with pytest.raises(PreconditionError, match="NaN"):
        gram_matrix(family, np.array([[np.nan, 1.0]] * 3))


def test_gram_norm_identity_random_tables():
    rng = np.random.default_rng(46)
    for d, n in ((2, 3), (3, 4)):
        family = build_mub_family(d, n)
        for _ in range(100):
            p = rng.random((n, d))
            p /= p.sum(axis=1, keepdims=True)
            report = gram_norm_identity_check(family, p)
            assert report.deviation <= 1e-8
            assert report.scaled_norm <= report.scaled_bound + 1e-8
            assert report.scaled_bound_sharp <= report.scaled_bound + 1e-12
            assert report.passed


def test_gram_deterministic_table_relates_to_witness_norm():
    # with a 0/1 response table the weighted vectors are exactly the chosen
    # projector vectors, so the frame operator is the strategy operator and
    # the Gram norm matches its top eigenvalue
    family = build_mub_family(2, 3)
    functional = mub_functional(family)
    strategy = lhs_bound(functional).witness
    p = np.zeros((3, 2))
    for x, a in enumerate(strategy):
        p[x, a] = 1.0
    report = gram_norm_identity_check(family, p)
    assert report.frame_norm == pytest.approx(LHS_23, abs=1e-9)
    assert report.gram_norm == pytest.approx(LHS_23, abs=1e-9)


# ---------------------------------------------------------------------------
# fine-grained uncertainty


def test_fine_grained_qubit_triple_tight():
    family = build_mub_family(2, 3)
    bound = fine_grained_bound(2, 3)
    for strategy in itertools.product(range(2), repeat=3):
        xi = fine_grained_xi(family, strategy)
        assert xi == pytest.approx((3 + np.sqrt(3)) / 6, abs=1e-9)
    assert bound == pytest.approx((3 + np.sqrt(3)) / 6, abs=1e-12)


def test_fine_grained_single_basis():
    family = MubFamily(bases=build_mub_family(3, 4).bases[:1])
    assert fine_grained_xi(family, (2,)) == pytest.approx(1.0, abs=1e-12)


def test_fine_grained_exhaustive_qutrit():
    family = build_mub_family(3, 4)
    bound = fine_grained_bound(3, 4)
    assert bound == pytest.approx(2 / 3, abs=1e-12)
    values = [
        fine_grained_xi(family, strategy)
        for strategy in itertools.product(range(3), repeat=4)
    ]
    assert len(values) == 81
    assert max(values) <= bound + 1e-9


def test_fine_grained_validates_strategy():
    family = build_mub_family(2, 3)
    with pytest.raises(PreconditionError):
        fine_grained_xi(family, (0, 1))
    with pytest.raises(PreconditionError):
        fine_grained_xi(family, (0, 1, 2))
    with pytest.raises(PreconditionError, match="not integers"):
        fine_grained_xi(family, (0.9, 1.7, 0))


# ---------------------------------------------------------------------------
# report integrity


def test_report_to_dict_round_trips_fields():
    report = violation(mub_functional(build_mub_family(2, 3)))
    doc = report.to_dict()
    assert doc["s_lhs_exact"] == report.s_lhs_exact
    assert doc["s_lhs_witness"] == list(report.s_lhs_witness)
    assert doc["kind"] == "mub"
    assert {c["name"] for c in doc["certificates"]} == {
        c.name for c in report.certificates
    }
    assert "timings" in doc["diagnostics"]


def half_scale_clifford(n):
    """A clifford table with cells +-A_x/4: its canonical assemblage is
    valid but attains n/8, not the kind's n/2."""
    table = clifford_functional(build_clifford_family(n)).coefficients / 2
    return SteeringFunctional.from_table(table, kind="clifford")


def test_missed_attainment_is_a_failed_certificate():
    functional = half_scale_clifford(4)
    with pytest.raises(BoundCheckError, match="canonical assemblage attains 0.5"):
        quantum_bound(functional)
    with pytest.raises(
        BoundCheckError,
        match="certificates failed: canonical_attainment, violation_ge_clifford$",
    ):
        violation(functional, strict=True)
    report = violation(functional, strict=False)
    # the report carries what the table's canonical assemblage attains,
    # not the kind's n/2, and the violation computed from it
    assert (report.s_q, report.s_q_method) == (pytest.approx(0.5, abs=1e-12), "canonical-lower")
    assert report.s_lhs_exact == 0.5
    assert report.violation == report.s_q / report.s_lhs_exact
    failed = [c for c in report.certificates if not c.satisfied]
    assert [(c.name, c.value, c.bound) for c in failed] == [
        ("canonical_attainment", report.s_q, 2.0),
        ("violation_ge_clifford", report.violation, np.sqrt(2.0)),
    ]


def test_proven_tables_make_no_eigensolve(eigvalsh_matrices):
    # the closed-form LHS value and canonical positivity need no eigensolve,
    # and a +- table skips the psd probe: its cells B and -B are both
    # positive semidefinite only when B = 0
    for functional in (
        clifford_functional(build_clifford_family(7, full_dimension=True)),
        dichotomic_functional(build_clifford_family(12)),
        half_scale_clifford(4),
    ):
        eigvalsh_matrices.clear()
        report = violation(functional, strict=False)
        assert report.diagnostics["lhs_method"] == "anticommuting"
        assert eigvalsh_matrices == []


def positivity_tables():
    """Anticommuting +- tables under every kind; the last three fail the
    canonical assemblage's positivity."""
    dichotomic = dichotomic_functional(build_clifford_family(6)).coefficients
    return (
        clifford_functional(build_clifford_family(5)),
        clifford_functional(build_clifford_family(4, full_dimension=True)),
        dichotomic_functional(build_clifford_family(6)),
        half_scale_clifford(4),
        SteeringFunctional.from_table(dichotomic * 3, kind="clifford-dichotomic"),
        SteeringFunctional.from_table(dichotomic, kind="mub"),
        SteeringFunctional.from_table(dichotomic / 2, kind="mub"),
    )


def test_canonical_positivity_formula_matches_an_eigensolve():
    # (shift - scale max_x c_x)/d from the squares, against an eigensolve of
    # the same cells, for every kind; the last three tables fail positivity
    tables = positivity_tables()
    for i, functional in enumerate(tables):
        paper = paper_values(functional)
        squares = structure_module.proven_squares(functional)
        assert squares
        closed_form = quantum_module._canonical_check(functional, paper, squares)[0]
        eigensolved = quantum_module._canonical_check(functional, paper, None)[0]
        assert closed_form.min_eigenvalue == pytest.approx(eigensolved.min_eigenvalue, abs=1e-14)
        assert closed_form.failed == eigensolved.failed
        assert failure_message(closed_form.require) == failure_message(eigensolved.require)
        assert failure_message(lambda: canonical_quantum_assemblage(functional)) == (
            failure_message(eigensolved.require)
        )
        assert ("positivity" in closed_form.failed) == (i >= len(tables) - 3)


def canonical_members(functional):
    """(scale F_x^a + shift I)/d, built member by member."""
    paper = paper_values(functional)
    eye = np.eye(functional.d)
    return np.array(
        [
            [(paper.scale * cell + paper.shift * eye) / functional.d for cell in cells]
            for cells in functional.coefficients
        ]
    )


def attainment_tables():
    for d in (2, 3, 5, 7):
        yield mub_functional(build_mub_family(d, d + 1))
    for n in range(2, 10):
        yield clifford_functional(build_clifford_family(n))
        yield dichotomic_functional(build_clifford_family(n))
    for n in range(1, 7):
        yield clifford_functional(build_clifford_family(n, full_dimension=True))
        yield dichotomic_functional(build_clifford_family(n, full_dimension=True))
    # labels the tables lack: traces the shift reaches, and outcome sums
    # that depend on the setting
    mub23 = mub_functional(build_mub_family(2, 3)).coefficients
    yield SteeringFunctional.from_table(mub23, kind="clifford")
    yield SteeringFunctional.from_table(mub23, kind="clifford-dichotomic")
    mub34 = mub_functional(build_mub_family(3, 4)).coefficients.copy()
    mub34[1] *= 2
    yield SteeringFunctional.from_table(mub34, kind="mub")


def test_canonical_check_is_the_members_pairing_and_validation():
    # the value and the validity come from table sums; they must be what
    # the members themselves give
    failures = []
    for functional in attainment_tables():
        paper = paper_values(functional)
        squares = structure_module.proven_squares(functional)
        members = canonical_members(functional)
        expected = Assemblage(members=members).validate()
        for given in (squares, None):
            report, value, _ = quantum_module._canonical_check(functional, paper, given)
            assert abs(value - evaluate(functional, members)) <= 1e-12 * table_scale(functional)
            assert report.failed == expected.failed
            assert report.min_eigenvalue == pytest.approx(expected.min_eigenvalue, abs=1e-14)
            for name in ("no_signaling_deviation", "normalization_deviation"):
                assert getattr(report, name) == pytest.approx(getattr(expected, name), abs=1e-14)
        if expected.failed:
            failures.append(expected.failed)
        else:
            assert np.array_equal(canonical_quantum_assemblage(functional).members, members)
    assert failures == [("normalisation",), ("normalisation",), ("no-signalling",)]
    for functional in positivity_tables():
        paper = paper_values(functional)
        expected = Assemblage(members=canonical_members(functional)).validate()
        squares = structure_module.proven_squares(functional)
        for given in (squares, None):
            report = quantum_module._canonical_check(functional, paper, given)[0]
            assert report.failed == expected.failed
            assert failure_message(report.require) == failure_message(expected.require)
        assert failure_message(lambda: canonical_quantum_assemblage(functional)) == (
            failure_message(expected.require)
        )


def failure_message(call):
    """The PreconditionError message `call` raises, or None."""
    try:
        call()
    except PreconditionError as exc:
        return str(exc)
    return None


def test_proven_squares_certify_no_signalling_without_a_norm(monkeypatch, eigvalsh_matrices):
    """With the structure proof's squares every R_x = F_x^1 + F_x^2 is
    exactly 0: the deviation is 0.0 with no outcome sum, norm or
    eigensolve taken, and the rest of the report is the eigensolved one."""
    tables = [f for f in attainment_tables() if structure_module.proven_squares(f)]
    expected = [quantum_module._canonical_check(f, paper_values(f), None) for f in tables]

    def refuse(*args, **kwargs):
        raise AssertionError("a norm was taken")

    for name in ("norm", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    eigvalsh_matrices.clear()
    for functional, (eigensolved, value, _) in zip(tables, expected):
        squares = structure_module.proven_squares(functional)
        report, attained, eigs = quantum_module._canonical_check(
            functional, paper_values(functional), squares
        )
        assert report.no_signaling_deviation == 0.0 == eigensolved.no_signaling_deviation
        assert report.normalization_deviation == eigensolved.normalization_deviation
        assert report.failed == eigensolved.failed
        assert (attained, eigs) == (value, None)
    assert len(tables) == 28 and eigvalsh_matrices == []


def per_setting_no_signalling(functional, paper):
    """The no-signalling deviation as it was: one operator norm per setting."""
    table, d = functional.coefficients, functional.d
    first = table[0].sum(axis=0)
    return max(
        (operator_norm(paper.scale * (cells.sum(axis=0) - first) / d) for cells in table[1:]),
        default=0.0,
    )


def per_cell_psd_envelope(functional):
    """The PSD decision and envelope as SteeringFunctional.psd and the
    attainment once took them: per-cell eigensolves with the slack per
    unit of the largest entry modulus, then per-cell SVD norms."""
    c = functional.coefficients
    if not functional.hermitian:
        return None
    slack = TOLERANCES.hermiticity * float(np.abs(c).max())
    if not all(np.linalg.eigvalsh(cell)[0] >= -slack for cell in c.reshape(-1, c.shape[2], c.shape[3])):
        return None
    return float(np.linalg.norm(c, 2, axis=(2, 3)).max(axis=1).sum())


def test_batched_certificate_decides_as_the_per_cell_checks():
    """The canonical certificate's batched no-signalling norms are the
    per-setting ones bit for bit, and its PSD decision and envelope, read
    from the batched eigenvalues, are the per-cell eigvalsh and SVD ones."""
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    psd = np.einsum("xaij,xakj->xaik", raw, raw.conj())
    tables = [
        *attainment_tables(),
        *positivity_tables(),
        SteeringFunctional.from_table(psd / np.trace(psd.sum(axis=1), axis1=1, axis2=2)[0], kind="mub"),
        SteeringFunctional.from_table(psd - 1e-3 * np.eye(3), kind="mub"),
        SteeringFunctional.from_table(raw, kind="mub"),
    ]
    decisions = []
    for functional in tables:
        paper = paper_values(functional)
        report, _, eigs = quantum_module._canonical_check(functional, paper, None)
        assert report.no_signaling_deviation == per_setting_no_signalling(functional, paper)
        envelope, reference = quantum_module._psd_envelope(functional, eigs), per_cell_psd_envelope(functional)
        assert (envelope is None) == (reference is None)
        if envelope is not None:
            assert envelope == pytest.approx(reference, rel=1e-13)
        decisions.append(envelope is not None)
    assert 0 < sum(decisions) < len(decisions)


def test_quantum_value_above_the_psd_envelope_raises():
    # cells I/2: a valid canonical assemblage, but n = 3 settings of norm
    # 1/2 cannot reach the unbiased-basis value n
    functional = SteeringFunctional.from_table(np.full((3, 2, 2, 2), 0.0) + np.eye(2) / 2, kind="mub")
    with pytest.raises(BoundCheckError, match="quantum bound 3.0 exceeds the PSD envelope 1.5"):
        quantum_bound(functional)


def test_mub_label_on_a_plus_minus_table_does_not_fit(eigvalsh_matrices):
    table = dichotomic_functional(build_clifford_family(6)).coefficients
    with pytest.raises(
        BoundCheckError,
        match="kind 'mub' does not fit the table: its canonical assemblage fails positivity",
    ):
        quantum_bound(SteeringFunctional.from_table(table, kind="mub"))
    assert eigvalsh_matrices == []


def test_quantum_bound_takes_positivity_from_squares_without_anticommutation(
    eigvalsh_matrices,
):
    # dichotomic 6 with B_0 one ulp off anticommuting keeps its squares, so
    # quantum_bound reads the canonical positivity from them, as violation does
    near_miss = off_anticommuting(dichotomic_functional(build_clifford_family(6)))
    assert quantum_bound(near_miss) == 6.0
    assert eigvalsh_matrices == []


def test_canonical_assemblage_takes_positivity_from_the_squares(eigvalsh_matrices):
    functional = clifford_functional(build_clifford_family(7, full_dimension=True))
    members = canonical_quantum_assemblage(functional).members
    assert eigvalsh_matrices == []
    assert np.array_equal(members, canonical_members(functional))


def test_strict_violation_raises_on_forced_failure(monkeypatch):
    functional = mub_functional(build_mub_family(2, 3))
    monkeypatch.setattr(
        bounds_module,
        "paper_values",
        lambda f: PaperValues(
            s_q=3.0, scale=1.0, shift=0.0, lhs_upper={}, violation_lower={"impossible": 100.0}
        ),
    )
    with pytest.raises(BoundCheckError, match="impossible"):
        bounds_module.violation(functional, strict=True)
    report = bounds_module.violation(functional, strict=False)
    assert report.failed == ("violation_ge_impossible",)
