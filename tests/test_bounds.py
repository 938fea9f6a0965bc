import dataclasses
import itertools

import numpy as np
import pytest

from steerbound import (
    TOLERANCES,
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
    fine_grained_bound,
    fine_grained_xi,
    gram_matrix,
    gram_norm_identity_check,
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
from steerbound.linalg import blas_threads

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
    functional = mub_functional(build_mub_family(3, 4))
    with pytest.raises(EnumerationCapExceeded, match="81"):
        lhs_bound(functional, cap=80)


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
        got = lhs_bound(functional, angular_resolution=64).value
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
    import steerbound.bounds as bounds_module

    counted = []
    original = bounds_module.numerical_radius

    def counting(ms, *args, **kwargs):
        counted.append(int(np.prod(np.shape(ms)[:-2])))
        return original(ms, *args, **kwargs)

    monkeypatch.setattr(bounds_module, "numerical_radius", counting)
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
    assert result.method == "enumeration"
    assert sum(eigvalsh_matrices) == result.strategies_evaluated == 81
    assert abs(result.value - full_enumeration_norms(functional).max()) <= 1e-12


def test_random_table_with_an_entry_outside_row_zero_is_enumerated(radius_matrices):
    table = random_functional(3, 0).coefficients.copy()
    table[1, 2, 2, 1] = 1e-3
    functional = SteeringFunctional.from_table(table, kind="random")
    result = lhs_bound(functional)
    assert result.method == "enumeration"
    assert sum(radius_matrices) == result.strategies_evaluated == 27
    assert result.value == strategy_norms(functional).max()


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


def test_lhs_cap_applies_before_any_shortcut():
    functional = dichotomic_functional(build_clifford_family(4))
    with pytest.raises(EnumerationCapExceeded, match="16"):
        lhs_bound(functional, cap=15)


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
    assert quantum_bound(mub_functional(build_mub_family(3, 4))).value == 4.0
    assert quantum_bound(clifford_functional(build_clifford_family(6))).value == 3.0
    dicho = dichotomic_functional(build_clifford_family(5))
    assert quantum_bound(dicho).value == 5.0


def test_paper_values_reject_a_one_dimensional_mub_table():
    table = SteeringFunctional.from_table(np.ones((2, 1, 1, 1)), kind="mub")
    with pytest.raises(PreconditionError, match="invalid scenario d=1"):
        paper_values(table)


def test_quantum_bound_canonical_method():
    functional = mub_functional(build_mub_family(2, 3))
    result = quantum_bound(functional)
    assert result.canonical_value == pytest.approx(3.0, abs=1e-9)
    assert result.value == pytest.approx(3.0, abs=1e-9)


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
    import steerbound.bounds as bounds_module

    # a negative tolerance turns every step that does not rise by at least
    # 1.0 into a violation, so the per-step check must fire
    monkeypatch.setattr(
        bounds_module, "TOLERANCES", dataclasses.replace(TOLERANCES, seesaw_monotone=-1.0)
    )
    functional = mub_functional(build_mub_family(2, 3))
    with pytest.raises(BoundCheckError, match="see-saw objective fell"):
        quantum_bound_seesaw(functional, restarts=1, max_iters=50, seed=5)


def sequential_seesaw(f, restarts, max_iters, tol=1e-10, seed=0):
    """One restart, and within it one setting, at a time: the reference
    the batched see-saw must agree with. Returns (value, converged)."""

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

    n, m, d = f.n, f.m, f.d
    rng = np.random.default_rng(seed)
    coeffs_t = f.coefficients.transpose(0, 1, 3, 2)
    eye = np.eye(d, dtype=complex)
    best = None
    for _ in range(restarts):
        raw = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        state = (raw / np.linalg.norm(raw)).reshape(d, d)
        povms = np.broadcast_to(eye / m, (n, m, d, d)).copy()
        previous, converged = 0.0, False
        for it in range(max_iters):
            conditioned = np.einsum("pj,xajq,rq->xapr", state, coeffs_t, state.conj())
            value = complex(np.einsum("xaij,xaji->", povms, conditioned))
            phase = 1.0 if value == 0 else np.exp(-1j * np.angle(value))
            rotated = np.array([[herm(phase * c) for c in row] for row in conditioned])
            for x in range(n):
                if m == 2:
                    povms[x, 0] = positive_projector(rotated[x, 0] - rotated[x, 1])
                    povms[x, 1] = eye - povms[x, 0]
                else:
                    povms[x] = pairwise(rotated[x], povms[x])
            value = complex(np.einsum("xaij,xaji->", povms, conditioned))
            phase = 1.0 if value == 0 else np.exp(-1j * np.angle(value))
            assembled = sum(
                np.kron(povms[x, a], phase * f.coefficients[x, a])
                for x in range(n)
                for a in range(m)
            )
            vals, vecs = np.linalg.eigh(herm(assembled))
            state = vecs[:, -1].reshape(d, d)
            objective = float(vals[-1])
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
    ],
    ids=["random-2-capped", "random-2", "random-3", "mub-2-3", "clifford-3"],
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
    assert report.all_certificates_pass
    assert report.violation == pytest.approx(report.s_q / report.s_lhs_exact, abs=1e-12)


def test_violation_clifford_eight():
    report = violation(clifford_functional(build_clifford_family(8)))
    assert report.violation == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert report.violation_lower_bounds["clifford"] == pytest.approx(2.0, abs=1e-12)
    assert report.all_certificates_pass


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


def test_strict_violation_raises_on_forced_failure(monkeypatch):
    import steerbound.bounds as bounds_module

    functional = mub_functional(build_mub_family(2, 3))
    monkeypatch.setattr(
        bounds_module,
        "paper_values",
        lambda f: PaperValues(s_q=3.0, lhs_upper={}, violation_lower={"impossible": 100.0}),
    )
    with pytest.raises(BoundCheckError, match="impossible"):
        bounds_module.violation(functional, strict=True)
    report = bounds_module.violation(functional, strict=False)
    assert not report.all_certificates_pass
