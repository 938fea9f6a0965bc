import dataclasses
import itertools

import numpy as np
import pytest

from steerbound import (
    TOLERANCES,
    BoundCheckError,
    EnumerationCapExceeded,
    MubFamily,
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
    lhs_bound_clifford_analytic,
    lhs_bound_mub_analytic,
    mub_functional,
    numerical_radius,
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
    assert result.value == pytest.approx(np.sqrt(n) / 2, abs=1e-10)
    # ties break to the first strategy at exact float equality
    first_max = int(np.argmax(norms))
    assert result.witness == tuple(int(a) for a in np.unravel_index(first_max, (2,) * n))


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


@pytest.fixture
def eigvalsh_matrices(monkeypatch):
    """Counts the matrices passed to numpy's batched eigvalsh."""
    counted = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return counted


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


def test_lhs_exact_independent_of_ambient_blas_threads():
    # d = 256 eigensolves differ in the last bits between one and two
    # OpenBLAS threads; the enumeration pins BLAS, so the caller's count
    # cannot reach the result
    functional = clifford_functional(build_clifford_family(8, full_dimension=True))
    results = []
    for count in (1, 2):
        with blas_threads(count):
            results.append(lhs_bound(functional))
    assert results[0] == results[1]
    assert results[0].value == pytest.approx(np.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# analytic bounds


def test_mub_analytic_values():
    assert lhs_bound_mub_analytic(2, 3, "uncertainty") == pytest.approx(LHS_23, abs=1e-12)
    assert lhs_bound_mub_analytic(5, 6, "gram") == pytest.approx(1 + 7 / np.sqrt(5), abs=1e-12)
    assert lhs_bound_mub_analytic(3, 4, "uncertainty") == pytest.approx(8 / 3, abs=1e-12)
    with pytest.raises(PreconditionError):
        lhs_bound_mub_analytic(3, 4, "bogus")


def test_clifford_analytic_values():
    assert lhs_bound_clifford_analytic(8) == pytest.approx(2.0, abs=1e-12)
    assert lhs_bound_clifford_analytic(2, dichotomic=True) == pytest.approx(2.0, abs=1e-12)
    exact = lhs_bound(clifford_functional(build_clifford_family(1))).value
    assert exact == pytest.approx(0.5, abs=1e-12)
    assert exact <= lhs_bound_clifford_analytic(1)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 6)])
def test_exact_below_both_mub_bounds(d, n):
    functional = mub_functional(build_mub_family(d, n))
    exact = lhs_bound(functional).value
    assert exact <= lhs_bound_mub_analytic(d, n, "gram") + 1e-9
    assert exact <= lhs_bound_mub_analytic(d, n, "uncertainty") + 1e-9


# ---------------------------------------------------------------------------
# quantum bounds


def test_quantum_bound_values():
    assert quantum_bound(mub_functional(build_mub_family(3, 4))).value == 4.0
    assert quantum_bound(clifford_functional(build_clifford_family(6))).value == 3.0
    dicho = dichotomic_functional(build_clifford_family(5))
    assert quantum_bound(dicho).value == 5.0


def test_quantum_bound_canonical_method():
    functional = mub_functional(build_mub_family(2, 3))
    result = quantum_bound(functional, method="canonical")
    assert result.method == "canonical"
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
            block = gram.matrix[x * d : (x + 1) * d, y * d : (y + 1) * d]
            assert np.count_nonzero(np.abs(block) > 1e-12) == 1
            assert abs(block[1, 1]) > 1e-12


def test_gram_uniform_table_structure():
    family = build_mub_family(3, 4)
    n, d = 4, 3
    p = np.full((n, d), 1 / d)
    gram = gram_matrix(family, p)
    for x in range(n):
        block = gram.matrix[x * d : (x + 1) * d, x * d : (x + 1) * d]
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
        assert abs(gram.matrix[x * d + a, y * d + b]) == pytest.approx(expected, abs=1e-12)


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
        "applicable_violation_lower_bounds",
        lambda f: {"impossible": 100.0},
    )
    with pytest.raises(BoundCheckError, match="impossible"):
        bounds_module.violation(functional, strict=True)
    report = bounds_module.violation(functional, strict=False)
    assert not report.all_certificates_pass
