import numpy as np
import pytest

from steerbound import (
    Assemblage,
    CliffordFamily,
    PreconditionError,
    SteeringFunctional,
    build_clifford_family,
    build_mub_family,
    canonical_quantum_assemblage,
    clifford_functional,
    dichotomic_functional,
    evaluate,
    mub_functional,
    random_functional,
)
from steerbound import serialize
from steerbound.serialize import functional_from_json, functional_to_json
from steerbound.tolerances import TOLERANCES

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def clifford_projectors(family: CliffordFamily) -> np.ndarray:
    """Spectral projectors P_x^1 = (1 + A_x)/2, P_x^2 = (1 - A_x)/2."""
    eye = np.eye(family.dimension, dtype=complex)
    return np.stack([np.stack([(eye + a) / 2, (eye - a) / 2]) for a in family.observables])


def test_mub_functional_shape_and_traces():
    functional = mub_functional(build_mub_family(2, 3))
    assert (functional.n, functional.m, functional.d) == (3, 2, 2)
    assert functional.coefficients.shape == (3, 2, 2, 2)
    for x in range(3):
        for a in range(2):
            assert np.trace(functional.coefficients[x, a]) == pytest.approx(1.0, abs=1e-12)


def test_mub_functional_resolves_identity():
    functional = mub_functional(build_mub_family(3, 4))
    for x in range(4):
        total = functional.coefficients[x].sum(axis=0)
        assert np.abs(total - np.eye(3)).max() <= 1e-10


def test_mub_functional_flags():
    functional = mub_functional(build_mub_family(5, 6))
    assert functional.hermitian
    assert functional.psd


def test_clifford_functional_single_observable():
    functional = clifford_functional(build_clifford_family(1))
    assert np.array_equal(functional.coefficients[0, 0], SIGMA_X / 2)


def test_clifford_functional_sign_symmetry():
    functional = clifford_functional(build_clifford_family(4))
    assert not functional.psd
    assert functional.hermitian
    total = functional.coefficients[:, 0] + functional.coefficients[:, 1]
    assert np.abs(total).max() == 0.0


def test_clifford_functional_is_shifted_projector_table():
    family = build_clifford_family(3)
    functional = clifford_functional(family)
    projectors = clifford_projectors(family)
    eye = np.eye(family.dimension)
    for x in range(3):
        for a in range(2):
            assert np.abs(functional.coefficients[x, a] - (projectors[x, a] - eye / 2)).max() <= 1e-15
            # spectral projector sanity: P^2 = P, P1 + P2 = 1
            p = projectors[x, a]
            assert np.abs(p @ p - p).max() <= 1e-12
        assert np.abs(projectors[x].sum(axis=0) - eye).max() <= 1e-15


def test_functionals_of_a_family_with_integer_observables():
    # sigma_x and sigma_z as integer arrays
    observables = np.array([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])
    family = CliffordFamily(qubits=1, observables=observables)
    table = np.stack((observables, -observables), axis=1).astype(complex)
    for make, expected in ((clifford_functional, table / 2), (dichotomic_functional, table)):
        functional = make(family)
        assert functional.coefficients.dtype == complex
        assert np.array_equal(functional.coefficients, expected)


def test_dichotomic_functional_observables():
    family = build_clifford_family(3)
    functional = dichotomic_functional(family)
    assert functional.kind == "clifford-dichotomic"
    assert (functional.n, functional.m, functional.d) == (3, 2, family.dimension)
    assert np.array_equal(functional.coefficients[:, 0], family.observables)
    assert np.array_equal(functional.coefficients[:, 1], -family.observables)
    projectors = clifford_projectors(family)
    for x in range(3):
        assert np.trace(functional.coefficients[x, 0]) == pytest.approx(0.0, abs=1e-12)
        rebuilt = projectors[x, 0] - projectors[x, 1]
        assert np.abs(functional.coefficients[x, 0] - rebuilt).max() <= 1e-15


def test_dichotomic_functional_pairs_difference_assemblages():
    # the table's pairing is Tr(sum_x A_x (sigma_x^1 - sigma_x^2))
    family = build_clifford_family(2)
    functional = dichotomic_functional(family)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    members = raw + raw.conj().transpose(0, 1, 3, 2)
    expected = sum(
        np.trace(a @ (members[x, 0] - members[x, 1])).real
        for x, a in enumerate(family.observables)
    )
    assert evaluate(functional, members) == pytest.approx(expected, abs=1e-12)


def test_random_functional_shape():
    functional = random_functional(3, 42)
    assert (functional.n, functional.m, functional.d) == (3, 3, 3)
    assert not functional.hermitian
    table = functional.coefficients
    assert np.abs(table[:, :, 1:, :]).max() == 0.0
    assert np.allclose(np.abs(table[:, :, 0, :]), 1 / 3)


def test_random_functional_deterministic():
    a = random_functional(2, 7)
    b = random_functional(2, 7)
    assert np.array_equal(a.coefficients, b.coefficients)
    c = random_functional(2, 8)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_random_functional_dimension_validated():
    with pytest.raises(PreconditionError):
        random_functional(1, 0)


def test_evaluate_canonical_mub_attains_settings_count():
    for d, n in ((2, 3), (3, 4)):
        functional = mub_functional(build_mub_family(d, n))
        assert evaluate(functional, canonical_quantum_assemblage(functional)) == pytest.approx(
            n, abs=1e-9
        )


def test_evaluate_single_term_probe():
    functional = mub_functional(build_mub_family(2, 3))
    members = np.zeros_like(functional.coefficients)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    members[1, 0] = rho
    expected = np.trace(functional.coefficients[1, 0] @ rho).real
    assert evaluate(functional, members) == pytest.approx(expected, abs=1e-12)


def test_evaluate_canonical_clifford():
    functional = clifford_functional(build_clifford_family(4))
    assert evaluate(functional, canonical_quantum_assemblage(functional)) == pytest.approx(
        2.0, abs=1e-9
    )


def test_evaluate_bilinear():
    rng = np.random.default_rng(31)
    functional = mub_functional(build_mub_family(2, 3))
    base = canonical_quantum_assemblage(functional).members
    noise = rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape)
    other = noise + noise.conj().transpose(0, 1, 3, 2)  # Hermitian noise table
    alpha, beta = 0.37, -1.21
    scaled = SteeringFunctional.from_table(alpha * functional.coefficients, kind="custom")
    assert evaluate(scaled, base) == pytest.approx(alpha * evaluate(functional, base), abs=1e-9)
    mixed = evaluate(functional, base + beta * other)
    assert mixed == pytest.approx(
        evaluate(functional, base) + beta * evaluate(functional, other), abs=1e-9
    )


def test_evaluate_shape_mismatch_rejected():
    functional = mub_functional(build_mub_family(2, 3))
    with pytest.raises(PreconditionError, match="shape mismatch"):
        evaluate(functional, np.zeros((2, 2, 2, 2)))


def test_evaluate_hermitian_functional_rejects_imaginary_residue():
    functional = mub_functional(build_mub_family(2, 3))
    members = np.zeros_like(functional.coefficients)
    # non-Hermitian member paired with the complex sigma_y projector
    members[2, 0] = np.array([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError, match="imaginary residue"):
        evaluate(functional, members)


def test_evaluate_non_hermitian_warns_and_returns_complex():
    functional = random_functional(2, 5)
    members = np.zeros_like(functional.coefficients)
    members[0, 0] = np.array([[0.0, 0.0], [0.1j, 0.0]])
    with pytest.warns(RuntimeWarning, match="imaginary part"):
        value = evaluate(functional, members)
    assert isinstance(value, complex)


def test_canonical_assemblage_valid_and_no_signaling():
    for functional in (
        mub_functional(build_mub_family(3, 4)),
        clifford_functional(build_clifford_family(4)),
        dichotomic_functional(build_clifford_family(3)),
    ):
        assemblage = canonical_quantum_assemblage(functional)
        report = assemblage.validate()
        assert report.passed
        assert report.no_signaling_deviation <= 1e-12
        assert report.normalization_deviation <= 1e-12


def test_canonical_assemblage_unsupported_kind():
    with pytest.raises(PreconditionError, match="canonical"):
        canonical_quantum_assemblage(random_functional(2, 1))


def test_assemblage_validation_catches_defects():
    functional = mub_functional(build_mub_family(2, 3))
    good = canonical_quantum_assemblage(functional).members
    negative = good.copy()
    negative[0, 0] = negative[0, 0] - 0.1 * np.eye(2)
    assert Assemblage(members=negative).validate().min_eigenvalue < -1e-3
    signaling = good.copy()
    signaling[1, 0] = signaling[1, 0] + 0.05 * np.eye(2)
    report = Assemblage(members=signaling).validate()
    assert report.no_signaling_deviation > 1e-3
    assert not report.passed


def test_functional_flags_recomputed_not_trusted():
    table = np.zeros((1, 2, 2, 2), dtype=complex)
    table[0, 0] = np.array([[1, 0], [0, -1]])
    table[0, 1] = np.array([[0, 1], [1, 0]])
    functional = SteeringFunctional.from_table(table, kind="custom")
    assert functional.hermitian
    assert not functional.psd


def eager_psd(table) -> bool:
    """psd as from_table once computed it: Hermitian, and one batched
    eigensolve of every cell with no eigenvalue below the tolerance."""
    table = np.asarray(table)
    if np.abs(table - table.conj().transpose(0, 1, 3, 2)).max() > TOLERANCES.hermiticity:
        return False
    flat = table.reshape(-1, table.shape[2], table.shape[3])
    return float(np.linalg.eigvalsh(flat).min()) >= -TOLERANCES.hermiticity


def psd_cases():
    projector = np.array([[1, 0], [0, 0]], dtype=complex)
    custom = np.stack([np.stack([projector, np.eye(2) - projector])] * 2)
    return {
        "mub": mub_functional(build_mub_family(3, 4)).coefficients,
        "clifford": clifford_functional(build_clifford_family(4)).coefficients,
        "dichotomic": dichotomic_functional(build_clifford_family(5)).coefficients,
        "random": random_functional(3, 0).coefficients,
        "custom-psd": custom,
        "custom-psd-within-tolerance": custom - 5e-11 * np.eye(2),
        "custom-below-tolerance": custom - 5e-10 * np.eye(2),
    }


def test_from_table_makes_no_eigensolve(eigvalsh_matrices):
    tables = psd_cases()
    eigvalsh_matrices.clear()
    for table in tables.values():
        SteeringFunctional.from_table(table)
    assert eigvalsh_matrices == []


def test_psd_matches_the_eager_definition():
    expected = {
        "mub": True,
        "clifford": False,
        "dichotomic": False,
        "random": False,
        "custom-psd": True,
        "custom-psd-within-tolerance": True,
        "custom-below-tolerance": False,
    }
    for name, table in psd_cases().items():
        assert SteeringFunctional.from_table(table).psd is eager_psd(table) is expected[name], name


def test_psd_of_a_plus_minus_table_eigensolves_one_cell_once(eigvalsh_matrices):
    functional = dichotomic_functional(build_clifford_family(7, full_dimension=True))
    eigvalsh_matrices.clear()
    assert not functional.psd
    assert eigvalsh_matrices == [1]
    assert not functional.psd
    assert eigvalsh_matrices == [1]


def test_from_table_copies_and_the_package_adopts(monkeypatch):
    """from_table copies the caller's array; the loader and the builders
    hand theirs over, so each functional shares memory with the array it
    was built from. Every functional's coefficients are read-only."""
    table = np.arange(16, dtype=complex).reshape(2, 2, 2, 2)
    copied = SteeringFunctional.from_table(table)
    table[0, 0, 0, 0] = 99.0
    assert table.flags.writeable
    assert copied.coefficients[0, 0, 0, 0] == 0.0
    assert not np.shares_memory(table, copied.coefficients)
    assert not copied.coefficients.flags.writeable

    text = functional_to_json(random_functional(3, 2))
    built = {
        "mub": lambda: mub_functional(build_mub_family(3, 4)),
        "clifford": lambda: clifford_functional(build_clifford_family(4, full_dimension=True)),
        "dichotomic": lambda: dichotomic_functional(build_clifford_family(5)),
        "random": lambda: random_functional(3, 1),
        "loader": lambda: functional_from_json(text),
    }
    handed, loaded = [], []
    adopt, load = SteeringFunctional._adopt.__func__, serialize._load

    def recording_adopt(cls, table, *args, **kwargs):
        handed.append(table)
        return adopt(cls, table, *args, **kwargs)

    def recording_load(text):
        meta, stack = load(text)
        loaded.append(stack)
        return meta, stack

    def no_copy(*args, **kwargs):
        raise AssertionError("the table was copied by from_table")

    monkeypatch.setattr(SteeringFunctional, "_adopt", classmethod(recording_adopt))
    monkeypatch.setattr(SteeringFunctional, "from_table", classmethod(no_copy))
    monkeypatch.setattr(serialize, "_load", recording_load)
    for name, build in built.items():
        handed.clear()
        functional = build()
        assert len(handed) == 1, name
        assert np.shares_memory(handed[0], functional.coefficients), name
        assert not functional.coefficients.flags.writeable, name
    assert np.shares_memory(loaded[-1], functional.coefficients)


def test_exactly_hermitian_is_the_entrywise_comparison():
    """exactly_hermitian, read from the defect pass, decides as comparing
    every cell with its adjoint, on finite tables with signed zeros,
    subnormals and defects far below the tolerance."""
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
    hermitian = raw + raw.conj().swapaxes(2, 3)
    signed_zero = np.zeros((1, 2, 2, 2), complex)
    signed_zero[0, 0, 0, 1] = complex(-0.0, 0.0)
    signed_zero[0, 1, 1, 1] = complex(0.0, -0.0)
    cases = {
        "hermitian": hermitian,
        "off by a subnormal": hermitian + np.eye(4) * 5e-324j,
        "off by 1e-14": hermitian + 1e-14 * np.triu(np.ones((4, 4)), 1),
        "signed zeros": signed_zero,
        "complex diagonal": np.eye(2)[None, None] * (1 + 1e-300j),
        "random": random_functional(3, 0).coefficients,
    }
    for name, table in cases.items():
        functional = SteeringFunctional.from_table(table)
        cells = functional.coefficients.reshape(-1, functional.d, functional.d)
        expected = all(np.array_equal(cell, cell.conj().T) for cell in cells)
        assert functional.exactly_hermitian is expected, name
        assert not expected or functional.hermitian, name


@pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e-9, 1e-3, 1.0, 1e3])
def test_hermiticity_is_relative_to_the_largest_entry(scale):
    """Scaling a table changes none of its flags: a random sign table stays
    non-Hermitian however small, so its LHS bound stays the rank-one
    radius, and a Hermitian table off by 1e-12 of its largest entry stays
    Hermitian however large."""
    from steerbound import lhs_bound

    functional = SteeringFunctional.from_table(random_functional(3, 0).coefficients * scale)
    assert not functional.hermitian and not functional.exactly_hermitian
    result = lhs_bound(functional)
    assert result.method == "rank-one"
    assert result.value / scale == pytest.approx(1.2264831572567787, rel=1e-12)
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
    table = raw + raw.conj().swapaxes(2, 3)
    near = table + 1e-12 * np.abs(table).max() * np.triu(np.ones((3, 3)), 1)
    for cells, exact in ((table, True), (near, False)):
        functional = SteeringFunctional.from_table(cells * scale)
        assert functional.hermitian
        assert functional.exactly_hermitian is exact
