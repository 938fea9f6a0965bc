import hashlib
from functools import reduce

import numpy as np
import pytest

from steerbound import (
    CliffordFamily,
    PreconditionError,
    build_clifford_family,
)
from steerbound.cli import main
from steerbound.clifford import _chain
from steerbound.verify import verify_anticommutation

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_two_observables_single_qubit():
    family = build_clifford_family(2)
    assert family.qubits == 1
    assert np.array_equal(family.observables[0], SIGMA_X)
    assert np.array_equal(family.observables[1], SIGMA_Y)
    assert verify_anticommutation(family).passed


def test_three_observables_single_qubit():
    family = build_clifford_family(3)
    assert family.qubits == 1
    assert np.array_equal(family.observables[2], SIGMA_Z)


def test_five_observables_two_qubits():
    family = build_clifford_family(5)
    assert family.dimension == 4
    pairs = 0
    for x in range(5):
        for y in range(x + 1, 5):
            anti = family.observables[x] @ family.observables[y]
            anti = anti + family.observables[y] @ family.observables[x]
            assert np.abs(anti).max() <= 1e-12
            pairs += 1
    assert pairs == 10


@pytest.mark.parametrize("n", range(1, 10))
def test_built_families_verify(n):
    report = verify_anticommutation(build_clifford_family(n))
    assert report.max_deviation <= 1e-12
    assert report.passed


def test_verify_flags_repeated_observable():
    family = CliffordFamily(qubits=1, observables=np.stack([SIGMA_X, SIGMA_X]))
    report = verify_anticommutation(family)
    assert report.max_deviation == pytest.approx(2.0, abs=1e-15)
    assert not report.passed
    family = CliffordFamily(qubits=1, observables=np.stack([SIGMA_X, np.full((2, 2), np.nan)]))
    assert not verify_anticommutation(family).passed


def test_verify_single_observable_vacuous():
    family = CliffordFamily(qubits=1, observables=SIGMA_Z[None, :, :])
    assert verify_anticommutation(family).max_deviation == 0.0


def test_squared_combination_identity():
    rng = np.random.default_rng(21)
    family = build_clifford_family(7)
    eye = np.eye(family.dimension)
    for _ in range(50):
        c = rng.normal(size=family.count)
        combo = np.einsum("x,xij->ij", c, family.observables)
        assert np.abs(combo @ combo - (c @ c) * eye).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 8])
def test_spectrum_is_balanced_signs(n):
    family = build_clifford_family(n)
    half = family.dimension // 2
    for a in family.observables:
        vals = np.linalg.eigvalsh(a)
        assert np.allclose(vals[:half], -1, atol=1e-12)
        assert np.allclose(vals[half:], 1, atol=1e-12)


def test_full_dimension_flag():
    family = build_clifford_family(3, full_dimension=True)
    assert family.dimension == 8
    assert verify_anticommutation(family).passed


def test_full_dimension_cap():
    with pytest.raises(PreconditionError, match="8192"):
        build_clifford_family(13, full_dimension=True)


def test_compact_dimension_rule():
    # smallest m with 2m+1 >= n
    expected = {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 8, 7: 8, 8: 16, 12: 64}
    for n, dim in expected.items():
        assert build_clifford_family(n).dimension == dim


def kronecker_chain(m):
    """All 2m+1 chain observables on m qubits, as Kronecker products."""
    eye = np.eye(2, dtype=complex)
    ops = [
        reduce(np.kron, [SIGMA_Z] * (k - 1) + [pauli] + [eye] * (m - k))
        for k in range(1, m + 1)
        for pauli in (SIGMA_X, SIGMA_Y)
    ]
    return np.stack(ops + [reduce(np.kron, [SIGMA_Z] * m)])


@pytest.mark.parametrize("m", range(1, 9))
def test_index_arithmetic_chain_is_the_kronecker_chain(m):
    reference = kronecker_chain(m)
    for count in range(1, 2 * m + 2):
        assert np.array_equal(_chain(m, count), reference[:count])
    for n in range(1, 2 * m + 2):
        if max(1, n // 2) == m:
            assert np.array_equal(build_clifford_family(n).observables, reference[:n])
    assert np.array_equal(
        build_clifford_family(m, full_dimension=True).observables, reference[:m]
    )


# sha256 of the files written by the Kronecker-product construction
GENERATE_DIGESTS = {
    ("clifford", "8"): "d99592a48fe4692e6378d1f0eb8dfc0b6b95dcb8645af2f9a5f312fce10e6877",
    ("dichotomic", "12"): "78cd05e77217d93e70cc7de42748e7a9162ccabf82b170e7a9671c5443ec99a2",
    ("clifford", "7", "--full-dim"): (
        "8cea7157772b43981ecf59fdb2c1f5e93c89edd3764af801da6e7018530c03b9"
    ),
    ("dichotomic", "6", "--full-dim"): (
        "c33b34c1a557a66f73c8132a3b46629fa4978f4f4cb69868d3c94ad4f0c271ca"
    ),
}


@pytest.mark.parametrize("args", list(GENERATE_DIGESTS))
def test_generated_files_keep_their_bytes(tmp_path, args):
    out = tmp_path / "table.json"
    kind, n, *flags = args
    assert main(["generate", "--kind", kind, "--n", n, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_DIGESTS[args]
