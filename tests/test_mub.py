import numpy as np
import pytest

from steerbound import (
    MubFamily,
    PreconditionError,
    build_mub_family,
)
from steerbound.verify import verify_unbiasedness


def test_qubit_family_is_pauli_triple():
    family = build_mub_family(2, 3)
    z, x, y = family.bases
    assert np.allclose(z, np.eye(2))
    assert np.allclose(np.abs(x), 1 / np.sqrt(2))
    assert np.allclose(np.abs(y), 1 / np.sqrt(2))
    # eigenbasis checks: sigma_x and sigma_y diagonalized by their bases
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    for basis, op in ((x, sx), (y, sy)):
        for sign, v in zip((1, -1), basis):
            assert np.allclose(op @ v, sign * v)


def test_qubit_cross_overlaps():
    family = build_mub_family(2, 3)
    overlaps = []
    for x in range(3):
        for y in range(x + 1, 3):
            for a in range(2):
                for b in range(2):
                    overlaps.append(abs(family.bases[x, a].conj() @ family.bases[y, b]))
    assert len(overlaps) == 12
    assert np.allclose(overlaps, 1 / np.sqrt(2), atol=1e-12)


def test_qutrit_overlaps_exhaustive():
    family = build_mub_family(3, 4)
    count = 0
    for x in range(4):
        for y in range(x + 1, 4):
            cross = np.abs(family.bases[x].conj() @ family.bases[y].T)
            assert np.abs(cross - 1 / np.sqrt(3)).max() <= 1e-10
            count += cross.size
    assert count == 54


def test_composite_dimension_rejected():
    with pytest.raises(PreconditionError, match="composite"):
        build_mub_family(4, 5)


@pytest.mark.parametrize("d", [-3, 0, 1])
def test_dimension_below_two_is_not_prime_not_composite(d):
    with pytest.raises(PreconditionError, match=f"dimension {d} is not prime") as caught:
        build_mub_family(d, 2)
    assert "composite" not in str(caught.value)


def test_count_range_rejected():
    with pytest.raises(PreconditionError, match="range"):
        build_mub_family(5, 7)
    with pytest.raises(PreconditionError, match="range"):
        build_mub_family(5, 1)


def test_verify_built_family():
    report = verify_unbiasedness(build_mub_family(5, 6))
    assert report.orthonormality_deviation <= 1e-10
    assert report.unbiasedness_deviation <= 1e-10
    assert report.passed


def test_verify_flags_scaled_vector():
    family = build_mub_family(2, 3)
    bases = family.bases.copy()
    bases[1, 0] = 1.01 * bases[1, 0]
    report = verify_unbiasedness(MubFamily(bases=bases))
    assert report.orthonormality_deviation == pytest.approx(0.0201, abs=1e-12)
    assert not report.passed
    bases = family.bases.copy()
    bases[1, 0, 0] = np.nan
    assert not verify_unbiasedness(MubFamily(bases=bases)).passed


def test_verify_single_basis_vacuous():
    family = MubFamily(bases=build_mub_family(3, 4).bases[:1])
    report = verify_unbiasedness(family)
    assert report.unbiasedness_deviation == 0.0
    assert report.orthonormality_deviation <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_full_families_for_small_primes(d):
    family = build_mub_family(d, d + 1)
    assert family.count == d + 1
    assert verify_unbiasedness(family).passed


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_each_basis_resolves_identity(d):
    family = build_mub_family(d, d + 1)
    eye = np.eye(d)
    for x in range(family.count):
        total = sum(family.projector(x, a) for a in range(d))
        assert np.abs(total - eye).max() <= 1e-10


def test_leading_components_canonicalized():
    for d in (2, 3, 5):
        family = build_mub_family(d, d + 1)
        for x in range(family.count):
            for a in range(d):
                v = family.bases[x, a]
                lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
                assert abs(lead.imag) <= 1e-15
                assert lead.real > 0
