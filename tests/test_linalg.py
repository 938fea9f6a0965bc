import sys
import threading

import numpy as np
import pytest

from steerbound import (
    PreconditionError,
    build_clifford_family,
    build_mub_family,
    numerical_radius,
    operator_norm,
    tensor,
)
from steerbound import linalg
from steerbound.linalg import _openblas, blas_threads

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def test_square_matrix_required():
    # one check covers both a non-square matrix and an array of other rank
    for bad in (np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros(4)):
        with pytest.raises(PreconditionError, match="square matrix"):
            operator_norm(bad)
    # numerical_radius also takes a (k, d, d) stack of square matrices
    for bad in (np.zeros((2, 3)), np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 2)), np.zeros(4)):
        with pytest.raises(PreconditionError, match="square matrix"):
            numerical_radius(bad)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_projector():
    family = build_mub_family(3, 4)
    assert operator_norm(family.projector(2, 1)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_signed_anticommuting_sum():
    # (sum_x s_x A_x)^2 = n * I by anticommutation, checked by direct
    # multiplication, so the norm must be sqrt(n); eigensolver cross-check
    rng = np.random.default_rng(13)
    family = build_clifford_family(5)
    for _ in range(8):
        signs = rng.choice([-1.0, 1.0], size=family.count)
        combo = np.einsum("x,xij->ij", signs, family.observables)
        square = combo @ combo
        assert np.allclose(square, family.count * np.eye(family.dimension), atol=1e-12)
        norm = operator_norm(combo)
        assert norm == pytest.approx(np.sqrt(family.count), abs=1e-10)
        assert norm == pytest.approx(np.abs(np.linalg.eigvalsh(combo)).max(), abs=1e-12)


def test_operator_norm_matches_spectrum_on_random_hermitian():
    rng = np.random.default_rng(14)
    for _ in range(200):
        m = random_hermitian(rng, int(rng.integers(2, 33)))
        expected = np.abs(np.linalg.eigvalsh(m)).max()
        assert operator_norm(m) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_pauli_blocks():
    out = tensor(SIGMA_Z, SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = SIGMA_X
    expected[2:, 2:] = -SIGMA_X
    assert np.array_equal(out, expected)


def test_tensor_mixed_product_identity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        left = tensor(a, b) @ tensor(c, d)
        right = tensor(a @ c, b @ d)
        assert np.abs(left - right).max() <= 1e-12


def test_tensor_associativity():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a = rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
        b = rng.uniform(-1, 1, size=(3, 3)) + 1j * rng.uniform(-1, 1, size=(3, 3))
        c = rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
        assert np.abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))).max() <= 1e-12


def test_numerical_radius_hermitian_reduces_to_spectrum():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_hermitian(rng, int(rng.integers(2, 6)))
        expected = np.abs(np.linalg.eigvalsh(m)).max()
        assert numerical_radius(m) == pytest.approx(expected, abs=1e-12)


def test_numerical_radius_nilpotent():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert numerical_radius(m) == pytest.approx(0.5, abs=1e-9)
    # dense sweep oracle: top eigenvalue of the rotated Hermitian part is
    # 1/2 at every angle
    for theta in np.linspace(0, 2 * np.pi, 97):
        h = np.exp(1j * theta) * m
        h = (h + h.conj().T) / 2
        assert np.linalg.eigvalsh(h)[-1] == pytest.approx(0.5, abs=1e-12)


def test_numerical_radius_zero():
    assert numerical_radius(np.zeros((3, 3))) == 0.0


def test_numerical_radius_rank_one_oracle():
    # radius of the rank-one map u v* is (|<v,u>| + |u||v|)/2
    rng = np.random.default_rng(18)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        u = rng.normal(size=k) + 1j * rng.normal(size=k)
        v = rng.normal(size=k) + 1j * rng.normal(size=k)
        exact = (abs(v.conj() @ u) + np.linalg.norm(u) * np.linalg.norm(v)) / 2
        assert numerical_radius(np.outer(u, v.conj()), 720) == pytest.approx(exact, abs=1e-7)


def test_numerical_radius_sandwich_bounds():
    rng = np.random.default_rng(19)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        norm = operator_norm(m)
        radius = numerical_radius(m)
        assert radius >= norm / 2 - 1e-7
        assert radius <= norm + 1e-9


def test_numerical_radius_resolution_validated():
    with pytest.raises(PreconditionError, match="at least 8"):
        numerical_radius(np.eye(2), angular_resolution=4)


def test_blas_threads_sets_and_restores_count():
    calls = _openblas()
    if not calls:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get = calls[0]
    before = get()
    with blas_threads(1):
        assert get() == 1
        with blas_threads(2):
            assert get() == 2
        assert get() == 1
    assert get() == before
    with pytest.raises(RuntimeError, match="body failed"):
        with blas_threads(1):
            assert get() == 1
            raise RuntimeError("body failed")
    assert get() == before


def test_blas_threads_overlapping_bodies():
    # bodies on different threads need not leave in entry order: the most
    # recent body still running sets the count, the last one restores
    calls = _openblas()
    if not calls:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get = calls[0]
    before = get()
    outer, inner = blas_threads(2), blas_threads(1)
    outer.__enter__()
    inner.__enter__()
    assert get() == 1
    outer.__exit__(None, None, None)
    assert get() == 1
    inner.__exit__(None, None, None)
    assert get() == before


def test_blas_threads_concurrent_bodies_restore_ambient():
    calls = _openblas()
    if not calls:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get = calls[0]
    before = get()
    seen = []

    def work():
        for _ in range(2000):
            with blas_threads(1):
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8000 and set(seen) == {1}
    assert get() == before


def loop_numerical_radius(m, angular_resolution=720):
    """One matrix at a time, refining with one eigensolve per golden-section
    step: the reference a stack must reproduce bit for bit."""

    def top(theta):
        h = np.exp(1j * theta) * m
        return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[-1])

    m = np.asarray(m, dtype=complex)
    if not m.any():
        return 0.0
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    thetas = np.linspace(0.0, 2.0 * np.pi, angular_resolution, endpoint=False)
    rotated = np.exp(1j * thetas)[:, None, None] * m[None, :, :]
    rotated = (rotated + rotated.conj().transpose(0, 2, 1)) / 2
    grid_vals = np.linalg.eigvalsh(rotated)[:, -1]
    j = int(np.argmax(grid_vals))
    best = float(grid_vals[j])
    step = 2.0 * np.pi / angular_resolution
    a, b = thetas[j] - step, thetas[j] + step
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = top(c), top(d)
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = top(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = top(d)
        best = max(best, fc, fd)
    return best


def test_numerical_radius_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(23)
    for d in range(1, 6):
        stack = rng.normal(size=(8, d, d)) + 1j * rng.normal(size=(8, d, d))
        stack[0] = 0
        stack[1] = random_hermitian(rng, d)
        stack[2] = np.triu(stack[2], 1)  # nilpotent
        stack[3] = np.outer(stack[3, 0], stack[4, 0].conj())  # rank one
        for resolution in (8, 720):
            radii = numerical_radius(stack, resolution)
            single = [numerical_radius(m, resolution) for m in stack]
            assert radii.shape == (8,)
            assert all(type(r) is float for r in single)
            assert np.array_equal(radii, single)
            assert np.array_equal(radii, [loop_numerical_radius(m, resolution) for m in stack])
    # more matrices than one grid block holds
    stack = rng.normal(size=(13, 2, 2)) + 1j * rng.normal(size=(13, 2, 2))
    assert stack.shape[0] > linalg._GRID_BLOCK_BYTES // (16 * 720 * 2 * 2)
    assert np.array_equal(numerical_radius(stack), [loop_numerical_radius(m) for m in stack])
    assert numerical_radius(np.zeros((0, 3, 3))).shape == (0,)
