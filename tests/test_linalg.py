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
)
from steerbound import TOLERANCES, linalg
from steerbound.linalg import _openblas, blas_threads

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def tensor(a, b) -> np.ndarray:
    """Kronecker product. Satisfies (a(x)b)(c(x)d) = ac (x) bd."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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
        assert numerical_radius(np.outer(u, v.conj())) == pytest.approx(exact, abs=1e-7)


def test_numerical_radius_sandwich_bounds():
    rng = np.random.default_rng(19)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        norm = operator_norm(m)
        radius = numerical_radius(m)
        assert radius >= norm / 2 - 1e-7
        assert radius <= norm + 1e-9


def bound_stacks():
    """(id, (k, d, d) stack) for the certified upper bounds."""
    rng = np.random.default_rng(20)

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    raw = complex_normal(40, 5, 5)
    hermitian = raw + raw.conj().swapaxes(1, 2)
    yield "random Hermitian", hermitian
    # Tr H^4 near 1e-240, still far above underflow
    yield "small Hermitian", 1e-60 * hermitian
    # below the 2^-225 floor: Tr H^4 would underflow, so both bounds are inf
    yield "tiny Hermitian", 1e-90 * hermitian
    # eigvalsh reads the lower triangle, 1e-11 away from the upper one
    yield "nearly Hermitian", hermitian + 1e-11 * np.tril(complex_normal(40, 5, 5), -1)
    # a nilpotent lower triangle squares to 0, but eigvalsh reads 1e-11
    yield "lower triangle only", 1e-11 * np.tril(complex_normal(40, 5, 5), -1)
    yield "non-Hermitian", complex_normal(40, 5, 5)
    yield "zero", np.zeros((3, 4, 4), dtype=complex)
    u, v = complex_normal(40, 6, 2), complex_normal(40, 6, 2)
    yield "rank two", u @ v.conj().swapaxes(1, 2)
    yield "rank two, Hermitian", u @ u.conj().swapaxes(1, 2)
    yield "rank one, Hermitian", u[..., :1] @ u[..., :1].conj().swapaxes(1, 2)


@pytest.mark.parametrize("name, stack", list(bound_stacks()))
def test_upper_bounds_cover_the_computed_values(name, stack):
    hermitian_bound = linalg.hermitian_norm_upper_bounds(stack)
    radius_bound = linalg.numerical_radius_bounds(stack, np.inf)[1]
    if name in ("zero", "tiny Hermitian"):
        assert (hermitian_bound == np.inf).all() and (radius_bound == np.inf).all()
        return
    eigs = np.linalg.eigvalsh(stack)
    top = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
    # (Tr H^4)^(1/4) is the norm itself on rank-one Hermitian matrices, so
    # there rounding may put either an ulp above the other: the pruning
    # slack absorbs exactly this
    tight = name == "rank one, Hermitian"
    floor = top * (1 - TOLERANCES.strategy_pruning) if tight else top
    assert (hermitian_bound >= floor).all(), name
    assert (hermitian_bound <= top * stack.shape[-1] ** 0.25 * (1 + 1e-12)).all(), name
    radius = numerical_radius(stack)
    assert (radius_bound >= radius).all(), name
    assert (radius_bound <= radius / np.cos(np.pi / 16) * (1 + 1e-7)).all(), name


def pruning_bounds(stack):
    """The upper ends the LHS enumeration prunes with: the 16 phases alone."""
    return linalg.numerical_radius_bounds(stack, np.inf)[1]


def test_upper_bounds_of_a_stack_are_those_of_its_matrices():
    # blocks of the stack: 256 KiB / (16 bytes * 16 directions * 8 * 8) = 16 matrices
    rng = np.random.default_rng(21)
    stack = rng.normal(size=(37, 8, 8)) + 1j * rng.normal(size=(37, 8, 8))
    for bounds in (linalg.hermitian_norm_upper_bounds, pruning_bounds):
        whole = bounds(stack)
        assert np.array_equal(whole, np.concatenate([bounds(m[None]) for m in stack]))


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


def dense_support_values(m, phases=1 << 16):
    """h on `phases` equally spaced phases, in batches."""
    thetas = np.arange(phases) * (2 * np.pi / phases)
    return np.concatenate([
        np.linalg.eigvalsh(linalg.hermitian_part(np.exp(1j * t)[:, None, None] * m))[:, -1]
        for t in np.array_split(thetas, max(1, phases // 4096))
    ])


def assert_dense_grid_inside(m, lower, upper, phases=1 << 16):
    """The dense grid's largest support value lies below the upper end,
    and its own support-line bound, max h / cos(pi / phases), above the
    lower end: a grid may sit up to a relative 1e-9 below the radius,
    which the lower end is within 2^-40 of."""
    top = dense_support_values(m, phases).max()
    assert top <= upper
    assert lower <= top / np.cos(np.pi / phases) * (1 + 1e-15)


def test_numerical_radius_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(23)
    for d in range(1, 6):
        stack = rng.normal(size=(8, d, d)) + 1j * rng.normal(size=(8, d, d))
        stack[0] = 0
        stack[1] = random_hermitian(rng, d)
        stack[2] = np.triu(stack[2], 1)  # nilpotent
        stack[3] = np.outer(stack[3, 0], stack[4, 0].conj())  # rank one
        radii = numerical_radius(stack)
        single = [numerical_radius(m) for m in stack]
        assert radii.shape == (8,)
        assert all(type(r) is float for r in single)
        assert np.array_equal(radii, single)
        lower, upper = linalg.numerical_radius_bounds(stack, linalg.RADIUS_RTOL)
        for j, m in enumerate(stack):
            ends = linalg.numerical_radius_bounds(m[None], linalg.RADIUS_RTOL)
            assert (lower[j], upper[j]) == (ends[0][0], ends[1][0])
        assert np.array_equal(radii, lower)
        assert_dense_grid_inside(stack[5], lower[5], upper[5], phases=1 << 12)
    # more (matrix, phase) pairs than one block of support values holds
    stack = rng.normal(size=(37, 8, 8)) + 1j * rng.normal(size=(37, 8, 8))
    assert stack.shape[0] * 16 > linalg._GRID_BLOCK_BYTES // (16 * 8 * 8)
    assert np.array_equal(numerical_radius(stack), [numerical_radius(m) for m in stack])
    assert numerical_radius(np.zeros((0, 3, 3))).shape == (0,)


def complex_stacks():
    """(id, seeded complex (k, d, d) stack) for the phase search."""
    rng = np.random.default_rng(24)
    for d in (1, 2, 3, 4, 6, 8):
        yield f"complex d={d}", rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))


@pytest.mark.parametrize("name, stack", list(bound_stacks()) + list(complex_stacks()))
def test_phase_search_brackets_the_radius(name, stack):
    lower, upper = linalg.numerical_radius_bounds(stack, linalg.RADIUS_RTOL)
    # none of these numerical ranges is a disc about 0, so each search closes
    finite = upper < np.inf
    assert finite.all() or name in ("zero", "tiny Hermitian")
    assert (lower[finite] <= upper[finite]).all(), name
    assert (upper - lower <= linalg.RADIUS_RTOL * upper)[finite].all(), name
    assert (lower <= linalg.numerical_radius_bounds(stack, np.inf)[1]).all(), name
    assert_dense_grid_inside(stack[0], lower[0], upper[0])


def test_phase_search_below_its_rounding_closes_to_twice_the_widening(eigvalsh_matrices):
    # at rtol 2^-52 the widening 16 d eps alone passes rtol lower, as it
    # does at 2^-40 for d > 258: the search closes to the rounding instead
    # of running to 1024 support values
    rng = np.random.default_rng(25)
    stack = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
    eigvalsh_matrices.clear()
    (lower,), (upper,) = linalg.numerical_radius_bounds(stack, 2.0**-52)
    assert upper - lower <= 2 * 16 * 4 * np.finfo(float).eps * lower
    assert sum(eigvalsh_matrices) < 256


@pytest.mark.parametrize("d", [1, 4])
def test_upper_end_is_widened_by_the_rounding_bound(d):
    # h(theta) = cos(theta) for the identity: h(0) = 1 exactly, so the
    # 16-phase upper end is 1 / cos(pi/16) plus 16 d eps, bit for bit
    (lower,), (upper,) = linalg.numerical_radius_bounds(np.eye(d)[None], np.inf)
    assert lower == 1.0
    assert upper == 1.0 / np.cos(np.pi / 16) + 16 * d * np.finfo(float).eps


def jordan_block(d):
    return np.eye(d, k=1, dtype=complex)


@pytest.mark.parametrize(
    "name, m, radius",
    [
        ("J2", jordan_block(2), 0.5),
        ("J3", jordan_block(3), np.cos(np.pi / 4)),
        ("e_0 w^T, w_0 = 0", np.outer(np.eye(4)[0], [0, 1, 2j, -1.5]), np.sqrt(7.25) / 2),
    ],
)
def test_flat_support_values_stop_at_the_budget(name, m, radius):
    # a disc about 0 has h(theta) = radius at every phase: no interval
    # closes, so the search halves all of them until its 1024th support
    # value, 16 * 2^6 phases, interval half-width pi / 1024
    (lower,), (upper,) = linalg.numerical_radius_bounds(m[None], linalg.RADIUS_RTOL)
    assert lower == pytest.approx(radius, rel=8 * np.finfo(float).eps, abs=0)
    assert upper == pytest.approx(lower / np.cos(np.pi / 1024), rel=1e-13, abs=0)
    assert upper - lower > 2**-20 * upper
    assert numerical_radius(m) == lower


def test_phase_search_splits_only_the_intervals_it_cannot_close(eigvalsh_matrices):
    # h(theta) = cos(theta) for m = [1]: only the two intervals at 0 stay
    # open past the first rounds, so closing them at 2^-40 takes far fewer
    # than the 1024 support values of a flat h
    (lower,), (upper,) = linalg.numerical_radius_bounds(np.ones((1, 1, 1)), linalg.RADIUS_RTOL)
    assert lower == 1.0 and upper - lower <= linalg.RADIUS_RTOL
    assert 16 < sum(eigvalsh_matrices) < 128
