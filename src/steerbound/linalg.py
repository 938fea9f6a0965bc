"""Dense complex linear algebra kernel.

Operators live in plain complex numpy arrays. Dimensions in scope stay at
or below 4096, so everything is dense. All functions are pure and never
mutate their inputs; values can be shared freely between threads.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import PreconditionError

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

_blas_lock = threading.Lock()
_blas_requests: dict[object, int] = {}  # active blas_threads bodies, oldest first
_blas_ambient = 0  # count to restore once no request is active


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count entry points of numpy's bundled OpenBLAS,
    bound on first use, or () when the library or its symbols are absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return ()


@contextmanager
def blas_threads(count: int):
    """Hold numpy's OpenBLAS at `count` threads for the body.

    The count is process-wide. While bodies overlap (nested, or on several
    threads) the most recently entered one that is still running sets it;
    when the last one leaves, the count found before the first is
    restored, also when a body raises. A no-op when numpy does not bundle
    OpenBLAS.
    """
    global _blas_ambient
    calls = _openblas()
    if not calls:
        yield
        return
    get, put = calls
    token = object()
    with _blas_lock:
        if not _blas_requests:
            _blas_ambient = get()
        _blas_requests[token] = count
        put(count)
    try:
        yield
    finally:
        with _blas_lock:
            del _blas_requests[token]
            put(next(reversed(_blas_requests.values()), _blas_ambient))


# bytes of the largest (n, m, d, d) complex table a builder makes: it
# admits full-dim clifford n <= 10, mub d <= 89 and random d <= 90
TABLE_BYTES_CAP = 1 << 30


def require_table_size(n: int, m: int, d: int) -> None:
    """Refuse an (n, m, d, d) complex table above TABLE_BYTES_CAP, before
    anything of it is allocated."""
    size = n * m * d * d * 16
    if size > TABLE_BYTES_CAP:
        raise PreconditionError(
            f"an ({n}, {m}, {d}, {d}) table needs {size} bytes, "
            f"above the cap of {TABLE_BYTES_CAP} bytes"
        )


def require_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_part(m) -> np.ndarray:
    """(m + m^dagger) / 2 of a square matrix, or of each one in a stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise PreconditionError(
            f"expected a square matrix or a stack of them, got shape {m.shape}"
        )
    return (m + m.conj().swapaxes(-1, -2)) / 2


def operator_norm(m) -> float:
    """Largest singular value; for Hermitian input, the largest |eigenvalue|."""
    m = require_square(m)
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def square_safe(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the stack with each member s * member, the (k,) s), one s per member
    of the leading axis, a power of two after which squares of its entries,
    and of sums of up to 2^100 of them, cannot overflow: 1 while every
    modulus of the member is below 2^400, else 2^-e, e the np.frexp
    exponent of its largest. The stack itself comes back when every s is 1.
    A norm of a scaled member, divided by its s, is the unscaled one bit
    for bit wherever that is finite: the scaling is exact down to 2^-1022
    of the member's largest modulus, below a norm's last bit."""
    _, e = np.frexp(np.abs(stack).max(axis=tuple(range(1, stack.ndim)), initial=0.0))
    big = e > 400
    scales = np.ldexp(1.0, -np.where(big, e, 0))
    if big.any():
        stack = stack.copy()
        stack[big] *= scales[big].reshape(-1, *(1,) * (stack.ndim - 1))
    return stack, scales


_GRID_BLOCK_BYTES = 1 << 18  # temporaries of one block, see _blocks
_SUPPORT_LINES = 16  # directions of numerical_radius_upper_bounds
_BOUND_FLOOR = 2.0**-225  # smaller upper bounds are inf, see hermitian_norm_upper_bounds


def _rotated_top_eigenvalues(ms: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the Hermitian part of e^{i theta} m, for the
    matrices of `ms` broadcast against the angles of `thetas`."""
    return np.linalg.eigvalsh(hermitian_part(np.exp(1j * thetas)[..., None, None] * ms))[..., -1]


def _blocks(ms: np.ndarray, per_matrix: int, itemsize: int = 16):
    """Consecutive slices of the (k, d, d) stack, each small enough that
    `per_matrix` d x d matrices of `itemsize`-byte entries (complex by
    default, 1 for a boolean mask) per member stay within 256 KiB (at
    least one matrix per slice)."""
    d = ms.shape[-1]
    block = max(1, _GRID_BLOCK_BYTES // (itemsize * per_matrix * d * d))
    for s in range(0, ms.shape[0], block):
        yield slice(s, s + block)


def _pair_blocks(n: int, d: int):
    """Consecutive (x0, x1) ranges of the settings 1..n-1 whose pairs (x,
    y), y < x, take eight (pairs, d) complex arrays within 256 KiB (at
    least one setting per range)."""
    budget, x0 = _GRID_BLOCK_BYTES // (128 * d), 1
    while x0 < n:
        x1, pairs = x0 + 1, x0
        while x1 < n and pairs + x1 <= budget:
            pairs, x1 = pairs + x1, x1 + 1
        yield x0, x1
        x0 = x1


def hermitian_norm_upper_bounds(ms, exact: bool = False) -> np.ndarray:
    """Upper bound on max |eigenvalue| as eigvalsh finds it, up to
    rounding, per matrix of a (k, d, d) stack: (Tr H^4)^(1/4) =
    ||H^2||_F^(1/2) of the Hermitian matrix H that eigvalsh reads, the
    lower triangle of m with its diagonal's real part. H equals m when m
    is exactly Hermitian; for a table Hermitian only within tolerance it
    is the matrix whose eigenvalues eigvalsh returns. A caller that knows
    the stack is exactly Hermitian, up to the rounding of its own sums,
    passes `exact`, and m is squared as it comes instead of H. One batched
    H @ H per block of the stack, whose temporary stacks together stay
    within 256 KiB. The bound exceeds the largest |eigenvalue| by at most
    d^(1/4); on rank-one matrices the two are equal, and either may come
    out an ulp above the other. It is inf or NaN, without a warning,
    where H^2 overflows, and inf where it is below 2^-225 (about 2e-68):
    there Tr H^4 is below 2^-900, near enough to underflow that any
    number of its bits may be gone. Above that floor, what underflow can
    drop is at most about d^2 2^-1022, far below the rounding."""
    ms = np.asarray(ms, dtype=complex)
    d = ms.shape[-1]
    # L + L^dagger = H exactly for L the strict lower triangle and half the diagonal
    weights = np.tril(np.ones((d, d))) - np.eye(d) / 2
    bounds = np.zeros(ms.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _blocks(ms, 4):  # L, its adjoint and H, then H and H^2
            if exact:
                h = ms[part]
            else:
                lower = ms[part] * weights
                h = lower + lower.conj().swapaxes(-1, -2)
                del lower
            square = (h @ h).reshape(h.shape[0], -1).view(np.float64)
            bounds[part] = np.sqrt(np.sqrt(np.einsum("ki,ki->k", square, square)))
    return np.where(bounds < _BOUND_FLOOR, np.inf, bounds)


def numerical_radius_upper_bounds(ms) -> np.ndarray:
    """Upper bound on the numerical radius, up to rounding, per matrix of
    a (k, d, d) stack, from 16 support lines (C. R. Johnson, SIAM J. Numer.
    Anal. 15, 1978): W(m) lies in the polygon cut out by Re(e^{i theta} z)
    <= lambda_max(H(e^{i theta} m)) at theta = 2 pi j / 16, inside the
    regular 16-gon of inradius h, the largest of those eigenvalues, so
    w(m) <= h / cos(pi/16), at most 2% above it. Runs in blocks whose
    rotated stacks stay within 256 KiB, like numerical_radius's grid.
    Below 2^-225 the bound is inf, as hermitian_norm_upper_bounds is, so
    that no bound is trusted near the subnormal range, where the
    rotations (numerical_radius's too) round absolutely, not relatively."""
    ms = np.asarray(ms, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, _SUPPORT_LINES, endpoint=False)
    bounds = np.zeros(ms.shape[0])
    for part in _blocks(ms, _SUPPORT_LINES):
        bounds[part] = _rotated_top_eigenvalues(ms[part, None], thetas).max(axis=1)
    bounds /= np.cos(np.pi / _SUPPORT_LINES)
    return np.where(bounds < _BOUND_FLOOR, np.inf, bounds)


def numerical_radius(m, angular_resolution: int = 720) -> float | np.ndarray:
    """Max over unit vectors of |<v, m v>|, from below.

    Evaluates the top eigenvalue of the Hermitian part of e^{i theta} m on
    a uniform theta grid over [0, 2pi), then refines around the best grid
    point with a golden-section search. The result is always a lower bound
    on the radius (it is a max of sampled values) and converges to it as
    the grid refines; at resolution 720 the value is accurate to better
    than 1e-7 away from degenerate spectra. For Hermitian input the grid
    hits theta = 0 and pi, so the value equals max |eigenvalue| exactly.

    `m` is one (d, d) matrix, giving a float, or a (k, d, d) stack, giving
    a (k,) array. A stack runs its grid in blocks of whole matrices whose
    rotated (block, resolution, d, d) stack stays within 256 KiB (at least
    one matrix per block), a bound that depends only on the shape, then
    refines every matrix at once: one bracket per matrix, and matrices
    whose bracket has closed drop out. Each matrix goes through the same
    floating-point operations as on its own, so a stack gives exactly the
    values of per-matrix calls.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise PreconditionError(
            f"expected a square matrix or a stack of them, got shape {m.shape}"
        )
    if angular_resolution < 8:
        raise PreconditionError(
            f"angular_resolution must be at least 8, got {angular_resolution}"
        )
    if m.ndim == 2:
        return float(numerical_radius(m[None], angular_resolution)[0])
    radii = np.zeros(m.shape[0])
    live = np.flatnonzero(m.any(axis=(1, 2)))
    if not live.size:
        return radii
    ms = m[live]
    thetas = np.linspace(0.0, 2.0 * np.pi, angular_resolution, endpoint=False)
    j = np.zeros(ms.shape[0], dtype=np.intp)
    best = np.zeros(ms.shape[0])
    for part in _blocks(ms, angular_resolution):
        grid_vals = _rotated_top_eigenvalues(ms[part, None], thetas)
        j[part] = np.argmax(grid_vals, axis=1)
        best[part] = grid_vals.max(axis=1)

    # Local refinement on the bracket spanned by the neighbours of the
    # best grid point; keeps the lower-bound guarantee.
    step = 2.0 * np.pi / angular_resolution
    a = thetas[j] - step
    b = thetas[j] + step
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _rotated_top_eigenvalues(ms, c)
    fd = _rotated_top_eigenvalues(ms, d)
    open_ = np.flatnonzero(b - a > 1e-12)
    while open_.size:
        left = fc[open_] >= fd[open_]
        lo, hi = open_[left], open_[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _GOLDEN * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _GOLDEN * (b[hi] - a[hi])
        probes = np.where(left, c[open_], d[open_])
        values = _rotated_top_eigenvalues(ms[open_], probes)
        fc[lo], fd[hi] = values[left], values[~left]
        best[open_] = np.maximum(best[open_], np.maximum(fc[open_], fd[open_]))
        open_ = open_[b[open_] - a[open_] > 1e-12]
    radii[live] = best
    return radii
