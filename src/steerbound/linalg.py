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


def tensor(a, b) -> np.ndarray:
    """Kronecker product. Satisfies (a(x)b)(c(x)d) = ac (x) bd."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


_GRID_BLOCK_BYTES = 1 << 18  # rotated grid stack of one block, see numerical_radius


def _rotated_top_eigenvalues(ms: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the Hermitian part of e^{i thetas[k]} ms[k], per k."""
    return np.linalg.eigvalsh(hermitian_part(np.exp(1j * thetas)[:, None, None] * ms))[:, -1]


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
    dim = m.shape[-1]
    thetas = np.linspace(0.0, 2.0 * np.pi, angular_resolution, endpoint=False)
    phases = np.exp(1j * thetas)[:, None, None]
    block = max(1, _GRID_BLOCK_BYTES // (16 * angular_resolution * dim * dim))
    j = np.zeros(ms.shape[0], dtype=np.intp)
    best = np.zeros(ms.shape[0])
    for s in range(0, ms.shape[0], block):
        grid_vals = np.linalg.eigvalsh(hermitian_part(phases * ms[s : s + block, None]))[..., -1]
        j[s : s + block] = np.argmax(grid_vals, axis=1)
        best[s : s + block] = grid_vals.max(axis=1)

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
