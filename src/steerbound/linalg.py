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
    m = require_square(m)
    return (m + m.conj().T) / 2


def operator_norm(m) -> float:
    """Largest singular value; for Hermitian input, the largest |eigenvalue|."""
    m = require_square(m)
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def tensor(a, b) -> np.ndarray:
    """Kronecker product. Satisfies (a(x)b)(c(x)d) = ac (x) bd."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _rotated_top_eigenvalue(m: np.ndarray, theta: float) -> float:
    h = np.exp(1j * theta) * m
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[-1])


def numerical_radius(m, angular_resolution: int = 720) -> float:
    """Max over unit vectors of |<v, m v>|, from below.

    Evaluates the top eigenvalue of the Hermitian part of e^{i theta} m on
    a uniform theta grid over [0, 2pi), then refines around the best grid
    point with a golden-section search. The result is always a lower bound
    on the radius (it is a max of sampled values) and converges to it as
    the grid refines; at resolution 720 the value is accurate to better
    than 1e-7 away from degenerate spectra. For Hermitian input the grid
    hits theta = 0 and pi, so the value equals max |eigenvalue| exactly.
    """
    m = require_square(m)
    if angular_resolution < 8:
        raise PreconditionError(
            f"angular_resolution must be at least 8, got {angular_resolution}"
        )
    if not m.any():
        return 0.0
    thetas = np.linspace(0.0, 2.0 * np.pi, angular_resolution, endpoint=False)
    phases = np.exp(1j * thetas)
    rotated = phases[:, None, None] * m[None, :, :]
    rotated = (rotated + rotated.conj().transpose(0, 2, 1)) / 2
    grid_vals = np.linalg.eigvalsh(rotated)[:, -1]
    j = int(np.argmax(grid_vals))
    best = float(grid_vals[j])

    # Local refinement on the bracket spanned by the neighbours of the
    # best grid point; keeps the lower-bound guarantee.
    step = 2.0 * np.pi / angular_resolution
    a = thetas[j] - step
    b = thetas[j] + step
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _rotated_top_eigenvalue(m, c)
    fd = _rotated_top_eigenvalue(m, d)
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _rotated_top_eigenvalue(m, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _rotated_top_eigenvalue(m, d)
        best = max(best, fc, fd)
    return best
