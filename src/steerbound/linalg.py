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
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def square_safe(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the stack with each member s * member, the (k,) s), one s per member
    of the leading axis, a power of two after which squares of its entries,
    and of sums of up to 2^100 of them, can neither overflow nor underflow:
    1 while the member's largest modulus lies in [2^-400, 2^400), else
    2^-e, e the np.frexp exponent of that modulus (at least -1022). The
    stack itself comes back when every s is 1. A norm of a scaled member,
    divided by its s, is the unscaled one bit for bit wherever that is
    finite and its squares are normal: the scaling is exact down to
    2^-1022 of the member's largest modulus, below a norm's last bit."""
    _, e = np.frexp(np.abs(stack).max(axis=tuple(range(1, stack.ndim)), initial=0.0))
    e = np.where((e > 400) | (e < -399), np.maximum(e, -1022), 0)
    scales, off = np.ldexp(1.0, -e), e != 0
    if off.any():
        stack = stack.copy()
        stack[off] *= scales[off].reshape(-1, *(1,) * (stack.ndim - 1))
    return stack, scales


_GRID_BLOCK_BYTES = 1 << 18  # temporaries of one block, see _blocks
_BOUND_FLOOR = 2.0**-225  # smaller upper bounds are inf, see hermitian_norm_upper_bounds
_PHASES = 16  # first level of numerical_radius_bounds: phases 2 pi j / 16
_SUPPORT_BUDGET = 1024  # support values one matrix may take in numerical_radius_bounds
_RADIUS_ROUNDING = 16  # c of numerical_radius_bounds' widening, c d eps lower
_COS_DELTA = np.cos(np.ldexp(np.pi / _PHASES, -np.arange(_SUPPORT_BUDGET)))  # by halvings
RADIUS_RTOL = 2.0**-40  # relative width of numerical_radius's search


def _support_values(ms: np.ndarray, owners: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """h(theta) of ms[owner] per (owner, theta) pair, in blocks of pairs
    whose rotated matrices stay within 256 KiB (at least one pair each)."""
    block = max(1, _GRID_BLOCK_BYTES // (16 * ms.shape[-1] ** 2))
    values = np.empty(thetas.size)
    for s in range(0, thetas.size, block):
        rotated = np.exp(1j * thetas[s : s + block])[:, None, None] * ms[owners[s : s + block]]
        values[s : s + block] = np.linalg.eigvalsh(hermitian_part(rotated))[:, -1]
    return values


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


def numerical_radius_bounds(ms, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) ends of the numerical radius w(m) = max_theta
    h(theta), h(theta) = lambda_max(H(e^{i theta} m)) for H the Hermitian
    part, per matrix of a (k, d, d) stack, by branch and bound over the
    phase from the 16 phases 2 pi j / 16. Every computed h is attained, up
    to rounding, and the largest is the lower end. On an interval of
    half-width delta, h is at most max(h(t1), h(t2)) / cos(delta), the
    vertex of the wedge that the support lines at its ends cut out (C. R.
    Johnson, SIAM J. Numer. Anal. 15, 1978), widened here by 16 d eps lower
    for the rounding of eigvalsh (taken as d eps ||H||), of the rotation,
    the cosine and the division. Each round halves the intervals whose bound
    exceeds lower (1 + rtol), until none does, so upper - lower <= rtol
    lower (twice the widening where that alone passes rtol: d > 258 at
    2^-40), or until the round would take the matrix past 1024 support
    values, as a disc about 0 does (flat h: e_0 w^T with w_0 = 0, J_d).
    With rtol = inf the upper end is max_j h_j / cos(pi/16), widened: at
    most 2% above the radius. Upper ends below 2^-225, a zero matrix's too,
    are inf, as in hermitian_norm_upper_bounds. Blocks of support values
    stay within 256 KiB, and a matrix's search reads it alone, so a stack
    gives exactly the ends of per-matrix calls."""
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[-1] != ms.shape[-2]:
        raise PreconditionError(f"expected a square matrix or a stack, got shape {ms.shape}")
    count = ms.shape[0]
    # interval j of a matrix runs from phase j to phase j + 1, the last to 2 pi
    phases = np.linspace(0.0, 2.0 * np.pi, _PHASES + 1)
    owner = np.repeat(np.arange(count), _PHASES)
    t1, t2 = np.tile(phases[:-1], count), np.tile(phases[1:], count)
    h1 = _support_values(ms, owner, t1)
    h2 = np.roll(h1.reshape(count, _PHASES), -1, axis=1).ravel()
    best, level = h1.reshape(count, _PHASES).max(axis=1), np.zeros(owner.size, dtype=np.intp)
    spent, top = np.full(count, _PHASES), np.full(count, -np.inf)
    widening = _RADIUS_ROUNDING * ms.shape[-1] * np.finfo(float).eps
    while True:
        bound = np.maximum(h1, h2) / _COS_DELTA[level]
        if rtol == np.inf:
            break
        split = bound > best[owner] * (1.0 + (rtol - widening if rtol > widening else widening))
        split &= (spent + np.bincount(owner[split], minlength=count) <= _SUPPORT_BUDGET)[owner]
        if not split.any():
            break
        np.maximum.at(top, owner[~split], bound[~split])
        owner, t1, t2, h1, h2, level = (a[split] for a in (owner, t1, t2, h1, h2, level))
        middle = (t1 + t2) / 2
        h = _support_values(ms, owner, middle)
        spent += np.bincount(owner, minlength=count)
        np.maximum.at(best, owner, h)
        owner, level = np.tile(owner, 2), np.tile(level + 1, 2)
        t1, t2 = np.concatenate((t1, middle)), np.concatenate((middle, t2))
        h1, h2 = np.concatenate((h1, h)), np.concatenate((h, h2))
    np.maximum.at(top, owner, bound)
    top += widening * best
    return best, np.where(top < _BOUND_FLOOR, np.inf, top)


def numerical_radius(m) -> float | np.ndarray:
    """Max over unit vectors of |<v, m v>|: the lower end of
    numerical_radius_bounds at RADIUS_RTOL, so max |eigenvalue| for
    Hermitian input, up to rounding. `m` is one (d, d) matrix, giving a
    float, or a (k, d, d) stack, giving a (k,) array with exactly the
    values of per-matrix calls."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 2:
        return float(numerical_radius(m[None])[0])
    return numerical_radius_bounds(m, RADIUS_RTOL)[0]
