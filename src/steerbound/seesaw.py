"""A see-saw lower bound on the quantum value of tables without paper
values (quantum_bound_seesaw). Memory is bounded by shape alone: 8 MiB
of assembled operators per restart group, beside two earlier states and
one spare POVM/factor table per restart in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundCheckError, PreconditionError
from .functionals import SteeringFunctional, require_seed
from .lhs import _require_bounded_table
from .linalg import blas_threads, hermitian_part
from .structure import _rank_one_row, table_scale
from .tolerances import TOLERANCES

DEFAULT_RESTARTS = 20
DEFAULT_MAX_ITERS = 500  # updates per restart, kept or discarded
_SEESAW_GROUP_BYTES = 1 << 23  # assembled stack of one restart group
_SEESAW_TOL = 1e-10  # largest gain of a restart's last kept update


@dataclass(frozen=True)
class SeesawResult:
    value: float
    converged: bool
    iterations: int
    trace: tuple[float, ...]  # kept objective values of the best restart
    extrapolations_kept: int  # over all restarts
    extrapolations_tried: int


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _positive_projectors(h: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace of each Hermitian matrix in
    the stack: the exact maximizer of Tr(E h) over 0 <= E <= 1."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * (vals > 0)[..., None, :]) @ _dagger(vecs)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^dagger y over the last axis."""
    return np.einsum("...i,...i->...", x.conj(), y)


def _rank_one_split(r: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """Factors (R^dagger P, R^dagger (I - P)) of an exact split of a pair
    whose operator R (R_a - R_b) R^dagger is M = herm(alpha beta^dagger),
    with alpha = R (phi u_a - phi u_b), beta = R v and P the projector onto
    the positive eigenvector of M, or 0 where M has none; or, where the
    lowest mantissa bit of Re(beta^dagger alpha) is set, the same for -M,
    swapped: (R^dagger (I - N), R^dagger N), N the projector onto the
    negative eigenvector of M. Both send M's kernel, which adds nothing
    to the objective either way, wholly to one outcome; the bit, which
    rounding sets for practical purposes at random, decides which.
    Sending the kernel always to outcome b left every outcome but the last
    of rank <= 1 after an update and took 17% more updates over 61
    see-saws on random d = 3 to 5 tables; this split takes 1% fewer than
    splitting by the signs of rounding in an eigensolve.

    With w = alpha - (beta^dagger alpha / |beta|^2) beta, the part of
    alpha orthogonal to beta, and g = Re(beta^dagger alpha), the vector
    p = w + (s / |beta|^2) beta with s = g + sqrt(|w|^2 |beta|^2 + g^2)
    has M p = (s/2) p. M has rank at most 2 and its other nonzero
    eigenvalue is (g - sqrt(...))/2 <= 0; -M negates alpha, w and g.
    Where g < 0, s is taken as |w|^2 |beta|^2 / (sqrt(...) - g), the same
    number without the cancellation. An s within 8 eps |alpha||beta| is
    rounding and P is 0 there: near alpha = -t beta (t > 0), p would be w,
    whose rounding may point anywhere, along beta too, where M is
    negative. Dropping such a P loses at most 4 eps |alpha||beta| of the
    pair's objective."""
    a2 = _dot(alpha, alpha).real[..., None]
    b2 = _dot(beta, beta).real[..., None]
    inverse = np.divide(1.0, b2, out=np.zeros_like(b2), where=b2 > 0)
    c = _dot(beta, alpha)[..., None]
    flip = (c.real.view(np.int64) & 1).astype(bool)
    sign = np.where(flip, -1.0, 1.0)
    w = sign * (alpha - (c * inverse) * beta)
    g, w2 = sign * c.real, _dot(w, w).real[..., None]
    cross = w2 * b2
    root = np.sqrt(cross + g * g)
    s = np.where(g >= 0, g + root, cross / np.where(g >= 0, 1.0, root - g))
    p = w + (s * inverse) * beta
    p2 = w2 + s * s * inverse  # |p|^2, as w is orthogonal to beta
    positive = s > 8 * np.finfo(float).eps * np.sqrt(a2 * b2)
    unit = np.divide(p, p2, out=np.zeros_like(p), where=positive)
    lifted = _dagger(r)
    first = (lifted @ unit[..., None]) * p.conj()[..., None, :]
    other, flip = lifted - first, flip[..., None]
    return np.where(flip, other, first), np.where(flip, first, other)


def _povm_update(rotated: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact coordinate step for every (..., setting) POVM at once, from
    square factors G with E^a = G^a G^a^dagger: (new POVMs, their factors).

    `rotated` holds the (..., m, d, d) Hermitian parts of the phased
    conditioned operators, or, for a rank-one table whose conditioned
    operators are u_a v^dagger and m > 2, the (..., m + 1, d) vectors
    phi u_a and then v that give them as herm(phi u_a v^dagger).

    Two outcomes take the positive-eigenspace projector P of R^1 - R^2,
    which is its own factor, and I - P. More outcomes take one sweep of
    exact two-outcome splits over all outcome pairs, in lexicographic
    order. For a pair (a, b), one QR of the stacked [G_a^dagger; G_b^dagger]
    gives R with Q = E_a + E_b = R^dagger R, so every split of Q is
    E_a = R^dagger X R with 0 <= X <= 1, and the pair subproblem
    Tr(X R (R_a - R_b) R^dagger) is solved by the projector U_+ U_+^dagger
    onto its positive eigenspace: G_a = R^dagger U_+ and G_b = R^dagger U_-,
    the eigenvectors U split by sign (the other columns zeroed). Any square
    factor F = Q^(1/2) V of Q gives the same F P_+(F^dagger D F) F^dagger,
    so this is the maximizer of the root form E_a = Q^(1/2) X Q^(1/2),
    with one QR and one eigensolve per pair in place of two eigensolves
    and a square root. Rank-one operators make the pair operator
    herm(alpha beta^dagger), of rank at most 2, whose positive eigenvector
    has a closed form (_rank_one_split): one QR and no eigensolve per
    pair. They send the pair operator's kernel wholly to a or to b, by a
    bit of the data, where the eigensolve splits it by the signs of
    rounding. Either way both elements are positive semidefinite by
    construction, and the objective never decreases.
    """
    *batch, m, d, _ = factors.shape
    rank_one = rotated.ndim < factors.ndim
    if rank_one:
        phased, v = rotated[..., :-1, :], rotated[..., -1, :]
    elif m == 2:
        proj = _positive_projectors(rotated[..., 0, :, :] - rotated[..., 1, :, :])
        povms = np.stack([proj, np.eye(d) - proj], axis=-3)
        return povms, povms
    factors = factors.copy()
    upper = np.tri(d, dtype=bool).T
    for a in range(m):
        for b in range(a + 1, m):
            # R^dagger R = G_a G_a^dagger + G_b G_b^dagger
            stacked = _dagger(factors[..., (a, b), :, :]).reshape(*batch, 2 * d, d)
            raw, _ = np.linalg.qr(stacked, mode="raw")  # R in its transposed upper triangle
            r = raw.swapaxes(-1, -2)[..., :d, :] * upper  # mode "r" without its np.triu copy
            if rank_one:
                alpha = (r @ (phased[..., a, :] - phased[..., b, :])[..., None])[..., 0]
                beta = (r @ v[..., None])[..., 0]
                factors[..., a, :, :], factors[..., b, :, :] = _rank_one_split(r, alpha, beta)
                continue
            diff = rotated[..., a, :, :] - rotated[..., b, :, :]
            vals, vecs = np.linalg.eigh(hermitian_part(r @ diff @ _dagger(r)))
            lifted = _dagger(r) @ vecs
            positive = (vals > 0)[..., None, :]
            factors[..., a, :, :] = lifted * positive
            factors[..., b, :, :] = lifted * ~positive
    return factors @ _dagger(factors), factors


def _pairing(povms: np.ndarray, conditioned: np.ndarray) -> np.ndarray:
    """sum_xa Tr(E_x^a R_x^a) per restart."""
    return np.einsum("rxaij,rxaji->r", povms, conditioned)


def _rank_one_pairing(povms: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_xa Tr(E_x^a u_xa v^dagger) = sum_xa v^dagger E_x^a u_xa per restart."""
    return np.einsum("ri,rxaij,rxaj->r", right.conj(), povms, left)


def _phases(value: np.ndarray) -> np.ndarray:
    """e^{-i arg v} per restart; 1 where v = 0."""
    return np.where(value == 0, 1.0, np.exp(-1j * np.angle(value)))


def _extrapolated(history: np.ndarray) -> np.ndarray:
    """SQUAREM start state (Varadhan and Roland 2008) from the last three
    kept (k, 3, d, d) states t0, t1, t2: t0 - 2 alpha r + alpha^2 v,
    normalised, with r = t1 - t0, v = t2 - 2 t1 + t0 and
    alpha = min(-|r|/|v|, -1). alpha = -1 where v = 0; it gives t2 back."""
    t0, t1, t2 = history[:, 0], history[:, 1], history[:, 2]
    r, v = t1 - t0, t2 - 2 * t1 + t0
    r_norm, v_norm = np.linalg.norm(r, axis=(1, 2)), np.linalg.norm(v, axis=(1, 2))
    ratio = np.divide(r_norm, v_norm, out=np.ones_like(r_norm), where=v_norm > 0)
    alpha = -np.maximum(ratio, 1.0)[:, None, None]
    start = t0 - 2 * alpha * r + alpha**2 * v
    return start / np.linalg.norm(start, axis=(1, 2), keepdims=True)


def _seesaw_group(
    f: SteeringFunctional, state: np.ndarray, max_iters: int, slack: float
) -> tuple[np.ndarray, np.ndarray, list[list[float]], int, np.ndarray, tuple[int, int]]:
    """Run the restarts starting from the (k, d, d) states together until
    each converges or takes max_iters updates: (final values, converged
    flags, traces of kept values, updates taken by all of them, final
    (k, n, m, d, d) POVMs, (extrapolations kept, tried)). Updates 3, 6,
    9, ... start from _extrapolated and are kept only where they do not
    lower the objective; a plain update that falls by more than `slack`
    raises."""
    k, d, _ = state.shape
    n, m = f.n, f.m
    coeffs_t = f.coefficients.transpose(0, 1, 3, 2)  # (n, m, d, d), F^T per cell
    row = None if f.hermitian or m == 2 else _rank_one_row(f)
    if row is not None:
        weights = f.coefficients[:, :, row, :].reshape(n * m, d, 1)  # F_x^a = e_row w_xa^T
    table = f.coefficients.reshape(n * m, d * d)
    eye = np.eye(d, dtype=complex)
    povms = np.broadcast_to(eye / m, (k, n, m, d, d)).copy()
    factors = np.broadcast_to(eye / np.sqrt(m), (k, n, m, d, d)).copy()
    history = np.repeat(state[:, None], 3, axis=1)  # last three kept states, newest last
    measurements = np.empty_like(povms)
    finals = np.zeros(k)
    converged = np.zeros(k, dtype=bool)
    traces: list[list[float]] = [[] for _ in range(k)]
    active = np.arange(k)
    steps = kept = tried = 0
    for step in range(max_iters):
        steps += active.size
        extrapolating = step > 0 and step % 3 == 0
        start = _extrapolated(history) if extrapolating else history[:, -1]
        if row is None:
            # R_x^a = Psi F_x^a^T Psi^dagger, per restart
            conditioned = start[:, None, None] @ coeffs_t @ _dagger(start)[:, None, None]
            phase = _phases(_pairing(povms, conditioned))[:, None, None, None, None]
            new_povms, new_factors = _povm_update(hermitian_part(phase * conditioned), factors)
            phase = _phases(_pairing(new_povms, conditioned))[:, None, None]
        else:
            # R_x^a = u_xa v^dagger with u_xa = Psi w_xa and v = Psi e_row
            left = (start[:, None] @ weights).reshape(-1, n, m, d)
            right = start[:, :, row]
            phase = _phases(_rank_one_pairing(povms, left, right))[:, None, None, None]
            vectors = np.concatenate(
                (phase * left, np.broadcast_to(right[:, None, None], (len(right), n, 1, d))),
                axis=2,
            )
            new_povms, new_factors = _povm_update(vectors, factors)
            phase = _phases(_rank_one_pairing(new_povms, left, right))[:, None, None]
        # sum_xa E_x^a (x) F_x^a as one GEMM: (r, (i, j), xa) @ (xa, (k, l))
        rows = new_povms.transpose(0, 3, 4, 1, 2).reshape(-1, d * d, n * m)
        assembled = (rows @ table).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
        assembled = assembled.reshape(-1, d * d, d * d)
        vals, vecs = np.linalg.eigh(hermitian_part(phase * assembled))
        state = vecs[..., -1].reshape(-1, d, d)
        # eigh fixes no global phase: align it to the last kept state
        overlap = np.einsum("rij,rij->r", state.conj(), history[:, -1])
        state *= np.where(overlap == 0, 1.0, overlap / np.abs(overlap))[:, None, None]
        objective = vals[:, -1]
        previous = finals[active]
        rolled = np.concatenate((history[:, 1:], state[:, None]), axis=1)
        if extrapolating:
            keep = objective >= previous
            kept += int(keep.sum())
            tried += active.size
            # a discarded extrapolation leaves its restart as it was
            lost = ~keep
            rolled[lost], objective[lost] = history[lost], previous[lost]
            new_factors[lost] = factors[lost]
            new_povms[lost] = povms[lost]  # after the factors: one array when m = 2
        else:
            fell = objective < previous - slack
            if step and fell.any():
                r = int(np.argmax(fell))
                raise BoundCheckError(
                    f"see-saw objective fell from {float(previous[r])!r} "
                    f"to {float(objective[r])!r}"
                )
            keep = np.ones(active.size, dtype=bool)
        history, povms, factors = rolled, new_povms, new_factors
        for r, value, new in zip(active.tolist(), objective.tolist(), keep.tolist()):
            if new:
                traces[r].append(value)
        finals[active] = objective
        done = keep & (objective - previous <= _SEESAW_TOL) & (step > 0)
        converged[active[done]] = True
        measurements[active[done]] = povms[done]
        active, history = active[~done], history[~done]
        povms, factors = povms[~done], factors[~done]
        if not active.size:
            break
    measurements[active] = povms
    return finals, converged, traces, steps, measurements, (kept, tried)


def _require_measurements(povms: np.ndarray, first: int) -> None:
    """Raise BoundCheckError unless every (restart, setting) POVM of the
    (k, n, m, d, d) stack sums to the identity and has no eigenvalue below
    zero, both within TOLERANCES.assemblage; restarts count from `first`."""
    tol = TOLERANCES.assemblage
    defect = np.abs(povms.sum(axis=2) - np.eye(povms.shape[-1])).max(axis=(-2, -1))
    lowest = np.linalg.eigvalsh(hermitian_part(povms)).min(axis=(-2, -1))
    bad = ~((defect <= tol) & (lowest >= -tol))
    if bad.any():
        r, x = (int(i) for i in np.argwhere(bad)[0])
        raise BoundCheckError(
            f"see-saw restart {first + r}, setting {x}: measurement sums to the "
            f"identity within {float(defect[r, x]):.3g} and has lowest "
            f"eigenvalue {float(lowest[r, x]):.3g}, outside {tol:.0e}"
        )


def _check_seesaw_parameters(restarts: int, max_iters: int, seed: int) -> None:
    if restarts < 1 or max_iters < 1:
        raise PreconditionError(
            f"see-saw restarts and max_iters must be positive, got {restarts} and {max_iters}"
        )
    require_seed(seed)


def quantum_bound_seesaw(
    f: SteeringFunctional,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = 0,
) -> SeesawResult:
    """Monotone alternating lower bound on the quantum value.

    Parametrizes an explicit realization - a pure state on two
    d-dimensional systems and one POVM per setting - and alternates exact
    coordinate maximizations: with the state fixed, each setting's
    measurement is rebuilt from its conditioned operators (the
    positive-eigenspace projector for two outcomes; otherwise one sweep of
    pairwise splits on square factors E_x^a = G G^dagger, starting from
    G = I/sqrt(m), each pair one QR and one eigensolve, see _povm_update).
    A table of more than two outcomes whose cells are all zero outside
    one row r has conditioned operators u_xa v^dagger, with u_xa = Psi w_xa
    for the row w_xa of F_x^a and v = Psi e_r; they are never built, each
    pair is split in closed form instead of eigensolved, and the pairings
    read v^dagger E_x^a u_xa. With the measurements fixed, the state moves
    to the top eigenvector of the assembled operator sum_xa E_x^a (x) F_x^a,
    built as one GEMM of the POVMs with the table. Non-Hermitian tables
    are handled through |<F, sigma>| by rotating with the phase of the
    current value, which preserves monotonicity of the modulus. The
    result is a lower bound on the quantum value up to solver tolerance;
    restarts draw fresh random initial states, in restart order from one
    generator. A table whose scale (structure.table_scale) lies outside
    [2^-8, 2^8) is see-sawed times the power of two 2^-e that brings the
    scale into [1, 2), exactly, and the value and trace are multiplied
    back by 2^e, so that _SEESAW_TOL, which is absolute, and the squares
    of the rank-one split act as on a table of scale near 1.

    The coordinate ascent converges linearly, so updates 3, 6, 9, ...
    (0-based) start instead from the SQUAREM extrapolation of the last
    three kept states (_extrapolated; each new state's global phase is
    aligned to the last kept one, since eigh fixes none) and run one
    ordinary update from there with the current POVMs. Its state, POVMs
    and objective are kept only if the objective is at least the last
    kept one; otherwise the restart carries on as it was. Kept values
    therefore never fall, and every reported value is that of a kept
    update: a normalised top eigenvector and its POVMs.

    Restarts advance together, in groups whose assembled (group, d*d, d*d)
    stack, 16 d^4 bytes per restart, stays within 8 MiB (at least one
    restart per group), with OpenBLAS held at one thread; every update is
    batched over the group's restarts and settings, and a restart leaves
    the group at its first kept update that gains at most _SEESAW_TOL.
    `max_iters` caps, and `iterations` counts, every update of every
    restart, kept or discarded; `trace` lists the kept values of the first
    restart with the largest final value, which is the result, and
    `extrapolations_kept`/`extrapolations_tried` count extrapolated
    updates over all restarts. A plain update that falls by more than
    TOLERANCES.seesaw_monotone times the scale, as its rounding does,
    raises BoundCheckError; so does, once per group, a restart whose final
    POVM for some setting misses sum_a E_x^a = I or E_x^a >= 0 by more
    than TOLERANCES.assemblage.
    """
    d = f.d
    _check_seesaw_parameters(restarts, max_iters, seed)
    _require_bounded_table(f)
    scale = table_scale(f)
    shift = 0 if 2.0**-8 <= scale < 2.0**8 else int(np.frexp(scale)[1]) - 1
    if shift:  # scale * 2^-shift lies in [1, 2)
        parts = np.ascontiguousarray(f.coefficients).view(np.float64)
        f = SteeringFunctional._adopt(np.ldexp(parts, -shift).view(complex), f.kind, f.seed)
    rng = np.random.default_rng(seed)
    group = max(1, _SEESAW_GROUP_BYTES // (16 * d**4))
    slack = TOLERANCES.seesaw_monotone * float(np.ldexp(scale, -shift))
    finals, converged, traces = [], [], []
    iterations = kept = tried = 0
    with blas_threads(1):
        for first in range(0, restarts, group):
            raw = rng.normal(size=(min(group, restarts - first), 2, d * d))
            raw = raw[:, 0] + 1j * raw[:, 1]
            state = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).reshape(-1, d, d)
            values, flags, paths, steps, povms, (k, t) = _seesaw_group(f, state, max_iters, slack)
            _require_measurements(povms, first)
            finals.append(values)
            converged.append(flags)
            traces += paths
            iterations += steps
            kept += k
            tried += t
    values = np.concatenate(finals)
    best = int(np.argmax(values))
    return SeesawResult(
        value=float(np.ldexp(values[best], shift)),
        converged=bool(np.concatenate(converged)[best]),
        iterations=iterations,
        trace=tuple(np.ldexp(traces[best], shift).tolist()),
        extrapolations_kept=kept,
        extrapolations_tried=tried,
    )
