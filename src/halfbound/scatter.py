"""Numerical scattering engine for one-dimensional wells.

Integrates the stationary equation psi'' = (V(x) - E) psi with classical
fourth-order Runge-Kutta for the two fundamental solutions

    u(0) = 1, u'(0) = 0        v(0) = 0, v'(0) = 1

outward from the origin to both support edges, for one well or a batch of
wells s V at energies E, assembles the reflection amplitude from their
boundary values, and provides an independent transfer-matrix route that
yields both r and t.  The equation is linear, so one RK4 step is an exact 2x2
matrix on (psi, psi'); every RK4 integration here, recorded shots included, is
the ordered product of those step matrices.  The transfer route crosses the
support in equal slices, each a fourth-order Gauss-Legendre Magnus step
sampled at the slice's two Gauss points, and reduces the slice matrices of
many wells at once.  The two routes share only that product (a plain 2x2
reduction, tested on its own) and potential evaluation; their step rules and
sample points stay separate, so their agreement is a genuine cross-check and
is kept that way on purpose.

Edge sampling: kinds with a jump at the support edge (square and
square-triangular profiles are defined on open/closed intervals) must never be
sampled *at* the edge by an integration stage, or the final Runge-Kutta stage
averages across the jump and ruins the order of the method.  All integration
grids therefore sample their edge nodes at the interior one-sided limit,
nudged inward by 1e-9 of the support span.  Pointwise evaluation through
:func:`halfbound.potentials.evaluate` is unaffected.

Energies: the assemblers require E > 0; integration itself is valid at E = 0
(used for the critical search) and performs no regularization there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .potentials import Potential

__all__ = [
    "BoundaryData",
    "DegenerateInputError",
    "GridConfig",
    "IntegrationError",
    "NoHalfBoundStateError",
    "ScatterResult",
    "count_nodes",
    "default_step",
    "integrate_uv",
    "integrate_uv_batch",
    "reflection_wronskian",
    "shoot",
    "transfer_matrix_batch",
    "transfer_matrix_rt",
    "threshold_limit_r",
]

#: Inward nudge applied to outermost grid samples, as a fraction of the span.
EDGE_FRACTION = 1e-9

#: Accepted wronskian drift; integrations are refined until they meet it.
DRIFT_TOL = 1e-8

_MAX_HALVINGS = 6

#: Matrices built and reduced at once (batch x steps); bounds the working set.
_CHUNK = 1 << 14

#: The same bound for the transfer-matrix route (wells x slices).
_SLICE_CHUNK = 1 << 12

#: Gauss-Legendre points of a slice, as fractions of its width.
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

#: Weight sqrt(3)/12 of the commutator term of the fourth-order Magnus exponent.
_MAGNUS_C = math.sqrt(3.0) / 12.0


class IntegrationError(ArithmeticError):
    """Step-size refinement failed to reach the wronskian drift tolerance."""


class DegenerateInputError(ArithmeticError):
    """Assembler denominator vanished; the inputs are numerically degenerate."""


class NoHalfBoundStateError(ValueError):
    """Boundary data does not satisfy the zero-energy saturation condition."""


@dataclass(frozen=True)
class GridConfig:
    """Numerical knobs shared by the integration and transfer-matrix routes.

    step
        Runge-Kutta step; ``None`` selects min(a, 1)/2000 for the well's
        length parameter a.
    n_slices
        Transfer-matrix slice count; each slice is one fourth-order Magnus
        step sampled at its two Gauss points.

    The support both routes cross is the well's own ``Potential.support``.
    """

    step: float | None = None
    n_slices: int = 1000


@dataclass(frozen=True)
class BoundaryData:
    """Values and derivatives of u, v at the support edges.

    Subscript 1 refers to the right edge x = +L1, subscript 2 to the left edge
    x = -L2.  The wronskian u v' - u' v is 1 identically; ``wronskian_drift``
    is the largest observed |W - 1| along both integrations.
    """

    u1: float
    v1: float
    u1p: float
    v1p: float
    u2: float
    v2: float
    u2p: float
    v2p: float
    E: float
    k: float
    L1: float
    L2: float
    wronskian_drift: float


@dataclass(frozen=True)
class ScatterResult:
    """Reflection/transmission summary.

    The wronskian route determines r only; it reports T = 1 - R by
    construction with ``t`` set to None.  The transfer-matrix route computes r
    and t independently, so its ``unitarity_residual`` |R + T - 1| is a real
    check.
    """

    r: complex
    t: complex | None
    R: float
    T: float
    unitarity_residual: float
    method: str


def default_step(p: Potential) -> float:
    """Default Runge-Kutta step min(a, 1)/2000 for the well's length scale."""
    a = float(p.params.get("a", 1.0))
    return min(a, 1.0) / 2000.0


def _step(p: Potential, cfg: GridConfig) -> float:
    """The Runge-Kutta step of a grid: ``cfg.step``, or the well's default."""
    h = cfg.step if cfg.step is not None else default_step(p)
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    return h


def _grid_samples(p: Potential, edge: float, h_target: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Potential at nodes/midpoints of the grid origin -> edge, of n >= 16 steps at most h_target.

    The edge node sample is nudged to the interior one-sided limit; returns
    (V_nodes, V_midpoints, h) with h signed.
    """
    n = max(int(math.ceil(abs(edge) / h_target)), 16)
    h = edge / n
    nodes = h * np.arange(n + 1)
    lo, hi = p.support
    nodes[-1] = edge - math.copysign(EDGE_FRACTION * max(hi - lo, 1.0), edge)
    mids = h * (np.arange(n) + 0.5)
    return potentials.evaluate(p, nodes), potentials.evaluate(p, mids), h


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices stored entries first, (2, 2, ...).

    Entry (i, j) is a[i, 0] b[0, j] + a[i, 1] b[1, j], broadcast over i and j:
    three array operations, against np.matmul's per-matrix loop.
    """
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """M_{N-1} @ ... @ M_0 by pairwise reduction (keeps left-to-right order).

    ``mats`` is (2, 2, *batch, N) with the factors along the last axis; the
    result is (2, 2, *batch).
    """
    while mats.shape[-1] > 1:
        n2 = (mats.shape[-1] // 2) * 2
        prod = _mul(mats[..., 1:n2:2], mats[..., 0:n2:2])
        mats = np.concatenate([prod, mats[..., n2:]], axis=-1) if n2 < mats.shape[-1] else prod
    return mats[..., 0]


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """All M_i @ ... @ M_0 along the last axis of (2, 2, *batch, N), by a log-step scan."""
    d = 1
    while d < mats.shape[-1]:
        mats = np.concatenate([mats[..., :d], _mul(mats[..., d:], mats[..., :-d])], axis=-1)
        d *= 2
    return mats


def _rk4_steps(vn: np.ndarray, vm: np.ndarray, h: float, scale=1.0, E=0.0):
    """Classical RK4 step matrices of psi'' = (s V - E) psi, in chunks along the grid.

    ``vn`` holds V at the n + 1 grid nodes and ``vm`` at the n midpoints;
    ``scale`` (s) and ``E`` are scalars or arrays of one batch shape.  Each
    chunk holds min(n, _CHUNK) steps, laid out (2, 2, *batch, steps); matrix i
    maps (psi, psi') at node i to node i + 1 exactly as one RK4 step of width h
    does.  With a, b, c = g at node i, the midpoint and node i + 1 that matrix is

        [[1 + h^2 (a + 2b)/6 + h^4 ab/24,                  h + h^3 b/6                  ],
         [h (a + 4b + c)/6 + h^3 b (a + c)/12,   1 + h^2 (2b + c)/6 + h^4 bc/24]],

    evaluated below in the variables A, B, C = h^2/6 times a, b, c.
    """
    s = np.asarray(scale, dtype=float)[..., None]
    e = np.asarray(E, dtype=float)[..., None]
    h6 = h * h / 6.0
    n = vm.shape[0]
    width = min(n, _CHUNK)
    for i in range(0, n, width):
        j = min(i + width, n)
        G = (s * vn[i:j + 1] - e) * h6
        A, C = G[..., :-1], G[..., 1:]
        B = (s * vm[i:j] - e) * h6
        m = np.empty((2, 2) + B.shape)
        m[0, 0] = 1.0 + A + B * (2.0 + 1.5 * A)
        m[0, 1] = h * (1.0 + B)
        m[1, 0] = (A + C + B * (4.0 + 3.0 * (A + C))) / h
        m[1, 1] = 1.0 + C + B * (2.0 + 1.5 * C)
        yield m


def _rk4_product(vn: np.ndarray, vm: np.ndarray, h: float, scale=1.0, E=0.0):
    """Propagators across the whole grid of :func:`_rk4_steps`, and their drifts.

    Returns (P, drift): P is (2, 2, *batch), and drift, of the batch shape, is
    each row's largest |det(M_i ... M_0) - 1| over all steps, which is the
    wronskian drift of the fundamental pair the columns of P hold.  Rows go
    through in blocks of _CHUNK // min(n, _CHUNK), so a row's chunks depend on
    the step count alone and every row equals its one-row call bit for bit.
    """
    s, e = np.broadcast_arrays(np.asarray(scale, dtype=float), np.asarray(E, dtype=float))
    batch = s.shape
    s, e = s.ravel(), e.ravel()
    rows = max(_CHUNK // min(vm.shape[0], _CHUNK), 1)
    P = np.empty((2, 2, s.size))
    drift = np.empty(s.size)
    for b in range(0, s.size, rows):
        total = np.eye(2)[..., None]
        det = 1.0
        worst = 0.0
        for m in _rk4_steps(vn, vm, h, s[b:b + rows], e[b:b + rows]):
            total = _mul(_ordered_product(m), total)
            dets = det * np.cumprod(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], axis=-1)
            worst = np.maximum(worst, np.max(np.abs(dets - 1.0), axis=-1))
            det = dets[..., -1:]
        P[..., b:b + rows] = total
        drift[b:b + rows] = worst
    return P.reshape((2, 2) + batch), drift.reshape(batch)[()]


def integrate_uv_batch(p: Potential, energies, cfg: GridConfig | None = None, scales=1.0) -> list[BoundaryData]:
    """:func:`integrate_uv` for every row of broadcast (energies, scales).

    A row takes the well s V at energy E; the rows share one support and one
    grid and are reduced together.  Rows whose wronskian drift is above 1e-8
    are redone at half the step (up to 6 times), so every row, its drift
    included, equals the one-row call bit for bit.
    """
    cfg = cfg or GridConfig()
    lo, hi = p.support
    if hi <= 0.0 or lo >= 0.0:
        raise ValueError(f"degenerate support {p.support} (origin must be interior)")
    Es, ss = np.broadcast_arrays(np.asarray(energies, dtype=float), np.asarray(scales, dtype=float))
    Es, ss = Es.ravel(), ss.ravel()
    out = [None] * Es.size
    todo = np.arange(Es.size)
    h = _step(p, cfg)
    for _ in range(_MAX_HALVINGS + 1):
        right, d1 = _rk4_product(*_grid_samples(p, hi, h), ss[todo], Es[todo])
        left, d2 = _rk4_product(*_grid_samples(p, lo, h), ss[todo], Es[todo])
        drift = np.maximum(d1, d2)
        ok = drift <= DRIFT_TOL
        for i in np.flatnonzero(ok):
            # columns of each propagator are (u, u') and (v, v')
            (u1, v1), (u1p, v1p) = right[..., i].tolist()
            (u2, v2), (u2p, v2p) = left[..., i].tolist()
            E = float(Es[todo[i]])
            out[todo[i]] = BoundaryData(
                u1=u1, v1=v1, u1p=u1p, v1p=v1p,
                u2=u2, v2=v2, u2p=u2p, v2p=v2p,
                E=E, k=math.sqrt(E) if E > 0.0 else 0.0, L1=hi, L2=-lo, wronskian_drift=float(drift[i]),
            )
        if ok.all():
            return out
        todo, worst = todo[~ok], np.max(drift[~ok])
        h *= 0.5
    raise IntegrationError(f"wronskian drift {worst:.3e} above {DRIFT_TOL:g} after {_MAX_HALVINGS} step halvings")


def integrate_uv(p: Potential, E: float, cfg: GridConfig | None = None) -> BoundaryData:
    """Boundary values of the fundamental pair at both support edges.

    The step is halved (up to 6 times) until the wronskian drift is at most
    1e-8; exceeding that after refinement raises :class:`IntegrationError`.
    """
    return integrate_uv_batch(p, E, cfg)[0]


def _path(p: Potential, E: float, edge: float, h_target: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the origin -> edge grid and the RK4 states on them.

    ``y`` holds start states at the origin as columns, (2, k); the states come
    back as (2, k, n + 1), so y = I gives the prefix products themselves.
    """
    vn, vm, h = _grid_samples(p, edge, h_target)
    xs = np.append(h * np.arange(vm.size), edge)
    states = [y[..., None]]
    for m in _rk4_steps(vn, vm, h, E=E):
        prefix = _prefix_products(m)
        y = states[-1][..., -1]
        states.append(prefix[:, 0, None] * y[0, :, None] + prefix[:, 1, None] * y[1, :, None])
    return xs, np.concatenate(states, axis=-1)


def shoot(
    p: Potential,
    E: float,
    psi0: float = 1.0,
    dpsi0: float = 0.0,
    cfg: GridConfig | None = None,
    record: bool = False,
):
    """Integrate one solution across the support from given values at x = -L2.

    Both sides run from the origin outwards on the grids of integrate_uv (no
    halving).  The left side's last prefix product P_L maps the origin state
    y0 = (v2' psi0 - v2 dpsi0, u2 dpsi0 - u2' psi0) to (psi0, dpsi0) at -L2.
    Returns (psi_L1, dpsi_L1) or, with ``record``, (xs, psi, dpsi) as numpy
    arrays from -L2 to L1.
    """
    cfg = cfg or GridConfig()
    lo, hi = p.support
    h = _step(p, cfg)
    xl, left = _path(p, E, lo, h, np.eye(2))
    (u2, v2), (u2p, v2p) = left[..., -1].tolist()
    y0 = np.array([[v2p * psi0 - v2 * dpsi0], [u2 * dpsi0 - u2p * psi0]])
    left = left[:, 0] * y0[0] + left[:, 1] * y0[1]
    xr, right = _path(p, E, hi, h, y0)
    if not record:
        return float(right[0, 0, -1]), float(right[1, 0, -1])
    psi, dpsi = np.concatenate([left[:, :0:-1], right[:, 0]], axis=-1)
    return np.concatenate([xl[:0:-1], xr]), psi, dpsi


def reflection_wronskian(bd: BoundaryData) -> ScatterResult:
    """Reflection amplitude assembled from fundamental-solution boundary data.

    Requires E > 0.  The overall phase carries the right-edge reference factor
    exp(-2ikL1); only |r|^2 is contract-bearing.
    """
    if bd.E <= 0.0:
        raise ValueError(f"assembler requires E > 0, got E = {bd.E}")
    k = bd.k
    det = bd.u2p * bd.v1p - bd.u1p * bd.v2p
    cross = bd.u1 * bd.v2 - bd.u2 * bd.v1
    num = (
        det
        + 1j * k * (bd.v2 * bd.u1p + bd.u1 * bd.v2p)
        - 1j * k * (bd.u2 * bd.v1p + bd.v1 * bd.u2p)
        + k * k * cross
    )
    den = (
        det
        - 1j * k * (bd.v2 * bd.u1p - bd.u1 * bd.v2p)
        + 1j * k * (bd.u2 * bd.v1p - bd.v1 * bd.u2p)
        - k * k * cross
    )
    if abs(den) < 1e-300:
        raise DegenerateInputError("vanishing assembler denominator")
    r = -(num / den) * cmath.exp(-2j * k * bd.L1)
    R = abs(r) ** 2
    return ScatterResult(r=r, t=None, R=R, T=1.0 - R, unitarity_residual=0.0, method="wronskian")


def _slice_matrices(g1: np.ndarray, g2: np.ndarray, d: float) -> np.ndarray:
    """Fourth-order Magnus propagators of psi'' = g psi over slices of width d.

    ``g1`` and ``g2`` hold g = V - E at the two Gauss points of each slice; the
    result is (2, 2, *g1.shape).  With A = [[0, 1], [g, 0]], the exponent
    Omega = (d/2)(A1 + A2) + (sqrt(3)/12) d^2 [A2, A1] = [[alpha, d], [gamma, -alpha]]
    is traceless with Omega^2 = s^2 I, s^2 = alpha^2 + d gamma, so

        exp(Omega) = cosh(s) I + (sinh(s)/s) Omega

    (cos and sin(theta)/theta with theta^2 = -s^2 on oscillatory slices).  In
    a slice where g is constant, alpha = 0 and this is the exact propagator.
    """
    alpha = (_MAGNUS_C * d * d) * (g1 - g2)
    gamma = (0.5 * d) * (g1 + g2)
    s2 = alpha * alpha + d * gamma
    theta = np.sqrt(np.maximum(-s2, 0.0))
    c = np.cos(theta)
    sigma = np.ones_like(theta)  # sin(theta)/theta -> 1 as theta -> 0
    np.divide(np.sin(theta), theta, out=sigma, where=theta > 0.0)
    evanescent = s2 > 0.0
    if evanescent.any():
        s = np.sqrt(s2[evanescent])
        c[evanescent] = np.cosh(s)
        sigma[evanescent] = np.sinh(s) / s
    m = np.empty((2, 2) + c.shape)
    m[0, 0] = c + sigma * alpha
    m[0, 1] = sigma * d
    m[1, 0] = sigma * gamma
    m[1, 1] = c - sigma * alpha
    return m


def _transfer_result(P: list, k: float, lo: float, hi: float) -> ScatterResult:
    """r and t from the left edge -> right edge propagator P (nested lists)."""
    (p11, p12), (p21, p22) = P
    A = 1j * k * p11 - p21
    B = 1j * k * p22 + k * k * p12
    if abs(A + B) < 1e-300:
        raise DegenerateInputError("vanishing transfer-matrix denominator")
    r = cmath.exp(-2j * k * -lo) * (B - A) / (A + B)
    a_in = cmath.exp(1j * k * lo)
    b_out = r * cmath.exp(-1j * k * lo)
    psi_l = a_in + b_out
    dpsi_l = 1j * k * (a_in - b_out)
    t = cmath.exp(-1j * k * hi) * (p11 * psi_l + p12 * dpsi_l)
    R = abs(r) ** 2
    T = abs(t) ** 2
    return ScatterResult(r=r, t=t, R=R, T=T, unitarity_residual=abs(R + T - 1.0), method="transfer")


def transfer_matrix_batch(
    wells: list[Potential], E: float, n_slices: int | None = None, cfg: GridConfig | None = None
) -> list[ScatterResult]:
    """:func:`transfer_matrix_rt` of several wells that share one support.

    The wells' slice products are reduced together, in chunks of at most
    ``_SLICE_CHUNK`` matrices along both the well and the slice axis.  The
    slice chunks depend on the slice count alone, so every result equals the
    single-well call bit for bit.  Raises ValueError when the supports differ.
    """
    if E <= 0.0:
        raise ValueError(f"transfer-matrix route requires E > 0, got E = {E}")
    cfg = cfg or GridConfig()
    n = n_slices if n_slices is not None else cfg.n_slices
    if n < 1:
        raise ValueError(f"n_slices must be >= 1, got {n}")
    supports = {p.support for p in wells}
    if len(supports) > 1:
        raise ValueError(f"wells of one transfer batch must share one support, got {sorted(supports)}")
    if not wells:
        return []
    (lo, hi), = supports
    d = (hi - lo) / n
    x = lo + d * (np.arange(n)[None, :] + np.array(_GAUSS)[:, None]).ravel()
    width = min(n, _SLICE_CHUNK)
    rows = max(_SLICE_CHUNK // width, 1)
    k = math.sqrt(E)
    out = []
    for b in range(0, len(wells), rows):
        g = np.array([potentials.evaluate(p, x) for p in wells[b:b + rows]]) - E
        g1, g2 = g[:, :n], g[:, n:]
        total = np.eye(2)[..., None]
        for i in range(0, n, width):
            total = _mul(_ordered_product(_slice_matrices(g1[:, i:i + width], g2[:, i:i + width], d)), total)
        out.extend(_transfer_result(P, k, lo, hi) for P in np.moveaxis(total, -1, 0).tolist())
    return out


def transfer_matrix_rt(p: Potential, E: float, n_slices: int | None = None, cfg: GridConfig | None = None) -> ScatterResult:
    """Reflection and transmission from a product of slice propagators.

    The support is cut into ``n_slices`` equal slices (``cfg.n_slices``, 1000,
    by default), each crossed by the fourth-order Gauss-Legendre Magnus step
    of :func:`_slice_matrices`, which samples V at the slice's two Gauss
    points.  The step is exact where V is constant across a slice, so
    piecewise-constant wells are reproduced exactly at any slice count; on
    smooth wells the error falls 16-fold per doubling of the slice count.
    """
    return transfer_matrix_batch([p], E, n_slices, cfg)[0]


def threshold_limit_r(bd: BoundaryData) -> complex:
    """Zero-energy reflection amplitude at a half-bound state.

    Valid only for boundary data computed at E = 0 whose derivative vectors at
    the two edges are parallel (|u2' v1' - u1' v2'| < 1e-8) -- the saturation
    condition.  Generic wells, which do not meet it, have r(0) = -1 and should
    be probed with :func:`reflection_wronskian` at small E instead.

    The limit is assembled from the re-based combination of u and v that
    saturates on both sides; for wells where u alone (or v alone) saturates,
    it reduces to the familiar two-term quotients
    (u1 v2' - u2 v1')/(u1 v2' + u2 v1') and its u/v mirror, up to overall sign.
    """
    if abs(bd.E) > 1e-12:
        raise ValueError(f"threshold limit requires boundary data at E = 0, got E = {bd.E}")
    if abs(bd.u2p * bd.v1p - bd.u1p * bd.v2p) >= 1e-8:
        raise NoHalfBoundStateError(
            "saturation condition not met: no half-bound state at these parameters "
            "(generic wells have r(0) = -1; evaluate reflection_wronskian at small E)"
        )
    num = bd.v2 * bd.u1p + bd.u1 * bd.v2p - bd.u2 * bd.v1p - bd.v1 * bd.u2p
    den = -bd.v2 * bd.u1p + bd.u1 * bd.v2p + bd.u2 * bd.v1p - bd.v1 * bd.u2p
    if abs(den) < 1e-300:
        raise DegenerateInputError("vanishing threshold-limit denominator")
    return complex(-num / den)


def count_nodes(samples, jitter_tol: float = 1e-12) -> int:
    """Strict sign changes along a sampled wavefunction.

    ``samples`` is an ordered sequence of (x, psi) pairs (or an (n, 2) array).
    Samples with |psi| < jitter_tol are plateau jitter and are ignored.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an ordered sequence of (x, psi) pairs")
    psi = arr[:, 1]
    sgn = np.sign(psi[np.abs(psi) >= jitter_tol])
    if sgn.size < 2:
        return 0
    return int(np.sum(sgn[1:] != sgn[:-1]))
