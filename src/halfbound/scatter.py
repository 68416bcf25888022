"""Numerical scattering engine for one-dimensional wells.

Integrates the stationary equation psi'' = (V(x) - E) psi with classical
fourth-order Runge-Kutta for the two fundamental solutions

    u(0) = 1, u'(0) = 0        v(0) = 0, v'(0) = 1

outward to both support edges, assembles the reflection amplitude from their
boundary values, and provides an independent transfer-matrix route that yields
both r and t.  The equation is linear, so one RK4 step is an exact 2x2 matrix
on (psi, psi'); every RK4 integration here is the ordered product of those
step matrices.  The two routes share only that product (a plain 2x2 reduction,
tested on its own) and potential evaluation; their step rules and sample
points stay separate, so their agreement is a genuine cross-check and is kept
that way on purpose.

Edge sampling: kinds with a jump at the support edge (square and
square-triangular profiles are defined on open/closed intervals) must never be
sampled *at* the edge by an integration stage, or the final Runge-Kutta stage
averages across the jump and ruins the order of the method.  All integration
grids therefore sample their outermost nodes at the interior one-sided limit,
nudged inward by 1e-9 of the support span.  Pointwise evaluation through
:func:`halfbound.potentials.evaluate` is unaffected.

Energies: the assemblers require E > 0; integration itself is valid at E = 0
(used for half-bound-state shooting) and performs no regularization there.
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
    "reflection_wronskian",
    "shoot",
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
        Transfer-matrix slice count (piecewise-constant approximation).
    tail_tol
        Relative truncation level for asymptotically decaying wells.
    """

    step: float | None = None
    n_slices: int = 4000
    tail_tol: float = potentials.DEFAULT_TAIL_TOL


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


def _grid_samples(p: Potential, x0: float, x1: float, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Potential at nodes/midpoints of an n-step grid x0 -> x1.

    The outermost node samples are nudged to the interior one-sided limit.
    Returns (V_nodes, V_midpoints, h) with h signed.
    """
    h = (x1 - x0) / n
    nodes = x0 + h * np.arange(n + 1)
    nodes[-1] = x1
    mids = x0 + h * (np.arange(n) + 0.5)
    lo, hi = p.support
    eps = EDGE_FRACTION * max(hi - lo, 1.0)
    inward = -eps if x1 >= x0 else eps
    nodes[-1] += inward
    if abs(x0 - lo) < eps or abs(x0 - hi) < eps:
        nodes[0] -= inward
    return potentials.evaluate(p, nodes), potentials.evaluate(p, mids), h


def _traverse(p: Potential, cfg: GridConfig):
    """Grids of a left edge -> right edge traverse with a node at the origin.

    Yields (x0, V_nodes, V_midpoints, h) for the segments -L2 -> 0 and 0 -> L1.
    """
    lo, hi = potentials.support_bounds(p, cfg.tail_tol)
    h_target = _step(p, cfg)
    for x0, x1 in ((lo, 0.0), (0.0, hi)):
        n = max(int(math.ceil((x1 - x0) / h_target)), 16)
        yield (x0, *_grid_samples(p, x0, x1, n))


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


def _rk4_steps(gn: np.ndarray, gm: np.ndarray, h: float, scale=1.0):
    """Classical RK4 step matrices of psi'' = g psi, in chunks along the grid.

    ``gn`` holds g at the n + 1 grid nodes and ``gm`` at the n midpoints.  Each
    chunk is multiplied by ``scale`` (a scalar, or one batch axis of depths) and
    laid out (2, 2, *batch, steps); matrix i maps (psi, psi') at node i to node
    i + 1 exactly as one RK4 step of width h does.  With a, b, c = g at node i,
    the midpoint and node i + 1 that matrix is

        [[1 + h^2 (a + 2b)/6 + h^4 ab/24,                  h + h^3 b/6                  ],
         [h (a + 4b + c)/6 + h^3 b (a + c)/12,   1 + h^2 (2b + c)/6 + h^4 bc/24]],

    evaluated below in the variables A, B, C = h^2/6 times a, b, c.
    """
    s = np.asarray(scale, dtype=float)[..., None]
    width = max(_CHUNK // s.size, 1)
    h6 = h * h / 6.0
    gn = gn * h6
    gm = gm * h6
    n = gm.shape[0]
    for i in range(0, n, width):
        j = min(i + width, n)
        A = s * gn[i:j]
        B = s * gm[i:j]
        C = s * gn[i + 1:j + 1]
        m = np.empty((2, 2) + B.shape)
        m[0, 0] = 1.0 + A + B * (2.0 + 1.5 * A)
        m[0, 1] = h * (1.0 + B)
        m[1, 0] = (A + C + B * (4.0 + 3.0 * (A + C))) / h
        m[1, 1] = 1.0 + C + B * (2.0 + 1.5 * C)
        yield m


def _rk4_product(gn: np.ndarray, gm: np.ndarray, h: float, scale=1.0) -> tuple[np.ndarray, float]:
    """Propagator across the whole grid of :func:`_rk4_steps`, and its drift.

    Returns (P, drift): P is (2, 2, *batch), and drift is the largest
    |det(M_i ... M_0) - 1| over all steps (and the batch), which is the
    wronskian drift of the fundamental pair the columns of P hold.
    """
    total = np.eye(2).reshape((2, 2) + (1,) * np.ndim(scale))
    det = 1.0
    drift = 0.0
    for m in _rk4_steps(gn, gm, h, scale):
        total = _mul(_ordered_product(m), total)
        dets = det * np.cumprod(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], axis=-1)
        drift = max(drift, float(np.max(np.abs(dets - 1.0))))
        det = dets[..., -1:]
    return total, drift


def _side(p: Potential, E: float, edge: float, h_target: float) -> tuple[np.ndarray, float]:
    n = max(int(math.ceil(abs(edge) / h_target)), 16)
    vn, vm, h = _grid_samples(p, 0.0, edge, n)
    return _rk4_product(vn - E, vm - E, h)


def integrate_uv(p: Potential, E: float, cfg: GridConfig | None = None) -> BoundaryData:
    """Boundary values of the fundamental pair at both support edges.

    The step is halved (up to 6 times) until the wronskian drift is at most
    1e-8; exceeding that after refinement raises :class:`IntegrationError`.
    """
    cfg = cfg or GridConfig()
    lo, hi = potentials.support_bounds(p, cfg.tail_tol)
    if hi <= 0.0 or lo >= 0.0:
        raise ValueError(f"degenerate support {p.support} (origin must be interior)")
    h = _step(p, cfg)
    for _ in range(_MAX_HALVINGS + 1):
        right, d1 = _side(p, E, hi, h)
        left, d2 = _side(p, E, lo, h)
        drift = max(d1, d2)
        if drift <= DRIFT_TOL:
            # columns of each propagator are (u, u') and (v, v')
            (u1, v1), (u1p, v1p) = right.tolist()
            (u2, v2), (u2p, v2p) = left.tolist()
            k = math.sqrt(E) if E > 0.0 else 0.0
            return BoundaryData(
                u1=u1, v1=v1, u1p=u1p, v1p=v1p,
                u2=u2, v2=v2, u2p=u2p, v2p=v2p,
                E=E, k=k, L1=hi, L2=-lo, wronskian_drift=drift,
            )
        h *= 0.5
    raise IntegrationError(
        f"wronskian drift {drift:.3e} above {DRIFT_TOL:g} after {_MAX_HALVINGS} step halvings"
    )


def shoot(
    p: Potential,
    E: float,
    psi0: float = 1.0,
    dpsi0: float = 0.0,
    cfg: GridConfig | None = None,
    record: bool = False,
):
    """Integrate one solution left edge -> right edge with given start values.

    Starts at x = -L2 and crosses the well in two segments with a grid node
    exactly at the origin.  Returns (psi_L1, dpsi_L1) or, with ``record``,
    (xs, psi, dpsi) as numpy arrays over the whole traverse.
    """
    y = np.array([float(psi0), float(dpsi0)])
    xs, states = [], [y[:, None]]
    for x0, vn, vm, h in _traverse(p, cfg or GridConfig()):
        if not record:
            y = _rk4_product(vn - E, vm - E, h)[0] @ y
            continue
        xs.append(x0 + h * np.arange(1 if xs else 0, vm.size + 1))
        for m in _rk4_steps(vn - E, vm - E, h):
            prefix = _prefix_products(m)
            states.append(prefix[:, 0] * y[0] + prefix[:, 1] * y[1])
            y = states[-1][:, -1]
    if record:
        psi, dpsi = np.concatenate(states, axis=1)
        return np.concatenate(xs), psi, dpsi
    return float(y[0]), float(y[1])


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


def _slice_matrices(w2: np.ndarray, d: float) -> np.ndarray:
    """Exact constant-potential propagators of (psi, psi') over width d, (2, 2, n)."""
    osc = w2 > 0.0
    w = np.sqrt(np.abs(w2))
    wd = w * d
    c = np.where(osc, np.cos(wd), np.cosh(wd))
    # sin(wd)/w and sinh(wd)/w, both -> d as w -> 0
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(osc, np.sin(wd), np.sinh(wd)) / w
    s = np.where(w > 0.0, s, d)
    off = np.where(osc, -w * np.sin(wd), w * np.sinh(wd))
    return np.array([[c, s], [off, c]])


def transfer_matrix_rt(p: Potential, E: float, n_slices: int | None = None, cfg: GridConfig | None = None) -> ScatterResult:
    """Reflection and transmission from piecewise-constant slicing.

    Each slice uses the midpoint potential value and its exact
    constant-potential propagator, so piecewise-constant wells are reproduced
    exactly at any slice count.  For attractive wells every local wavenumber
    is real and no evanescent-overflow handling is needed; the cosh/sinh
    branch exists for completeness.
    """
    if E <= 0.0:
        raise ValueError(f"transfer-matrix route requires E > 0, got E = {E}")
    cfg = cfg or GridConfig()
    n = n_slices if n_slices is not None else cfg.n_slices
    if n < 1:
        raise ValueError(f"n_slices must be >= 1, got {n}")
    lo, hi = potentials.support_bounds(p, cfg.tail_tol)
    d = (hi - lo) / n
    mids = lo + d * (np.arange(n) + 0.5)
    vm = np.atleast_1d(np.asarray(potentials.evaluate(p, mids), dtype=float))
    total = _ordered_product(_slice_matrices(E - vm, d))
    k = math.sqrt(E)
    p11, p12 = total[0, 0], total[0, 1]
    p21, p22 = total[1, 0], total[1, 1]
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
