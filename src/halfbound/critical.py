"""Half-bound-state detection and critical-strength search.

A well at critical strength supports a zero-energy solution that saturates to
constants on both sides: psi'(-L2) = 0 = psi'(+L1).  The E = 0 solution with
the left condition imposed,

    psi(-L2) = 1,  psi'(-L2) = 0,

is (v2', -u2') at the origin in the fundamental pair of scatter.integrate_uv,
so criticality is a root in q of its right-edge derivative, the saturation
determinant f(q) = psi'(L1) = u1' v2' - v1' u2'.  This works for arbitrary
catalogued wells -- asymmetric ones included, where the saturating state is a
genuine mixture of the even-like and odd-like fundamental solutions rather
than either alone.  The scan evaluates f on one batch of depth-scaled rows.

The number of interior nodes of the saturating state equals the number of
negative-energy bound states the well holds at that strength; away from
criticality the same zero-energy shot, continued past the right edge as the
straight line psi(L1) + psi'(L1)(x - L1), counts bound states by its
whole-line node count (Sturm oscillation).

The scan in q takes steps of 0.02.  The closest pair of critical strengths
measured is 0.87 apart (sin^2 with m = 2, up to q = 30); that is an
observation, not a bound.  ``bound_state_count_at`` is the certificate: across
a scanned window the bound-state count rises by exactly the number of roots
found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials, scatter
from ._brent import brentq
from .potentials import PotentialFamily
from .scatter import GridConfig

__all__ = [
    "HbsResult",
    "NoRootError",
    "bound_state_count_at",
    "critical_spectrum",
    "find_critical_q",
    "hbs_mismatch",
]

#: Default scan step for bracket hunting in q.
SCAN_STEP = 0.02

#: Residual/parity classification tolerance.
PARITY_TOL = 1e-8

#: Fraction of the support span added as saturated plateau on each side of a
#: stored profile (the zero-energy state is exactly constant there).
PLATEAU_PAD = 0.12


class NoRootError(ValueError):
    """The bracket contains no critical point."""


@dataclass(frozen=True)
class HbsResult:
    """A located half-bound state.

    ``profile`` is the sampled (x, psi) polyline across the support, extended
    on both sides by the exact constant plateaus; ``node_count`` is its number
    of interior sign changes; the residuals are |psi'| at the two support
    edges (the left one is imposed, the right one is the root residual).
    ``parity`` is "even"/"odd" for symmetric wells and "none" otherwise.
    """

    q_c: float
    node_count: int
    profile: np.ndarray
    left_residual: float
    right_residual: float
    parity: str


def hbs_mismatch(family: PotentialFamily, q: float, cfg: GridConfig | None = None) -> float:
    """Saturation determinant u1' v2' - v1' u2' = psi'(L1) of the left-saturating E = 0 solution.

    Roots in q are the critical strengths.  (At q -> 0 the solution is the
    trivial constant with no node; the search ranges used here start above
    that.)
    """
    return _saturation(scatter.integrate_uv(family.at(q), 0.0, cfg))


def _saturation(bd: scatter.BoundaryData) -> float:
    return bd.u1p * bd.v2p - bd.v1p * bd.u2p


def _mismatch_batch(family: PotentialFamily, qs: np.ndarray, cfg: GridConfig | None) -> np.ndarray:
    """Vectorized hbs_mismatch over many strengths.

    Every catalogued well is a fixed shape scaled by a depth, V = d(q) s(x), so
    the well sampled once at q_0 serves every q in the scan, scaled by the
    depth ratio d(q)/d(q_0); the strengths are the rows of one E = 0 batch.
    """
    probe = family.at(float(qs[0]))
    scales = family.depths(qs) / potentials.depth(probe.params)
    return np.array([_saturation(bd) for bd in scatter.integrate_uv_batch(probe, 0.0, cfg, scales)])


def find_critical_q(family: PotentialFamily, bracket: tuple[float, float], cfg: GridConfig | None = None) -> HbsResult:
    """Locate one critical strength inside a sign-changing bracket.

    Brent root of :func:`hbs_mismatch` to |dq| <= 1e-10, then a re-shot at the
    root fills the sampled profile, node count, edge residuals, and (for
    symmetric wells) the parity classification.
    """
    q_lo, q_hi = bracket
    if not (0.0 < q_lo < q_hi):
        raise ValueError(f"bracket must satisfy 0 < q_lo < q_hi, got {bracket}")
    f_lo = hbs_mismatch(family, q_lo, cfg)
    f_hi = hbs_mismatch(family, q_hi, cfg)
    if f_lo == 0.0:
        q_c = q_lo
    elif f_hi == 0.0:
        q_c = q_hi
    elif f_lo * f_hi > 0.0:
        raise NoRootError(
            f"no critical point in range ({q_lo:g}, {q_hi:g}): "
            f"mismatch {f_lo:.3e} -> {f_hi:.3e} does not change sign"
        )
    else:
        q_c = brentq(lambda q: hbs_mismatch(family, q, cfg), q_lo, q_hi, xtol=1e-12, rtol=8.9e-16)
    return _result_at(family, float(q_c), cfg)


def _result_at(family: PotentialFamily, q_c: float, cfg: GridConfig | None) -> HbsResult:
    p = family.at(q_c)
    xs, psi, dpsi = scatter.shoot(p, E=0.0, psi0=1.0, dpsi0=0.0, cfg=cfg, record=True)
    interior = np.column_stack([xs, psi])
    nodes = scatter.count_nodes(interior)
    span = xs[-1] - xs[0]
    npad = max(int(PLATEAU_PAD * xs.size), 2)
    pad = span * PLATEAU_PAD
    left_x = np.linspace(xs[0] - pad, xs[0], npad, endpoint=False)
    right_x = np.linspace(xs[-1], xs[-1] + pad, npad + 1)[1:]
    prof_x = np.concatenate([left_x, xs, right_x])
    prof_psi = np.concatenate([np.full(npad, psi[0]), psi, np.full(npad, psi[-1])])
    # parity classification against the state rebased to the origin
    parity = "none"
    if p.symmetric:
        i0 = int(np.argmin(np.abs(xs)))
        scale = max(np.max(np.abs(psi)), 1.0)
        if abs(psi[i0]) < PARITY_TOL * scale:
            parity = "odd"
        elif abs(dpsi[i0]) < PARITY_TOL * scale:
            parity = "even"
    return HbsResult(
        q_c=q_c,
        node_count=nodes,
        profile=np.column_stack([prof_x, prof_psi]),
        left_residual=0.0,
        right_residual=abs(dpsi[-1]),
        parity=parity,
    )


def critical_spectrum(
    family: PotentialFamily,
    q_max: float,
    q_min: float | None = None,
    cfg: GridConfig | None = None,
) -> list[HbsResult]:
    """All critical strengths up to q_max, by 0.02-step scan plus polish.

    The scan starts one step above the family's floor, its strength of zero
    depth (q = 0, or nu = 1 for the sech^2 well).  Node counts along the
    returned list increase by exactly one per entry.
    """
    if q_max > 30.0:
        raise ValueError(f"q_max must be <= 30, got {q_max}")
    if q_min is None:
        q_min = family.floor + SCAN_STEP
    if not (q_min < q_max):
        raise ValueError(f"need q_min < q_max, got {q_min} >= {q_max}")
    n = int(math.ceil((q_max - q_min) / SCAN_STEP)) + 1
    qs = np.linspace(q_min, q_max, n)
    fs = _mismatch_batch(family, qs, cfg)
    out: list[HbsResult] = []
    for i in range(n - 1):
        if fs[i] == 0.0:
            out.append(_result_at(family, float(qs[i]), cfg))
        elif fs[i] * fs[i + 1] < 0.0:
            out.append(find_critical_q(family, (float(qs[i]), float(qs[i + 1])), cfg))
    return out


def bound_state_count_at(family: PotentialFamily, q: float, cfg: GridConfig | None = None) -> int:
    """Number of negative-energy bound states at strength q.

    Counts the nodes of the left-saturating zero-energy solution over the
    whole line: interior sign changes, plus the one the straight-line
    continuation adds past the right edge when psi(L1) and psi'(L1) have
    opposite signs.  By Sturm oscillation this equals the bound-state count.
    At criticality (psi'(L1) = 0) the continuation is flat and the count is
    the node count of the saturating state itself; exactly at a root the
    product test is fragile, so keep q away from q_c by more than ~1e-9.
    """
    p = family.at(q)
    xs, psi, dpsi = scatter.shoot(p, E=0.0, psi0=1.0, dpsi0=0.0, cfg=cfg, record=True)
    nodes = scatter.count_nodes(np.column_stack([xs, psi]))
    if psi[-1] * dpsi[-1] < 0.0:
        nodes += 1
    return int(nodes)
