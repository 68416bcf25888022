"""Catalog of attractive one-dimensional potential wells.

Every well is an immutable value object carrying its evaluation rule, finite
support bounds, symmetry flag, and effective strength q = a*sqrt(V0) in units
2*mu = hbar^2 = 1 (so lengths and inverse-square-root energies share one unit
system and no conversion layer exists anywhere in the package).

Shapes
------
SquareWell        V(|x| < a)  = -V0
ExponentialWell   V(x)        = -V0 exp(-2|x|/a)
SolitonWell       V(x)        = -nu(nu-1) sech^2 x          (strength knob nu)
ParabolicWell     V(-a<x<0)   = -V0 (1 - x^2/a^2),
                  V(0<=x<b)   = -V0 (1 - x^2/b^2), 0 outside
SquareTriangular  V(|x|<=a)   = -V0 [1 + alpha (x-a)/(2a)], 0 outside
Sin2Multiwell     V(|x| < a)  = -V0 sin^2(m pi x / a), 0 outside (m = 1 or 2)
DeltaWell         -lambda * delta(x); no pointwise value, closed forms only

Asymptotically decaying kinds (ExponentialWell, SolitonWell) are truncated
where |V| falls below tail_tol * V0; the closed-form edges are
L = (a/2) ln(1/tail_tol) and L = arccosh(1/sqrt(tail_tol)) respectively.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "AnalyticOnlyError",
    "DEFAULT_TAIL_TOL",
    "KINDS",
    "Potential",
    "PotentialError",
    "PotentialFamily",
    "evaluate",
    "family_from_descriptor",
    "from_descriptor",
    "make_family",
    "make_potential",
    "support_bounds",
]

DEFAULT_TAIL_TOL = 1e-12

KINDS = (
    "SquareWell",
    "ExponentialWell",
    "SolitonWell",
    "ParabolicWell",
    "SquareTriangular",
    "Sin2Multiwell",
    "DeltaWell",
)

_REQUIRED = {
    "SquareWell": ("V0", "a"),
    "ExponentialWell": ("V0", "a"),
    "SolitonWell": ("nu",),
    "ParabolicWell": ("V0", "a", "b"),
    "SquareTriangular": ("V0", "a", "alpha"),
    "Sin2Multiwell": ("V0", "a", "m"),
    "DeltaWell": ("lambda",),
}


class PotentialError(ValueError):
    """Invalid potential kind or parameters."""


class AnalyticOnlyError(PotentialError):
    """The potential has no pointwise value (distributional profile)."""


@dataclass(frozen=True)
class Potential:
    """An immutable catalogued well; construct through :func:`make_potential`."""

    kind: str
    params: Mapping[str, float]
    support: tuple[float, float]
    symmetric: bool
    q: float

    def descriptor(self) -> dict:
        """JSON-ready descriptor echoed into every output file."""
        return {"kind": self.kind, "params": dict(self.params)}


def _positive(params: Mapping[str, float], name: str) -> float:
    v = float(params[name])
    if not math.isfinite(v) or v <= 0.0:
        raise PotentialError(f"parameter {name!r} must be positive, got {v}")
    return v


def make_potential(kind: str, params: Mapping[str, float], tail_tol: float = DEFAULT_TAIL_TOL) -> Potential:
    """Build a catalogued well, validating parameters for the kind."""
    if kind not in KINDS:
        raise PotentialError(f"unknown potential kind {kind!r}; known kinds: {', '.join(KINDS)}")
    required = _REQUIRED[kind]
    missing = [name for name in required if name not in params]
    if missing:
        raise PotentialError(f"{kind} requires parameters {required}; missing {missing}")
    extra = [name for name in params if name not in required]
    if extra:
        raise PotentialError(f"{kind} accepts parameters {required}; unexpected {extra}")
    if not (0.0 < tail_tol < 1.0):
        raise PotentialError(f"tail_tol must lie in (0, 1), got {tail_tol}")

    clean: dict[str, float] = {}
    if kind == "SolitonWell":
        nu = float(params["nu"])
        if not math.isfinite(nu) or nu <= 1.0:
            raise PotentialError(f"parameter 'nu' must exceed 1, got {nu}")
        clean["nu"] = nu
        q = math.sqrt(nu * (nu - 1.0))
        symmetric = True
    elif kind == "DeltaWell":
        lam = _positive(params, "lambda")
        clean["lambda"] = lam
        q = lam
        symmetric = True
    else:
        v0 = _positive(params, "V0")
        a = _positive(params, "a")
        clean["V0"] = v0
        clean["a"] = a
        q = a * math.sqrt(v0)
        symmetric = True
        if kind == "ParabolicWell":
            b = _positive(params, "b")
            clean["b"] = b
            symmetric = a == b
        elif kind == "SquareTriangular":
            alpha = float(params["alpha"])
            if not (0.0 <= alpha <= 1.0):
                raise PotentialError(f"parameter 'alpha' must lie in [0, 1], got {alpha}")
            clean["alpha"] = alpha
            symmetric = alpha == 0.0
        elif kind == "Sin2Multiwell":
            m = params["m"]
            if m not in (1, 2):
                raise PotentialError(f"parameter 'm' must be 1 or 2, got {m}")
            clean["m"] = int(m)

    support = _support(kind, clean, tail_tol)
    # params is a plain dict so Potential stays picklable for scan workers;
    # treat it as read-only.
    return Potential(kind=kind, params=clean, support=support, symmetric=symmetric, q=q)


def _support(kind: str, params: Mapping[str, float], tail_tol: float) -> tuple[float, float]:
    if kind in ("SquareWell", "SquareTriangular", "Sin2Multiwell"):
        a = params["a"]
        return (-a, a)
    if kind == "ParabolicWell":
        return (-params["a"], params["b"])
    if kind == "ExponentialWell":
        half = 0.5 * params["a"] * math.log(1.0 / tail_tol)
        return (-half, half)
    if kind == "SolitonWell":
        half = math.acosh(1.0 / math.sqrt(tail_tol))
        return (-half, half)
    return (0.0, 0.0)  # DeltaWell


def support_bounds(p: Potential, tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[float, float]:
    """Support edges (-L2, L1) outside which |V| <= tail_tol * V0."""
    if not (0.0 < tail_tol < 1.0):
        raise PotentialError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    return _support(p.kind, p.params, tail_tol)


def evaluate(p: Potential, x):
    """Pointwise V(x); accepts scalars or numpy arrays.

    Finite-support kinds return exactly 0 outside (and, for the open-interval
    kinds, at) their edges.  DeltaWell has no pointwise value.
    """
    if p.kind == "DeltaWell":
        raise AnalyticOnlyError("DeltaWell is analytic-only: it has no pointwise value")
    xa = np.asarray(x, dtype=float)
    prm = p.params
    if p.kind == "SquareWell":
        out = np.where(np.abs(xa) < prm["a"], -prm["V0"], 0.0)
    elif p.kind == "ExponentialWell":
        out = -prm["V0"] * np.exp(-2.0 * np.abs(xa) / prm["a"])
    elif p.kind == "SolitonWell":
        nu = prm["nu"]
        out = -nu * (nu - 1.0) / np.cosh(xa) ** 2
    elif p.kind == "ParabolicWell":
        a, b, v0 = prm["a"], prm["b"], prm["V0"]
        left = np.where((xa > -a) & (xa < 0.0), -v0 * (1.0 - xa**2 / a**2), 0.0)
        right = np.where((xa >= 0.0) & (xa < b), -v0 * (1.0 - xa**2 / b**2), 0.0)
        out = left + right
    elif p.kind == "SquareTriangular":
        a, v0, alpha = prm["a"], prm["V0"], prm["alpha"]
        out = np.where(np.abs(xa) <= a, -v0 * (1.0 + alpha * (xa - a) / (2.0 * a)), 0.0)
    else:  # Sin2Multiwell
        a, v0, m = prm["a"], prm["V0"], prm["m"]
        out = np.where(np.abs(xa) < a, -v0 * np.sin(m * math.pi * xa / a) ** 2, 0.0)
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def _parse_descriptor(desc) -> tuple[str, Mapping[str, float]]:
    """(kind, params) of a descriptor given as a dict or as JSON text."""
    if isinstance(desc, (str, bytes)):
        try:
            desc = json.loads(desc)
        except json.JSONDecodeError as e:
            raise PotentialError(f"descriptor is not valid JSON: {e}") from e
    if not isinstance(desc, dict) or "kind" not in desc:
        raise PotentialError('descriptor must be an object with "kind" and "params"')
    return desc["kind"], desc.get("params", {})


def from_descriptor(desc, tail_tol: float = DEFAULT_TAIL_TOL) -> Potential:
    """Build a well from a JSON descriptor {"kind": ..., "params": {...}}."""
    kind, params = _parse_descriptor(desc)
    return make_potential(kind, params, tail_tol=tail_tol)


@dataclass(frozen=True)
class PotentialFamily:
    """A catalogued shape with every parameter fixed except the strength knob.

    The knob is q = a*sqrt(V0) for all kinds except SolitonWell, whose natural
    knob is nu (its depth nu(nu-1) is not an independent parameter).  The
    length parameter a defaults to 1 when not fixed explicitly.
    """

    kind: str
    fixed: Mapping[str, float] = field(default_factory=dict)
    tail_tol: float = DEFAULT_TAIL_TOL

    def at(self, strength: float) -> Potential:
        """The member well with the given strength (q, or nu for SolitonWell)."""
        if self.kind == "SolitonWell":
            return make_potential("SolitonWell", {"nu": strength}, tail_tol=self.tail_tol)
        params = dict(self.fixed)
        a = params.get("a", 1.0)
        params["a"] = a
        params["V0"] = (strength / a) ** 2
        return make_potential(self.kind, params, tail_tol=self.tail_tol)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "params": dict(self.fixed)}


def make_family(kind: str, tail_tol: float = DEFAULT_TAIL_TOL, **fixed: float) -> PotentialFamily:
    """Family with free strength; fixed holds the kind's other parameters."""
    if kind not in KINDS:
        raise PotentialError(f"unknown potential kind {kind!r}; known kinds: {', '.join(KINDS)}")
    if kind == "DeltaWell":
        raise PotentialError("DeltaWell has no strength-scan family")
    probe = 1.5 if kind != "SolitonWell" else 2.5
    family = PotentialFamily(kind=kind, fixed=dict(fixed), tail_tol=tail_tol)
    family.at(probe)  # validate the fixed parameters eagerly
    return family


def family_from_descriptor(desc, tail_tol: float = DEFAULT_TAIL_TOL) -> PotentialFamily:
    """Family from a descriptor whose params omit the strength (V0 or nu)."""
    kind, params = _parse_descriptor(desc)
    fixed = {k: v for k, v in params.items() if k not in ("V0", "nu")}
    return make_family(kind, tail_tol=tail_tol, **fixed)
