"""Catalog of attractive one-dimensional potential wells.

Every well is a fixed shape scaled by a depth, V(x) = d * s(x), in units
2*mu = hbar^2 = 1 (so lengths and inverse-square-root energies share one unit
system).  One table holds every per-kind fact: parameter names, the rule
V(x, d, params) and the support edges.  Parameters are validated by name, d
comes from :func:`depth`, q = a*sqrt(d) (a = 1 when absent), and a well is
symmetric when a == b and alpha == 0.

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
from typing import Callable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "AnalyticOnlyError",
    "DEFAULT_TAIL_TOL",
    "KINDS",
    "Potential",
    "PotentialError",
    "PotentialFamily",
    "depth",
    "evaluate",
    "family_from_descriptor",
    "from_descriptor",
    "make_family",
    "make_potential",
]

DEFAULT_TAIL_TOL = 1e-12


class PotentialError(ValueError):
    """Invalid potential kind or parameters."""


class AnalyticOnlyError(PotentialError):
    """The potential has no pointwise value (distributional profile)."""


class _Kind(NamedTuple):
    """Parameter names (depth parameter first), rule V(x, d, params) at depth d
    (None: no pointwise value), and support edges (params, tail_tol) -> (-L2, L1)."""

    params: tuple[str, ...]
    shape: Callable | None
    edges: Callable


def _compact(prm, tail_tol):
    return (-prm["a"], prm.get("b", prm["a"]))


def _pm(half):
    return (-half, half)


def _parabolic(x, d, prm):
    a, b = prm["a"], prm["b"]
    left = np.where((x > -a) & (x < 0.0), -d * (1.0 - x**2 / a**2), 0.0)
    right = np.where((x >= 0.0) & (x < b), -d * (1.0 - x**2 / b**2), 0.0)
    return left + right


def _square_triangular(x, d, prm):
    a = prm["a"]
    return np.where(np.abs(x) <= a, -d * (1.0 + prm["alpha"] * (x - a) / (2.0 * a)), 0.0)


def _sin2(x, d, prm):
    a = prm["a"]
    return np.where(np.abs(x) < a, -d * np.sin(prm["m"] * math.pi * x / a) ** 2, 0.0)


_TABLE = {
    "SquareWell": _Kind(("V0", "a"), lambda x, d, prm: np.where(np.abs(x) < prm["a"], -d, 0.0), _compact),
    "ExponentialWell": _Kind(
        ("V0", "a"),
        lambda x, d, prm: -d * np.exp(-2.0 * np.abs(x) / prm["a"]),
        lambda prm, tol: _pm(0.5 * prm["a"] * math.log(1.0 / tol)),
    ),
    "SolitonWell": _Kind(
        ("nu",),
        lambda x, d, prm: -d / np.cosh(x) ** 2,
        lambda prm, tol: _pm(math.acosh(1.0 / math.sqrt(tol))),
    ),
    "ParabolicWell": _Kind(("V0", "a", "b"), _parabolic, _compact),
    "SquareTriangular": _Kind(("V0", "a", "alpha"), _square_triangular, _compact),
    "Sin2Multiwell": _Kind(("V0", "a", "m"), _sin2, _compact),
    "DeltaWell": _Kind(("lambda",), None, lambda prm, tol: (0.0, 0.0)),
}

KINDS = tuple(_TABLE)

_POSITIVE = (float, lambda v: math.isfinite(v) and v > 0.0, "must be positive")

#: Validity of each parameter by name: (conversion, test, requirement).
_VALID = {
    **dict.fromkeys(("V0", "a", "b", "lambda"), _POSITIVE),
    "nu": (float, lambda v: math.isfinite(v) and v > 1.0, "must exceed 1"),
    "alpha": (float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "m": (lambda m: int(m) if m in (1, 2) else m, lambda m: m in (1, 2), "must be 1 or 2"),
}

#: Depth d of each depth parameter's value.
_DEPTH = {"V0": lambda v0: v0, "nu": lambda nu: nu * (nu - 1.0), "lambda": lambda lam: lam}

#: Family knobs: (strength name, its floor, knob value at strength s and length a).
_KNOBS = {"V0": ("q", 0.0, lambda s, a: (s / a) ** 2), "nu": ("nu", 1.0, lambda s, a: s)}


def _spec(kind: str) -> _Kind:
    if kind not in KINDS:
        raise PotentialError(f"unknown potential kind {kind!r}; known kinds: {', '.join(KINDS)}")
    return _TABLE[kind]


def depth(params: Mapping[str, float]):
    """Depth d = V0, nu(nu - 1) for the sech^2 well, or lambda (elementwise on arrays)."""
    for name, rule in _DEPTH.items():
        if name in params:
            return rule(params[name])
    raise PotentialError(f"no depth parameter ({', '.join(_DEPTH)}) among {sorted(params)}")


@dataclass(frozen=True)
class Potential:
    """An immutable catalogued well; construct through :func:`make_potential`.

    Every numerical route integrates over ``support``, set by its tail_tol."""

    kind: str
    params: Mapping[str, float]
    support: tuple[float, float]
    symmetric: bool
    q: float

    def descriptor(self) -> dict:
        """JSON-ready descriptor echoed into every output file."""
        return {"kind": self.kind, "params": dict(self.params)}


def make_potential(kind: str, params: Mapping[str, float], tail_tol: float = DEFAULT_TAIL_TOL) -> Potential:
    """Build a catalogued well, validating parameters for the kind."""
    required = _spec(kind).params
    missing = [name for name in required if name not in params]
    if missing:
        raise PotentialError(f"{kind} requires parameters {required}; missing {missing}")
    extra = [name for name in params if name not in required]
    if extra:
        raise PotentialError(f"{kind} accepts parameters {required}; unexpected {extra}")
    if not (0.0 < tail_tol < 1.0):
        raise PotentialError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    # a plain dict; treat it as read-only
    clean = {}
    for name in required:
        convert, ok, requirement = _VALID[name]
        clean[name] = v = convert(params[name])
        if not ok(v):
            raise PotentialError(f"parameter {name!r} {requirement}, got {v}")
    a = clean.get("a", 1.0)
    q = clean["lambda"] if "lambda" in clean else a * math.sqrt(depth(clean))
    symmetric = clean.get("b", a) == a and clean.get("alpha", 0.0) == 0.0
    return Potential(kind=kind, params=clean, support=_TABLE[kind].edges(clean, tail_tol), symmetric=symmetric, q=q)


def evaluate(p: Potential, x):
    """Pointwise V(x); accepts scalars or numpy arrays.

    Finite-support kinds return exactly 0 outside (and, for the open-interval
    kinds, at) their edges.  DeltaWell has no pointwise value.
    """
    shape = _TABLE[p.kind].shape
    if shape is None:
        raise AnalyticOnlyError(f"{p.kind} is analytic-only: it has no pointwise value")
    xa = np.asarray(x, dtype=float)
    out = shape(xa, depth(p.params), p.params)
    return float(out) if xa.ndim == 0 else out


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

    The knob is V0, set through the strength q = a*sqrt(V0), for all kinds
    except SolitonWell, whose knob is nu itself (its depth nu(nu-1) is not an
    independent parameter).  The length parameter a defaults to 1 when not
    fixed explicitly.  Strengths must exceed the floor, the strength of zero
    depth (0 for q, 1 for nu).
    """

    kind: str
    fixed: Mapping[str, float] = field(default_factory=dict)
    tail_tol: float = DEFAULT_TAIL_TOL

    @property
    def knob(self) -> str:
        return _spec(self.kind).params[0]

    @property
    def floor(self) -> float:
        return _KNOBS[self.knob][1]

    def scaled(self, strengths) -> tuple[Potential, np.ndarray]:
        """The member at the first strength q_0 and the depth ratios d(q)/d(q_0).

        Members are V = d(q) s(x), so each ratio times that well is the member at q, to rounding.
        """
        qs = np.asarray(strengths, dtype=float)
        name, floor, to_knob = _KNOBS[self.knob]
        if not (qs > floor).all():
            raise PotentialError(f"every strength {name!r} must exceed {floor:g}")
        probe = self.at(float(qs.flat[0]))
        return probe, depth({self.knob: to_knob(qs, self.fixed.get("a", 1.0))}) / depth(probe.params)

    def at(self, strength: float) -> Potential:
        """The member well with the given strength (q, or nu for SolitonWell)."""
        required = _spec(self.kind).params
        name, floor, to_knob = _KNOBS[required[0]]
        if not strength > floor:
            raise PotentialError(f"parameter {name!r} must exceed {floor:g}, got {float(strength)}")
        params = dict(self.fixed)
        if "a" in required:
            params.setdefault("a", 1.0)
        params[required[0]] = to_knob(strength, params.get("a", 1.0))
        return make_potential(self.kind, params, tail_tol=self.tail_tol)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "params": dict(self.fixed)}


def make_family(kind: str, tail_tol: float = DEFAULT_TAIL_TOL, **fixed: float) -> PotentialFamily:
    """Family with free strength; fixed holds the kind's other parameters."""
    knob = _spec(kind).params[0]
    if knob not in _KNOBS:
        raise PotentialError(f"{kind} has no strength-scan family")
    if knob in fixed:
        raise PotentialError(f"{kind} family sets {knob!r} from its strength; it cannot be fixed")
    family = PotentialFamily(kind=kind, fixed=dict(fixed), tail_tol=tail_tol)
    family.at(family.floor + 1.5)  # validate the fixed parameters eagerly
    return family


def family_from_descriptor(desc, tail_tol: float = DEFAULT_TAIL_TOL) -> PotentialFamily:
    """Family from a descriptor whose params omit the strength knob (V0 or nu)."""
    kind, params = _parse_descriptor(desc)
    knob = _spec(kind).params[0]
    fixed = {k: v for k, v in params.items() if k != knob}
    return make_family(kind, tail_tol=tail_tol, **fixed)
