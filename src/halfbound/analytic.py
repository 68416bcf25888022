"""Closed-form reflection, bound states, and zero-energy wavefunctions.

The square well, the exponentially decaying well, the sech^2 soliton well, and
the Dirac delta well are exactly solvable.  This module evaluates their known
formulas directly -- reflection probabilities, the zero-energy (threshold)
limits, bound-state spectra, and the saturating zero-energy wavefunctions --
independently of the numerical engine in :mod:`halfbound.scatter`, so each can
serve as the other's cross-check.

Conventions: units 2*mu = hbar^2 = 1; k = sqrt(E) for E > 0; kappa = sqrt(-E)
for bound states; q = a*sqrt(V0); epsilon = E/V0.  Phases of complex
amplitudes follow the right-edge reference convention of the source formulas;
only |r|^2 is contract-bearing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from ._brent import brentq

__all__ = [
    "BoundSpectrum",
    "DegeneracyError",
    "ValidityError",
    "delta_well_R",
    "exp_well_bound_states",
    "exp_well_hbs",
    "exp_well_r_exact",
    "exp_well_r_threshold",
    "sech2_groundstate_check",
    "soliton_R",
    "square_well_R",
    "square_well_R0_limit",
    "square_well_hbs",
]

#: Tolerance for recognizing a critical strength in the threshold limit.
CRITICAL_TOL = 1e-12

#: Validity window of the small-energy exponential-well form, in ka.
THRESHOLD_KA_MAX = 0.05

#: Largest q = a sqrt(V0) of the exponential-well forms (series cancellation).
Q_MAX = 30.0


class ValidityError(ValueError):
    """Input lies outside a formula's validity window."""


class DegeneracyError(ArithmeticError):
    """A formula denominator is numerically zero; perturb the energy slightly."""


@dataclass(frozen=True)
class BoundSpectrum:
    """Negative-energy levels, strictly increasing, with parity labels."""

    energies: tuple[float, ...]
    parities: tuple[str, ...]
    count: int


def square_well_R(E: float, V0: float, a: float) -> float:
    """Reflection probability of the square well, E > 0.

    R = sin^2(2q sqrt(1+eps)) / [4 eps (eps+1) + sin^2(2q sqrt(1+eps))].
    """
    if E <= 0.0:
        raise ValueError("E must be positive here; use square_well_R0_limit for the threshold")
    if V0 <= 0.0 or a <= 0.0:
        raise ValueError(f"V0 and a must be positive, got V0={V0}, a={a}")
    q = a * math.sqrt(V0)
    eps = E / V0
    s2 = math.sin(2.0 * q * math.sqrt(1.0 + eps)) ** 2
    return s2 / (4.0 * eps * (eps + 1.0) + s2)


def square_well_R0_limit(q: float) -> float:
    """Threshold reflection of the square well: 0 at q = n*pi/2, else 1."""
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    n = round(2.0 * q / math.pi)
    if n >= 1 and abs(q - 0.5 * n * math.pi) < CRITICAL_TOL:
        return 0.0
    return 1.0


def square_well_hbs(n: int, a: float, x_samples) -> np.ndarray:
    """Zero-energy saturating wavefunction of the square well at q = n*pi/2.

    Odd n: sin(n pi x / 2a) inside, sgn(x) sin(n pi/2) outside.
    Even n: cos(n pi x / 2a) inside, cos(n pi/2) outside.
    Continuous with zero slope at |x| = a; normalization fixed to 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    xs = np.asarray(x_samples, dtype=float)
    inside = np.abs(xs) <= a
    if n % 2:
        plateau = math.sin(0.5 * n * math.pi)
        out = np.where(inside, np.sin(n * math.pi * xs / (2.0 * a)), np.sign(xs) * plateau)
    else:
        plateau = math.cos(0.5 * n * math.pi)
        out = np.where(inside, np.cos(n * math.pi * xs / (2.0 * a)), plateau)
    return out


def exp_well_r_exact(E: float, V0: float, a: float) -> complex:
    """Exact reflection amplitude of the exponentially decaying well, E > 0.

    The source formula, with q = a sqrt(V0),
        r = -(1/2) (q/2)^(-2ika) [Gamma(1+ika)/Gamma(1-ika)]
            * [J_{ika}(q)/J_{-ika}(q) + J'_{ika}(q)/J'_{-ika}(q)],
    keeps none of its prefactors.  With J_{ika}(q) = P S, J'_{ika}(q) = P S'/q,
    P = (q/2)^(ika)/Gamma(1+ika) and (S, S') from :func:`specfun.bessel_series`,
    J_{-ika}(q) = conj(P S) for real q, and P/conj(P) cancels the prefactor:
        r = -(1/2) (S/conj S + S'/conj S'),   R = cos^2(arg S - arg S').
    As E -> 0, S -> J0(q) and S' -> -q J1(q) are real, so R(0) = 1 unless J0
    or J1 vanishes; there that sum is O(ka) and imaginary, and R(0) = 0: the
    critical strengths (odd and even half-bound state) read off the formula.
    """
    if E <= 0.0:
        raise ValueError(f"E must be positive, got {E}")
    if V0 <= 0.0 or a <= 0.0:
        raise ValueError(f"V0 and a must be positive, got V0={V0}, a={a}")
    q = a * math.sqrt(V0)
    if q > Q_MAX:
        raise ValidityError(f"series evaluation needs q <= {Q_MAX:g}, got q = {q:g}")
    s, ds = specfun.bessel_series(1j * math.sqrt(E) * a, q)
    # |J| = |S|/|Gamma(1+ika)| >= |S|, and likewise |J'| >= |S'|/q
    if abs(s) < 1e-14 or abs(ds) < 1e-14 * q:
        raise DegeneracyError("Bessel denominator numerically zero; retry with perturbed E")
    return -0.5 * complex(s / np.conj(s) + ds / np.conj(ds))


def exp_well_r_threshold(E: float, V0: float, a: float) -> complex:
    """Small-energy reflection amplitude of the exponentially decaying well.

    First order in the (imaginary) Bessel order ika: each J_{+-ika}(q) becomes
    J(q) -+ ika (pi/2) Y(q), since the order derivative of J at order zero is
    (pi/2) Y0.  The unit-modulus prefactor (q/2)^(-2ika) Gamma(1+ika)/
    Gamma(1-ika) is kept exactly: it is pure phase but of first order in ka,
    so dropping it would cost O(ka) amplitude accuracy.

    Valid for 0 < ka <= 0.05 and q <= 30, the window of the exact form.
    """
    if E <= 0.0:
        raise ValueError(f"E must be positive, got {E}")
    if V0 <= 0.0 or a <= 0.0:
        raise ValueError(f"V0 and a must be positive, got V0={V0}, a={a}")
    ka = math.sqrt(E) * a
    if ka > THRESHOLD_KA_MAX:
        raise ValidityError(f"small-energy form valid for ka <= {THRESHOLD_KA_MAX}, got ka = {ka:g}")
    q = a * math.sqrt(V0)
    if q > Q_MAX:
        raise ValidityError(f"series evaluation needs q <= {Q_MAX:g}, got q = {q:g}")
    c = 1j * ka * 0.5 * math.pi
    j0 = specfun.bessel_j(0.0, q)
    j1 = specfun.bessel_j(1.0, q)
    y0 = specfun.bessel_y01(0, q)
    y1 = specfun.bessel_y01(1, q)
    frac0 = (j0 + c * y0) / (j0 - c * y0)
    frac1 = (j1 + c * y1) / (j1 - c * y1)
    ika = 1j * ka
    pref = cmath.exp(-2.0 * ika * math.log(0.5 * q)) * (
        specfun.gamma_complex(1.0 + ika) / specfun.gamma_complex(1.0 - ika)
    )
    return -0.5 * pref * (frac0 + frac1)


def exp_well_bound_states(q: float, a: float = 1.0) -> BoundSpectrum:
    """Bound spectrum of the exponentially decaying well.

    Even-parity levels are roots (in the order rho = kappa*a) of J'_rho(q),
    odd-parity levels of J_rho(q), with 0 < rho < q: the roots of the sums S'
    and S of :func:`specfun.bessel_series`, since the prefactor
    (q/2)^rho/Gamma(rho+1) is positive.  One pass per point of a 0.01 grid
    brackets both; each root is bisected to 1e-12.  E_n = -(kappa_n)^2.
    Order-roots below the grid floor are threshold states, not bound states,
    and are excluded.
    """
    if not (0.0 < q <= Q_MAX):
        raise ValueError(f"q must lie in (0, {Q_MAX:g}], got {q}")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    step = 0.01
    grid = np.arange(0.5 * step, q + 0.5 * step, step)
    grid = grid[grid <= q].tolist()
    sums = [specfun.bessel_series(g, q) for g in grid]
    levels: list[tuple[float, str]] = []
    for parity, which in (("even", 1), ("odd", 0)):
        vals = [float(pair[which]) for pair in sums]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                root = grid[i]
            elif vals[i] * vals[i + 1] < 0.0:
                root = brentq(lambda rho: float(specfun.bessel_series(rho, q)[which]),
                              grid[i], grid[i + 1], xtol=1e-12, rtol=8.9e-16)
            else:
                continue
            kappa = root / a
            levels.append((-kappa * kappa, parity))
    levels.sort()
    return BoundSpectrum(
        energies=tuple(e for e, _ in levels),
        parities=tuple(p for _, p in levels),
        count=len(levels),
    )


#: Largest argument at which the power-series J0/J1 can still be polished to
#: |J| < 1e-12 (the extended-precision series' cancellation floor passes
#: 1e-12 near z ~ 20); zero searches stop there.
_ZERO_SEARCH_MAX = 19.0


def _nearest_critical(q_c: float) -> tuple[float, str]:
    """Nearest zero of J0 (odd state) or J1 (even state), searched to z ~ 12.5."""
    best: tuple[float, float, str] | None = None
    for order, parity in ((0, "odd"), (1, "even")):
        for n in range(1, 11):
            if (n + order / 2.0 - 0.25) * math.pi > _ZERO_SEARCH_MAX:
                break
            z = specfun.bessel_zero(order, n)
            d = abs(z - q_c)
            if best is None or d < best[0]:
                best = (d, z, parity)
    assert best is not None
    return best[1], best[2]


def exp_well_hbs(q_c: float, a: float, x_samples) -> np.ndarray:
    """Zero-energy saturating wavefunction of the exponentially decaying well.

    At a zero of J0 the state is odd:  psi(x) = sgn(x) J0(q_c exp(-|x|/a));
    at a zero of J1 it is even:        psi(x) = J0(q_c exp(-|x|/a)).
    Both saturate to +-J0(0) = +-1 as |x| grows.
    """
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    zero, parity = _nearest_critical(q_c)
    if abs(q_c - zero) > 1e-6:
        raise ValidityError(
            f"q_c = {q_c:.8f} is not critical (nearest J0/J1 zero is {zero:.8f})"
        )
    xs = np.asarray(x_samples, dtype=float)
    body = np.array([specfun.bessel_j(0.0, q_c * math.exp(-abs(x) / a)) for x in np.atleast_1d(xs)])
    if parity == "odd":
        return np.sign(np.atleast_1d(xs)) * body
    return body


def soliton_R(E: float, nu: float) -> float:
    """Reflection probability of the sech^2 well of depth nu(nu-1).

    R = sin^2(nu pi) / (sin^2(nu pi) + sinh^2(pi k)).  For integer nu the sine
    vanishes identically and the well is reflectionless at every positive
    energy (the E -> 0+ limit is then 0 as well).
    """
    if E <= 0.0:
        raise ValueError(f"E must be positive, got {E}")
    if nu <= 1.0:
        raise ValueError(f"nu must exceed 1, got {nu}")
    s = 0.0 if nu == round(nu) else math.sin(math.pi * nu)
    if s == 0.0:
        return 0.0
    k = math.sqrt(E)
    return s * s / (s * s + math.sinh(math.pi * k) ** 2)


def delta_well_R(E: float, lam: float) -> float:
    """Reflection probability of the Dirac delta well: lambda^2/(lambda^2+4E).

    The one well that reflects fully at threshold no matter its strength:
    R(0) = 1 always (it supports a single bound state and never a saturating
    zero-energy state).
    """
    if E < 0.0:
        raise ValueError(f"E must be non-negative, got {E}")
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam * lam / (lam * lam + 4.0 * E)


def sech2_groundstate_check(x_samples) -> tuple[float, float]:
    """Residuals of the two exact states of V = -2 sech^2 x.

    Substitutes psi0 = sech x at E = -1 and the saturating psi* = tanh x at
    E = 0 into psi'' + (E - V) psi with analytic second derivatives; returns
    the two max-absolute residuals (both should be at rounding level).
    """
    xs = np.asarray(x_samples, dtype=float)
    sech = 1.0 / np.cosh(xs)
    tanh = np.tanh(xs)
    v = -2.0 * sech**2
    res_ground = np.max(np.abs((sech - 2.0 * sech**3) + (-1.0 - v) * sech))
    res_hbs = np.max(np.abs((-2.0 * sech**2 * tanh) + (0.0 - v) * tanh))
    return float(res_ground), float(res_hbs)
