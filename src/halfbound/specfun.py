"""Special-function kernel: complex gamma, Bessel J of complex order, Y0/Y1, J zeros.

The scattering amplitude of the exponentially decaying well and its bound-state
conditions live entirely in Bessel functions whose *order* is imaginary (ika for
scattering states, kappa*a for bound states).  Library routines for real order
do not cover this, so the kernel below evaluates everything from first
principles:

* ``gamma_complex`` -- Lanczos rational approximation (g = 7, 9 terms) with the
  reflection formula for Re(z) < 1/2.  Good to >= 12 significant digits for
  |z| <= 50.
* ``bessel_series`` -- one pass of the ascending power series gives the bare
  sums of J_nu and, term by term, J'_nu (``bessel_j``, ``bessel_j_prime`` add
  the prefactor), for real or complex order: one code path, no asymptotic
  switching, accumulated in extended precision (numpy longdouble or
  clongdouble) for every order.  The alternating series cancels down from a
  largest term of order e^z/(pi z).  Against 40-digit mpmath, for orders
  1e-3i to 2i and 0.3+0.7i: relative error <= 4e-15 up to z = 12, <= 6e-10 at
  z = 24 and <= 6e-7 at z = 29; real orders stay within 1e-12 absolute up to
  z = 20 and 2e-8 at z = 30; ``bessel_j`` and ``bessel_j_prime`` raise
  ValueError beyond z = 30.
* ``bessel_y01`` -- Neumann functions Y0, Y1 from the standard logarithmic
  series, also summed in extended precision.  Against 40-digit mpmath: 2e-16
  absolute up to z = 12, 6e-13 at z = 20, 6e-11 at z = 24, 1e-8 at z = 30.
* ``bessel_zero`` -- zeros of J0/J1 by McMahon initial guesses plus Brent
  polish.

All functions are pure and stateless; unrestricted concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._brent import brentq

__all__ = [
    "ConvergenceError",
    "EULER_GAMMA",
    "MAX_ORDER",
    "bessel_j",
    "bessel_j_prime",
    "bessel_series",
    "bessel_y01",
    "bessel_zero",
    "gamma_complex",
    "identity_residuals",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

#: Largest |order| accepted by the series evaluator.
MAX_ORDER = 50.0

_SERIES_CAP = 200
_SERIES_RTOL = 1e-17
# m = 1 .. _SERIES_CAP as longdouble scalars, built once for the series loop
_M = tuple(np.arange(1, _SERIES_CAP + 1, dtype=np.longdouble))

# Lanczos approximation, g = 7, n = 9 (Godfrey/Pugh coefficient set).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class ConvergenceError(ArithmeticError):
    """Power series failed to converge within the term cap."""


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument.

    Raises ValueError at the poles (non-positive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # reflection keeps the rational approximation on its accurate half-plane
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    z -= 1.0
    x = complex(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def bessel_series(nu: float | complex, z: float) -> tuple:
    """One pass of the series: (S, S') = (sum t_m, sum (nu + 2m) t_m).

    t_0 = 1, t_m = -t_{m-1} (z/2)^2 / (m (nu + m)); J_nu(z) = pref S and
    J'_nu(z) = pref S'/z with pref = (z/2)^nu / Gamma(nu+1).  The sums are
    longdouble for a float order and clongdouble otherwise.  Unchecked: the
    caller keeps z > 0 and |nu| <= MAX_ORDER; beyond z ~ 30 ConvergenceError.

    Real orders near (but not at) a negative integer are fine: nu + m is exact
    in the Sterbenz band around -m, and the huge 1/(nu+m) factor in the sum
    cancels against the gamma pole in the prefactor.  Exact negative integers
    raise ValueError; :func:`bessel_j` reflects them to positive order first.
    """
    num = np.longdouble(nu) if isinstance(nu, float) else np.clongdouble(nu)
    w = np.longdouble(0.25 * z) * np.longdouble(z)
    term = np.longdouble(1.0)
    total = np.longdouble(1.0)
    dtotal = num
    for m in _M:
        nu_m = num + m
        denom = m * nu_m
        if denom == 0.0:
            raise ValueError(f"order {nu} is a negative integer; no series")
        term = -term * w / denom
        total = total + term
        dterm = (nu_m + m) * term
        dtotal = dtotal + dterm
        if abs(term) <= _SERIES_RTOL * abs(total) and abs(dterm) <= _SERIES_RTOL * abs(dtotal):
            return total, dtotal
    raise ConvergenceError(
        f"Bessel series did not converge for nu={nu}, z={z} "
        f"within {_SERIES_CAP} terms (use z <= ~30)"
    )


def _bessel(nu: complex, z: float) -> tuple:
    """(J_nu(z), J'_nu(z)) from one :func:`bessel_series` pass, validated.

    Negative integer orders use J_{-n} = (-1)^n J_n, which carries over to J'.
    Both come back as floats for real orders and complex otherwise.
    """
    if not 0.0 < z <= 30.0:  # beyond 30 the series cancels to a wrong answer
        raise ValueError(f"argument must lie in (0, 30], got z = {z}")
    nu_c = complex(nu)
    if abs(nu_c) > MAX_ORDER:
        raise ValueError(f"|order| = {abs(nu_c):g} exceeds maximum {MAX_ORDER:g}")
    if nu_c.imag == 0.0:
        nu, sign, kind = nu_c.real, 1.0, float
        if nu < 0.0 and nu == math.floor(nu):
            nu, sign = -nu, (-1.0 if int(-nu) % 2 else 1.0)
        pref = sign * math.exp(nu * math.log(0.5 * z)) / math.gamma(nu + 1.0)
    else:
        nu, kind = nu_c, complex
        pref = cmath.exp(nu * math.log(0.5 * z)) / gamma_complex(nu + 1.0)
    s, ds = bessel_series(nu, z)
    return pref * kind(s), pref * kind(ds) / z


def bessel_j(nu: complex, z: float) -> complex | float:
    """Bessel function of the first kind, complex order, positive real argument.

    Ascending power series
        J_nu(z) = sum_m (-1)^m (z/2)^(nu+2m) / (m! Gamma(nu+m+1)).
    Returns a float when the order is real, complex otherwise.
    """
    return _bessel(nu, z)[0]


def bessel_j_prime(nu: complex, z: float) -> complex | float:
    """d/dz J_nu(z), the term-by-term derivative of the series of J_nu:

        J'_nu(z) = sum_m (-1)^m (nu+2m)/z (z/2)^(nu+2m) / (m! Gamma(nu+m+1)),
    summed in the same pass as J_nu.  Float for real order, complex otherwise.
    """
    return _bessel(nu, z)[1]


def bessel_y01(order: int, z: float) -> float:
    """Neumann functions Y0(z) or Y1(z) from the logarithmic series, summed in
    extended precision with harmonic numbers H_m:

        (pi/2) Y0 = (ln(z/2) + gamma) J0 - S/2,
        (pi/2) Y1 = (ln(z/2) + gamma) J1 - 1/z - (z/4) S,
        S = sum_m (H_m + H_{m+order}) (-z^2/4)^m / (m! (m+order)!).
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    if z <= 0.0:
        raise ValueError(f"argument must be positive, got z = {z}")
    w = np.longdouble(0.25 * z) * np.longdouble(z)
    u = np.longdouble(1.0)
    h = np.longdouble(0.0)
    total = np.longdouble(order)  # the m = 0 term
    for m in _M:
        u = -u * w / (m * (m + order))
        h = h + 1 / m
        term = (h + h + order / (m + 1)) * u
        total = total + term
        if abs(term) <= _SERIES_RTOL * abs(total):
            break
    else:
        raise ConvergenceError(f"Y{order} series did not converge for z={z}")
    logterm = math.log(0.5 * z) + EULER_GAMMA
    if order == 0:
        return (2.0 / math.pi) * (logterm * bessel_j(0.0, z) - 0.5 * float(total))
    return (2.0 / math.pi) * (logterm * bessel_j(1.0, z) - 1.0 / z - 0.25 * z * float(total))


def bessel_zero(order: int, n: int) -> float:
    """n-th positive zero of J0 or J1.

    McMahon's asymptotic guess brackets the root; Brent polishes it until
    |J(root)| < 1e-12.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    if n < 1:
        raise ValueError(f"zero index must be >= 1, got {n}")
    beta = (n + 0.5 * order - 0.25) * math.pi
    mu = 4.0 * order * order
    guess = beta - (mu - 1.0) / (8.0 * beta)

    def f(x: float) -> float:
        return bessel_j(float(order), x)

    lo, hi = guess - 0.3, guess + 0.3
    if f(lo) * f(hi) > 0.0:  # first zero of J1 sits farther from its guess
        lo, hi = guess - 0.8, guess + 0.8
    root = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    if abs(f(root)) >= 1e-12:
        raise ArithmeticError(f"zero polish failed for J{order}, n={n}")
    return float(root)


def identity_residuals() -> dict[str, float]:
    """Residuals of classical identities, for the command-line self check."""
    out: dict[str, float] = {}
    # Gamma(z+1) = z Gamma(z)
    for z in (0.7 + 2.1j, 3.5 - 0.4j, 12.0 + 9.0j):
        r = abs(gamma_complex(z + 1.0) - z * gamma_complex(z)) / abs(gamma_complex(z + 1.0))
        out[f"gamma_recurrence_z={z}"] = r
    # J_{nu-1} + J_{nu+1} = (2 nu / z) J_nu
    for nu, z in ((0.5, 2.0), (1.5 + 0.5j, 4.0), (3.0, 10.0)):
        lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
        rhs = (2.0 * nu / z) * bessel_j(nu, z)
        out[f"j_recurrence_nu={nu}_z={z}"] = abs(lhs - rhs)
    # J1 Y0 - J0 Y1 = 2/(pi z)
    for z in (0.5, 2.4, 10.0):
        w = bessel_j(1.0, z) * bessel_y01(0, z) - bessel_j(0.0, z) * bessel_y01(1, z)
        out[f"jy_wronskian_z={z}"] = abs(w - 2.0 / (math.pi * z))
    # J'_0 = -J_1
    for z in (1.3, 2.404825557695773, 6.0):
        out[f"j0_prime_plus_j1_z={z}"] = abs(bessel_j_prime(0.0, z) + bessel_j(1.0, z))
    return out
