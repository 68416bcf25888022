"""Exact oracle for the square-triangular well from Airy functions.

On |x| <= a the well V = -d [1 + alpha (x - a)/(2a)], d = (q/a)^2, is linear:
V = -c0 - c1 x with c0 = d (1 - alpha/2) and c1 = d alpha/(2a).  With
s = c1^(1/3) and z = -s (x + (c0 + E)/c1), the equation psi'' = (V - E) psi
becomes Airy's psi_zz = z psi, so inside the well psi = C Ai(z) + D Bi(z) and
psi' = -s (C Ai'(z) + D Bi'(z)).

* Critical strengths: the E = 0 state with psi'(-a) = 0 has psi'(a) = 0 too
  exactly where Ai'(z1) Bi'(z2) - Ai'(z2) Bi'(z1) = 0, z1 = z(a), z2 = z(-a).
* Scattering: psi = e^{ikx} + r e^{-ikx} left of the well and t e^{ikx} right
  of it, matched in value and slope at x = -a and x = a: four linear equations
  in (r, t, C, D).

Every function needs mpmath and skips the calling test without it.  Arguments
and results are Python floats; the work runs at 40 significant digits.
"""

import functools

import pytest

DPS = 40


def _mp():
    return pytest.importorskip("mpmath")


def _airy_data(mp, q, E, alpha, a):
    """(s, z1, z2) of the well at strength q and energy E."""
    q, E, alpha, a = (mp.mpf(v) for v in (q, E, alpha, a))
    d = (q / a) ** 2
    c0, c1 = d * (1 - alpha / 2), d * alpha / (2 * a)
    s = mp.cbrt(c1)
    shift = (c0 + E) / c1
    return s, -s * (a + shift), -s * (-a + shift)


def _critical_q_mp(mp, guess, alpha, a):
    def det(q):
        _, z1, z2 = _airy_data(mp, q, 0, alpha, a)
        return mp.airyai(z1, 1) * mp.airybi(z2, 1) - mp.airyai(z2, 1) * mp.airybi(z1, 1)

    return mp.findroot(det, mp.mpf(guess))


def _amplitude_mp(mp, q, E, alpha, a):
    """Reflection amplitude r at E > 0 from the four matching conditions."""
    s, z1, z2 = _airy_data(mp, q, E, alpha, a)
    k, a = mp.sqrt(mp.mpf(E)), mp.mpf(a)
    em, ep = mp.expj(-k * a), mp.expj(k * a)
    # unknowns (r, t, C, D); rows: value and slope at -a, then at +a
    m = mp.matrix([
        [-ep, 0, mp.airyai(z2), mp.airybi(z2)],
        [1j * k * ep, 0, -s * mp.airyai(z2, 1), -s * mp.airybi(z2, 1)],
        [0, -ep, mp.airyai(z1), mp.airybi(z1)],
        [0, -1j * k * ep, -s * mp.airyai(z1, 1), -s * mp.airybi(z1, 1)],
    ])
    rhs = mp.matrix([em, 1j * k * em, 0, 0])
    return mp.lu_solve(m, rhs)[0]


@functools.lru_cache(maxsize=None)
def critical_q(guess, alpha=1.0, a=1.0):
    """The critical strength nearest ``guess``."""
    mp = _mp()
    with mp.workdps(DPS):
        return float(_critical_q_mp(mp, guess, alpha, a))


@functools.lru_cache(maxsize=None)
def reflection(q, E, alpha=1.0, a=1.0):
    """R = |r|^2 at strength q and energy E > 0."""
    mp = _mp()
    with mp.workdps(DPS):
        return float(abs(_amplitude_mp(mp, q, E, alpha, a)) ** 2)


@functools.lru_cache(maxsize=None)
def threshold_r(guess, alpha=1.0, a=1.0):
    """|r(0)| at the critical strength nearest ``guess``: |r(E)| at E = 1e-30 (k = 1e-15)."""
    mp = _mp()
    with mp.workdps(DPS):
        return float(abs(_amplitude_mp(mp, _critical_q_mp(mp, guess, alpha, a), mp.mpf("1e-30"), alpha, a)))
