"""The square-triangular well against its exact Airy-function solution (tests/_airy.py).

Inside the well V is linear, so the critical strengths and R(E) follow from
Airy functions to 40 digits.  The bounds are at least ten times the measured
errors: q_c within 1.8e-13, R within 2.0e-12 relative on the wronskian route
and 4.9e-12 on the transfer route.
"""

import pytest

import _airy
from halfbound import critical as cr
from halfbound import potentials as pot
from halfbound import scatter as sc

pytest.importorskip("mpmath")


@pytest.mark.parametrize("alpha, roots", [(0.5, 3), (1.0, 2)])
def test_critical_strengths(alpha, roots):
    found = cr.critical_spectrum(pot.make_family("SquareTriangular", a=1.0, alpha=alpha), 6.0)
    assert len(found) == roots
    for r in found:
        assert abs(r.q_c - _airy.critical_q(r.q_c, alpha)) <= 2e-12


def test_first_critical_strength_value():
    # the root mpmath finds from the determinant Ai'(z1) Bi'(z2) - Ai'(z2) Bi'(z1)
    assert abs(_airy.critical_q(2.53) - 2.531707989520215) <= 1e-15


@pytest.mark.parametrize("route", ["wronskian", "transfer"])
@pytest.mark.parametrize("q", [2.0, "q_c", 3.5])
@pytest.mark.parametrize("E", [1e-6, 1e-3, 0.1, 2.0])
def test_reflection(route, q, E):
    q = _airy.critical_q(2.53) if q == "q_c" else q
    p = pot.make_family("SquareTriangular", a=1.0, alpha=1.0).at(q)
    if route == "transfer":
        R = sc.transfer_matrix_rt(p, E).R
    else:
        R = sc.reflection_wronskian(sc.integrate_uv(p, E)).R
    exact = _airy.reflection(q, E)
    assert abs(R - exact) <= 5e-11 * exact
