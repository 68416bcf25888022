"""Brent's root finder and bounded minimiser: parity with scipy, and failures."""

import functools
import math

import pytest

from halfbound import _brent, analytic, cli, critical, potentials, specfun
from halfbound.scatter import GridConfig

RTOL = 8.9e-16


@pytest.fixture
def sp():
    return pytest.importorskip("scipy.optimize")


# -- brentq


@pytest.mark.parametrize(
    "f, a, b, xtol",
    [
        (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-13),
        (lambda x: math.exp(x) - 5.0, -3.0, 4.0, 1e-12),
        (lambda x: x ** 3 - x - 1.0, 1.0, 2.0, 2e-12),
        (lambda x: math.atan(1e4 * (x - 0.123)), -1.0, 7.0, 1e-12),  # nearly a step
        (lambda x: (x - 1.0) ** 5, 0.0, 2.5, 1e-6),  # nearly flat at the root
        (lambda x: (x - 1.0) ** 3, 0.0, 2.5, 1e-8),
        (lambda x: (x - 1.0) ** 5 + 1e-12 * (x - 1.0), 0.0, 2.5, 1e-12),
        (lambda x: 1e-9 * (x - 0.7) ** 3 + 1e-30 * x, 0.0, 3.0, 1e-13),  # nearly flat and tiny
        (lambda x: x - 1.0, 1.0, 3.0, 1e-12),  # root at the lower end
        (lambda x: x - 3.0, 1.0, 3.0, 1e-12),  # root at the upper end
    ],
)
def test_brentq_matches_scipy(sp, f, a, b, xtol):
    ours = _brent.brentq(f, a, b, xtol=xtol, rtol=RTOL)
    assert ours == sp.brentq(f, a, b, xtol=xtol, rtol=RTOL)


def _both(monkeypatch, module, sp, call):
    """call() with the package's brentq, then with scipy's in its place."""
    ours = call()
    monkeypatch.setattr(module, "brentq", sp.brentq)
    return ours, call()


@pytest.mark.parametrize("order, n", [(0, n) for n in range(1, 8)] + [(1, n) for n in range(1, 7)])
def test_bessel_zero_matches_scipy(sp, monkeypatch, order, n):
    ours, theirs = _both(monkeypatch, specfun, sp, lambda: specfun.bessel_zero(order, n))
    assert ours == theirs


@pytest.mark.parametrize("q", [2.0, 6.0, 18.0])
def test_exp_well_bound_states_match_scipy(sp, monkeypatch, q):
    ours, theirs = _both(monkeypatch, analytic, sp, lambda: analytic.exp_well_bound_states(q))
    assert ours.energies == theirs.energies and ours.count == theirs.count


def test_hbs_mismatch_root_matches_scipy(sp, monkeypatch):
    family = potentials.make_family("SquareWell", a=1.0)
    ours, theirs = _both(monkeypatch, critical, sp, lambda: critical.find_critical_q(family, (1.4, 1.8)).q_c)
    assert ours == theirs


def test_brentq_same_sign_bracket_is_value_error(sp):
    for solver in (_brent.brentq, sp.brentq):
        with pytest.raises(ValueError):
            solver(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=RTOL)


def test_brentq_gives_up_where_scipy_does(sp):
    def flat(x):  # no float meets xtol 1e-12 in 100 iterations
        return (x - 1.0) ** 5

    with pytest.raises(ArithmeticError, match="not converged in 100 iterations"):
        _brent.brentq(flat, 0.0, 2.5, xtol=1e-12, rtol=RTOL)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        sp.brentq(flat, 0.0, 2.5, xtol=1e-12, rtol=RTOL)


def test_brentq_not_converged_is_arithmetic_error():
    with pytest.raises(ArithmeticError, match="not converged in 3 iterations"):
        _brent.brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-12, rtol=RTOL, maxiter=3)


def test_brentq_nan_is_arithmetic_error():
    with pytest.raises(ArithmeticError, match="NaN"):
        _brent.brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, xtol=1e-12, rtol=RTOL)


# -- bounded minimiser


def _square_R_at(E, q):
    well = potentials.make_family("SquareWell", a=1.0).at(q)
    return cli._results(well, "transfer", GridConfig(), E)[0].R


def _square_R(E):
    return functools.partial(_square_R_at, E)


@pytest.mark.parametrize(
    "f, lo, hi, xatol",
    [
        (lambda x: (x - 0.3) ** 2 + 1.0, -1.0, 2.0, 1e-5),
        (lambda x: (x - 0.3) ** 2 + 1.0, -1.0, 2.0, 1e-10),
        (lambda x: abs(x - 0.37), 0.0, 1.0, 1e-10),
        (lambda x: x * x, 1.0, 2.0, 1e-10),  # minimum at the lower bound
        (lambda x: -x, 1.0, 2.0, 1e-10),  # minimum at the upper bound
        (_square_R(0.01), 1.5, 1.6, 1e-10),
        (_square_R(0.1), 1.5, 1.6, 1e-10),
    ],
)
def test_minimize_scalar_matches_scipy(sp, f, lo, hi, xatol):
    ours = _brent.minimize_scalar(f, lo, hi, xatol=xatol)
    theirs = sp.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    assert theirs.success
    assert (ours.x, ours.fun, ours.nfev) == (theirs.x, theirs.fun, theirs.nfev)


def test_minimize_scalar_maxfun_is_arithmetic_error():
    with pytest.raises(ArithmeticError, match="not converged in 3 evaluations"):
        _brent.minimize_scalar(lambda x: (x - 0.3) ** 2, -1.0, 2.0, xatol=1e-10, maxfun=3)


def test_minimize_scalar_nan_is_arithmetic_error():
    with pytest.raises(ArithmeticError, match="NaN"):
        _brent.minimize_scalar(lambda x: math.nan if x > 0.5 else x * x, -1.0, 2.0, xatol=1e-10)
