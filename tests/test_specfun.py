"""Special-function kernel: frozen reference values and identity properties.

Reference literals were produced with a 50-digit mpmath script kept outside
the package, then frozen here; the kernel under test shares no code with it.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbound import specfun as sf

J01 = 2.404825557695773  # first zero of J0, frozen from the oracle


class TestGamma:
    def test_abs_gamma_one_plus_i(self):
        assert abs(sf.gamma_complex(1 + 1j)) == pytest.approx(0.5215640468649398, rel=1e-13, abs=0)

    def test_right_half_plane(self):
        got = sf.gamma_complex(0.5 + 3j)
        assert got == pytest.approx(0.021445670552430646 + 0.006865364837261678j, rel=1e-12, abs=0)

    def test_reflection_quadrant(self):
        got = sf.gamma_complex(-1.5 + 0.5j)
        assert got == pytest.approx(0.9379166627878851 + 0.34920566814780485j, rel=1e-12, abs=0)

    def test_large_modulus(self):
        got = sf.gamma_complex(20 + 20j)
        assert got == pytest.approx(12322153606700.21 - 9813622771582.521j, rel=1e-12, abs=0)

    def test_real_axis_matches_math(self):
        assert sf.gamma_complex(4.7).real == pytest.approx(math.gamma(4.7), rel=1e-13, abs=0)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles_raise(self, z):
        with pytest.raises(ValueError):
            sf.gamma_complex(z)

    def test_unit_modulus_ratio(self):
        # |Gamma(1+iy)/Gamma(1-iy)| = 1: the ratio only carries phase
        for y in (1e-4, 0.03, 0.7):
            ratio = sf.gamma_complex(1 + 1j * y) / sf.gamma_complex(1 - 1j * y)
            assert abs(ratio) == pytest.approx(1.0, abs=1e-13)


class TestGammaAgainstMpmath:
    """gamma_complex against mpmath.gamma at 40 digits, |z| <= 50 (worst
    measured 1.9e-13, at 0.5+49j)."""

    POLAR = [cmath.rect(r, math.pi * (k + 0.5) / 12) for r in (0.05, 0.5, 1.0, 2.5, 7.0, 15.0, 30.0, 49.5) for k in range(24)]
    NEAR_IMAGINARY = [1e-3j, -1e-3j, 0.02j, 1j, 10j, 49j, 0.5 + 49j, -0.5 + 30j, 1e-4 + 20j, -1e-4 + 5j]
    REFLECTION = [-1.5 + 0.5j, -20.5 + 0.1j, -35.5 + 3j, -49.5 + 0.5j, -7.25 - 2j]

    @pytest.mark.parametrize("points", [POLAR, NEAR_IMAGINARY, REFLECTION], ids=["polar", "near-imaginary", "reflection"])
    def test_relative_error(self, points):
        mpmath = pytest.importorskip("mpmath")
        for z in points:
            with mpmath.workdps(40):
                want = complex(mpmath.gamma(z))
            assert abs(sf.gamma_complex(z) - want) <= 1e-12 * abs(want), z


class TestBesselJ:
    def test_complex_order(self):
        got = sf.bessel_j(0.3 + 0.7j, 2.5)
        assert got == pytest.approx(0.32922268420061945 + 0.5417965299354893j, rel=1e-12, abs=0)

    def test_imaginary_order_small(self):
        got = sf.bessel_j(0.02j, 1.7)
        assert got == pytest.approx(0.39821874616801217 + 0.014201514013780664j, rel=1e-12, abs=0)

    def test_imaginary_order_derivative(self):
        got = sf.bessel_j_prime(0.02j, 1.7)
        assert got == pytest.approx(-0.5780200923659142 + 0.008949071004292626j, rel=1e-12, abs=0)

    def test_negative_integer_order_reflection(self):
        assert sf.bessel_j(-3, 4.2) == pytest.approx(-0.4343942763872008, rel=1e-12, abs=0)
        assert sf.bessel_j(-2.0, 3.7) == pytest.approx(0.42832965620657587, rel=1e-12, abs=0)

    def test_half_odd_order(self):
        assert sf.bessel_j(2.5, 7.0) == pytest.approx(-0.2834366512016992, rel=1e-11, abs=0)

    def test_negative_fractional_order(self):
        assert sf.bessel_j(-0.8, 1.2) == pytest.approx(-0.17841889829459912, rel=1e-12, abs=0)

    def test_real_order_returns_float(self):
        assert isinstance(sf.bessel_j(1.5, 2.0), float)
        assert isinstance(sf.bessel_j(0.3 + 0.1j, 2.0), complex)

    def test_argument_must_be_positive(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0.5, 0.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            sf.bessel_j(60.0, 1.0)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 0.5j])
    def test_argument_window_ends_at_thirty(self, nu):
        # the series cancels to a wrong answer beyond z = 30 (J0(50) read 0.0340, not 0.0558)
        assert math.isfinite(abs(sf.bessel_j(nu, 30.0)))
        for z in (30.5, 50.0):
            with pytest.raises(ValueError, match="30"):
                sf.bessel_j(nu, z)
            with pytest.raises(ValueError, match="30"):
                sf.bessel_j_prime(nu, z)

    def test_prime_at_small_argument(self):
        # J1'(z) -> 1/2 as z -> 0
        assert sf.bessel_j_prime(1.0, 1e-6) == pytest.approx(0.5, abs=1e-9)

    def test_prime_identity_j0(self):
        for z in (0.7, 2.4, 5.1):
            assert sf.bessel_j_prime(0.0, z) == pytest.approx(-sf.bessel_j(1.0, z), abs=1e-12)


class TestBesselSeries:
    def test_order_zero_sums_are_j0_and_minus_z_j1(self):
        # the prefactor is 1 at order 0: S = J0(z) and S' = z J0'(z) = -z J1(z)
        for z in (0.7, J01, 6.0):
            s, ds = sf.bessel_series(0.0, z)
            assert float(s) == sf.bessel_j(0.0, z)
            assert float(ds) == pytest.approx(-z * sf.bessel_j(1.0, z), rel=1e-14, abs=1e-15)

    def test_complex_order_sums_carry_the_prefactor_of_j(self):
        nu, z = 0.3 + 0.7j, 2.5
        s, ds = sf.bessel_series(nu, z)
        pref = cmath.exp(nu * math.log(0.5 * z)) / sf.gamma_complex(nu + 1.0)
        assert pref * complex(s) == sf.bessel_j(nu, z)
        assert pref * complex(ds) / z == sf.bessel_j_prime(nu, z)


class TestBesselJComplexOrderAgainstMpmath:
    """Complex-order J and J' against mpmath.besselj at 40 digits, up to z = 29."""

    ORDERS = (1e-3j, 0.05j, 0.7j, 2j, 0.3 + 0.7j)
    CASES = [(2.4, 1e-13), (12.0, 1e-13), (24.0, 2e-9), (29.0, 2e-6)]

    @classmethod
    def _worst(cls, fn, z, derivative):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for nu in cls.ORDERS:
            with mpmath.workdps(40):
                want = complex(mpmath.besselj(nu, z, derivative=derivative))
            worst = max(worst, abs(fn(nu, z) - want) / abs(want))
        return worst

    @pytest.mark.parametrize("z, rel", CASES)
    def test_j(self, z, rel):
        assert self._worst(sf.bessel_j, z, 0) <= rel

    @pytest.mark.parametrize("z, rel", CASES)
    def test_j_prime(self, z, rel):
        assert self._worst(sf.bessel_j_prime, z, 1) <= rel


class TestNeumann:
    def test_y0_small_argument_log_divergence(self):
        assert sf.bessel_y01(0, 1e-3) == pytest.approx(-4.471416611375923, rel=1e-12, abs=0)
        assert sf.bessel_y01(0, 1e-3) < -4.0

    def test_values_at_first_j0_zero(self):
        assert sf.bessel_y01(0, J01) == pytest.approx(0.5099243834484791, rel=1e-12, abs=0)
        assert sf.bessel_y01(1, J01) == pytest.approx(0.10274668243825955, rel=1e-11, abs=0)

    def test_values_half(self):
        assert sf.bessel_y01(0, 0.5) == pytest.approx(-0.44451873350670656, rel=1e-12, abs=0)
        assert sf.bessel_y01(1, 0.5) == pytest.approx(-1.471472392670243, rel=1e-12, abs=0)

    def test_values_ten(self):
        assert sf.bessel_y01(0, 10.0) == pytest.approx(0.055671167283599395, rel=1e-9, abs=0)
        assert sf.bessel_y01(1, 10.0) == pytest.approx(0.24901542420695388, rel=1e-9, abs=0)

    def test_y0_prime_is_minus_y1(self):
        z, h = 2.0, 1e-6
        fd = (sf.bessel_y01(0, z + h) - sf.bessel_y01(0, z - h)) / (2 * h)
        assert fd == pytest.approx(-sf.bessel_y01(1, z), abs=1e-6)

    def test_wronskian(self):
        # J1 Y0 - J0 Y1 = 2/(pi z)
        for z in (0.5, 2.4, 10.0):
            w = sf.bessel_j(1.0, z) * sf.bessel_y01(0, z) - sf.bessel_j(0.0, z) * sf.bessel_y01(1, z)
            assert w == pytest.approx(2.0 / (math.pi * z), abs=1e-10)

    def test_order_restricted(self):
        with pytest.raises(ValueError):
            sf.bessel_y01(2, 1.0)

    @pytest.mark.parametrize(
        "z, tol",
        [(0.5, 1e-15), (2.4, 1e-15), (5.0, 1e-15), (10.0, 1e-15), (12.0, 1e-15),
         (20.0, 2e-12), (24.0, 2e-10), (29.0, 3e-8), (30.0, 3e-8)],
    )
    def test_against_mpmath(self, z, tol):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for order in (0, 1):
                assert abs(sf.bessel_y01(order, z) - float(mpmath.bessely(order, z))) <= tol


class TestZeros:
    @pytest.mark.parametrize(
        "order, n, want, tol",
        [
            (0, 1, 2.404826, 1e-5),
            (1, 1, 3.831706, 1e-4),
            (0, 2, 5.520078, 1e-4),
        ],
    )
    def test_contract_examples(self, order, n, want, tol):
        assert sf.bessel_zero(order, n) == pytest.approx(want, abs=tol)

    @pytest.mark.parametrize(
        "order, n, want",
        [
            (0, 1, 2.404825557695773),
            (0, 2, 5.520078110286311),
            (0, 3, 8.653727912911013),
            (1, 1, 3.8317059702075125),
            (1, 2, 7.015586669815619),
        ],
    )
    def test_high_precision(self, order, n, want):
        assert sf.bessel_zero(order, n) == pytest.approx(want, abs=2e-12)

    def test_residual_after_polish(self):
        z = sf.bessel_zero(0, 1)
        assert abs(sf.bessel_j(0.0, z)) < 1e-12

    def test_zeros_interlace(self):
        j0 = [sf.bessel_zero(0, n) for n in (1, 2, 3)]
        j1 = [sf.bessel_zero(1, n) for n in (1, 2)]
        assert j0[0] < j1[0] < j0[1] < j1[1] < j0[2]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sf.bessel_zero(2, 1)
        with pytest.raises(ValueError):
            sf.bessel_zero(0, 0)


@settings(max_examples=120, deadline=None)
@given(nu=st.floats(0.0, 5.0), z=st.floats(0.1, 20.0))
def test_recurrence_real_order(nu, z):
    lhs = sf.bessel_j(nu - 1.0, z) + sf.bessel_j(nu + 1.0, z)
    rhs = (2.0 * nu / z) * sf.bessel_j(nu, z)
    assert abs(lhs - rhs) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-2.0, 3.0),
    im=st.floats(0.01, 2.0),
    z=st.floats(0.2, 12.0),
)
def test_conjugation_symmetry(re, im, z):
    nu = complex(re, im)
    got = sf.bessel_j(nu.conjugate(), z)
    want = complex(sf.bessel_j(nu, z)).conjugate()
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(0.05, 20.0),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_gamma_recurrence(r, phi):
    z = cmath.rect(r, phi)
    if abs(z.imag) < 1e-6 and z.real <= 0.5:
        z += 0.5j  # stay clear of the pole line
    lhs = sf.gamma_complex(z + 1.0)
    rhs = z * sf.gamma_complex(z)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(0.5, 10.0),
    eps=st.floats(1e-6, 1e-4),
    direction=st.sampled_from([1.0, 1j, (1 + 1j) / math.sqrt(2)]),
)
def test_small_order_expansion(z, eps, direction):
    # J_nu(z) = J0(z) + nu (pi/2) Y0(z) + O(nu^2) uniformly on z in [0.5, 10]
    nu = eps * direction
    got = sf.bessel_j(nu, z)
    lin = sf.bessel_j(0.0, z) + nu * (math.pi / 2.0) * sf.bessel_y01(0, z)
    assert abs(got - lin) <= 5.0 * abs(nu) ** 2


def test_identity_residuals_all_small():
    res = sf.identity_residuals()
    assert res and max(res.values()) < 1e-10
