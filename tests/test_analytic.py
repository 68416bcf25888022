"""Closed-form amplitudes: frozen reference values and structural properties.

Reference literals come from a 50-digit mpmath oracle kept outside the
package; none of the code under test was used to generate them.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbound import analytic as an
from halfbound import specfun as sf

J01 = 2.404825557695773
J11 = 3.8317059702075125
J02 = 5.520078110286311


class TestSquareWell:
    def test_reference_value(self):
        # q = 1 (V0 = a = 1) at E = V0
        assert an.square_well_R(1.0, 1.0, 1.0) == pytest.approx(0.011724431718800962, rel=1e-12, abs=0)

    def test_r_plus_t_complement(self):
        R = an.square_well_R(0.37, 4.0, 1.0)
        assert 0.0 <= R <= 1.0

    def test_threshold_critical_small(self):
        V0 = (math.pi / 2.0) ** 2
        assert an.square_well_R(1e-10, V0, 1.0) == pytest.approx(2.4999999997855183e-11, rel=1e-4, abs=0)
        assert an.square_well_R(1e-8, V0, 1.0) == pytest.approx(2.4999999785518226e-09, rel=1e-4, abs=0)
        assert an.square_well_R(1e-10, V0, 1.0) < 1e-4

    def test_threshold_generic_full(self):
        # away from criticality R(E -> 0) -> 1
        assert an.square_well_R(1e-10, 1.0, 1.0) > 0.999999

    def test_limit_dichotomy(self):
        assert an.square_well_R0_limit(math.pi / 2.0) == 0.0
        assert an.square_well_R0_limit(math.pi) == 0.0
        assert an.square_well_R0_limit(1.0) == 1.0
        assert an.square_well_R0_limit(2.0) == 1.0

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            an.square_well_R(0.0, 1.0, 1.0)

    def test_hbs_profiles_neumann(self):
        xs = np.linspace(-1.0, 1.0, 401)
        for n in (1, 2, 3):
            psi = an.square_well_hbs(n, 1.0, xs)
            interior = np.sum(np.abs(np.diff(np.sign(psi[np.abs(psi) > 1e-12]))) > 1)
            assert interior == n
            # saturation: |psi| = 1 at both edges
            assert abs(abs(psi[0]) - 1.0) < 1e-12
            assert abs(abs(psi[-1]) - 1.0) < 1e-12


def _mpmath_R(E, q):
    """R of the exponential well (a = 1) from its closed form at 40 digits in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        ika = 1j * mpmath.sqrt(E)
        pref = mpmath.power(q / 2, -2 * ika) * mpmath.gamma(1 + ika) / mpmath.gamma(1 - ika)
        ratio = mpmath.besselj(ika, q) / mpmath.besselj(-ika, q) + mpmath.besselj(
            ika, q, derivative=1
        ) / mpmath.besselj(-ika, q, derivative=1)
        return float(abs(-0.5 * pref * ratio) ** 2)


class TestExponentialWellExact:
    def test_moderate_energy(self):
        assert abs(an.exp_well_r_exact(0.1, 5.76, 1.0)) ** 2 == pytest.approx(
            0.016958909069969493, rel=1e-10, abs=0
        )

    def test_lower_energy(self):
        assert abs(an.exp_well_r_exact(0.01, 5.76, 1.0)) ** 2 == pytest.approx(
            5.423075735480438e-03, rel=1e-10, abs=0
        )

    def test_amplitude_with_phase(self):
        got = an.exp_well_r_exact(1e-8, 1.69, 1.0)
        assert got == pytest.approx(-0.9999999643521751 + 0.00012175423115685838j, rel=1e-9, abs=0)

    def test_near_critical_threshold_suppression(self):
        assert abs(an.exp_well_r_exact(1e-5, J01 * J01, 1.0)) ** 2 == pytest.approx(
            1.8881479149127027e-06, rel=1e-8, abs=0
        )
        assert abs(an.exp_well_r_exact(1e-8, J01 * J01, 1.0)) ** 2 == pytest.approx(
            1.8881962721148497e-09, rel=1e-6, abs=0
        )

    def test_generic_threshold_full_reflection(self):
        assert abs(an.exp_well_r_exact(1e-8, 1.0, 1.0)) ** 2 == pytest.approx(
            0.9999999118042889, abs=1e-10
        )
        assert abs(an.exp_well_r_exact(1e-8, 1.44, 1.0)) ** 2 == pytest.approx(
            0.9999999379048142, abs=1e-10
        )

    def test_strength_cap(self):
        with pytest.raises(an.ValidityError):
            an.exp_well_r_exact(0.1, 31.0**2, 1.0)

    def test_unit_modulus_bound(self):
        for E in (1e-6, 1e-3, 0.3, 2.0, 9.0):
            r = an.exp_well_r_exact(E, 5.0, 1.0)
            assert abs(r) <= 1.0 + 1e-12


def _prefactor_form_r(E, q):
    """The source formula with its gamma and Bessel prefactors, for a = 1:
    -(1/2) (q/2)^(-2ika) Gamma(1+ika)/Gamma(1-ika) [J/conj J + J'/conj J']."""
    ika = 1j * math.sqrt(E)
    j, jp = sf.bessel_j(ika, q), sf.bessel_j_prime(ika, q)
    pref = cmath.exp(-2.0 * ika * math.log(0.5 * q)) * sf.gamma_complex(1.0 + ika) / sf.gamma_complex(1.0 - ika)
    return -0.5 * pref * (j / j.conjugate() + jp / jp.conjugate())


class TestExponentialWellPrefactorCancellation:
    """The bare-sum amplitude equals the source formula with every prefactor."""

    @pytest.mark.parametrize("q", [0.5, J01, 6.0, 12.0, 24.0, 30.0])
    def test_equals_prefactor_form(self, q):
        for E in (1e-10, 1e-8, 1e-5, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            assert abs(an.exp_well_r_exact(E, q * q, 1.0) - _prefactor_form_r(E, q)) <= 1e-14, E

    def test_needs_no_gamma_and_no_bessel_prefactor(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("prefactor function called")

        want = an.exp_well_r_exact(0.01, 5.76, 1.0)
        for name in ("gamma_complex", "bessel_j", "bessel_j_prime"):
            monkeypatch.setattr(sf, name, forbidden)
        assert an.exp_well_r_exact(0.01, 5.76, 1.0) == want

    @pytest.mark.parametrize("q", [J01, J11, J02])
    def test_threshold_collapse_at_bessel_zeros(self, q):
        # R(0) = 0 where J0 or J1 vanishes; elsewhere R(0) = 1
        assert abs(an.exp_well_r_exact(1e-12, q * q, 1.0)) ** 2 < 1e-10
        assert abs(an.exp_well_r_exact(1e-12, (q + 0.3) ** 2, 1.0)) ** 2 > 1.0 - 1e-9


class TestExponentialWellExactWindow:
    """The closed form across its whole window q <= 30, against mpmath."""

    ENERGIES = (1e-10, 1e-5, 1e-2, 0.5)

    @pytest.mark.parametrize(
        "q, rel",
        [(J01, 1e-12), (6.0, 1e-12), (12.0, 1e-12), (18.0, 1e-10), (24.0, 1e-8), (29.0, 1e-5), (30.0, 1e-5)],
    )
    def test_relative_error_in_R(self, q, rel):
        for E in self.ENERGIES:
            # at q_c and E = 1e-10, R is ~2e-11 and the phase cancellation costs digits
            bound = 1e-7 if (q, E) == (J01, 1e-10) else rel
            got, want = abs(an.exp_well_r_exact(E, q * q, 1.0)) ** 2, _mpmath_R(E, q)
            assert abs(got - want) <= bound * want, E


class TestTable1CriticalColumnOracles:
    """The criterion-1 reference entries at E = 1e-5 closest to q_c, checked
    against two oracles that share no code with halfbound: the closed form at
    40 digits in mpmath, and a direct DOP853 integration of
    psi'' = (V - E) psi over x in [-25, 25] (|V| ~ 1e-21 at the edges)."""

    E = 1e-5
    ROWS = ("2.40482", "2.404825", "2.4048255")

    @staticmethod
    def _ivp_R(E, q, L=25.0):
        from scipy.integrate import solve_ivp

        k = math.sqrt(E)

        def rhs(x, y):
            return [y[1], (-q * q * math.exp(-2.0 * abs(x)) - E) * y[0]]

        # pure transmitted wave e^{ikx} on the right, integrated leftwards
        y0 = np.array([np.exp(1j * k * L), 1j * k * np.exp(1j * k * L)])
        sol = solve_ivp(rhs, (L, -L), y0, method="DOP853", rtol=1e-13, atol=1e-15)
        assert sol.success
        psi, dpsi = sol.y[0, -1], sol.y[1, -1]
        incident = 0.5 * (psi + dpsi / (1j * k)) * np.exp(1j * k * L)
        reflected = 0.5 * (psi - dpsi / (1j * k)) * np.exp(-1j * k * L)
        return abs(reflected / incident) ** 2

    def _reference(self):
        from test_acceptance import TABLE1_REFERENCE

        # the last column of each row is R(E = 1e-5)
        return [(float(q), TABLE1_REFERENCE[q][-1]) for q in self.ROWS]

    def test_against_mpmath_closed_form(self):
        for q, ref in self._reference():
            assert ref == pytest.approx(_mpmath_R(self.E, q), rel=1e-3, abs=0), q

    def test_against_direct_integration(self):
        for q, ref in self._reference():
            assert ref == pytest.approx(self._ivp_R(self.E, q), rel=1e-3, abs=0), q


class TestExponentialWellThreshold:
    def test_matches_exact_at_contract_point(self):
        d = abs(
            an.exp_well_r_threshold(1e-8, 1.0, 1.0) - an.exp_well_r_exact(1e-8, 1.0, 1.0)
        )
        assert d < 1e-6

    def test_agreement_grid(self):
        # |delta r| <= 1e-4 for ka <= 1e-4 across q in [0.5, 6]
        worst = 0.0
        for q in np.arange(0.5, 6.01, 0.25):
            for ka in (1e-5, 1e-4):
                E = ka * ka
                d = abs(an.exp_well_r_threshold(E, q * q, 1.0) - an.exp_well_r_exact(E, q * q, 1.0))
                worst = max(worst, d)
        assert worst <= 1e-4
        assert worst <= 1e-8  # measured headroom: ~4e-10

    def test_near_critical_smallness(self):
        # at the first critical strength the threshold amplitude collapses
        assert abs(an.exp_well_r_threshold(1e-6, J01 * J01, 1.0)) < 1e-3

    def test_ka_validity_cap(self):
        with pytest.raises(an.ValidityError):
            an.exp_well_r_threshold(0.5, 4.0, 1.0)

    @pytest.mark.parametrize("q", [30.5, 40.0, 50.0])
    def test_strength_cap(self, q):
        # the exact form's window: beyond q = 30 the series' digits are gone
        with pytest.raises(an.ValidityError):
            an.exp_well_r_threshold(1e-8, q * q, 1.0)

    def test_strength_cap_edge_is_inside(self):
        d = abs(an.exp_well_r_threshold(1e-8, 900.0, 1.0) - an.exp_well_r_exact(1e-8, 900.0, 1.0))
        assert d < 1e-6

    def test_pole_correspondence(self):
        # poles of the threshold fractions sit where J0/J1 vanish: residuals
        # of J at the located strengths are at rounding level
        for order, n in ((0, 1), (1, 1), (0, 2)):
            z = sf.bessel_zero(order, n)
            assert abs(sf.bessel_j(float(order), z)) < 1e-8


class TestExponentialWellBoundStates:
    @pytest.mark.parametrize(
        "q, energies, parities",
        [
            (0.5, (-0.013264457826257,), ("even",)),
            (3.0, (-3.816943658643901, -0.160641325345018), ("even", "odd")),
            (3.831706, (-7.150872381712504, -1.000000044206669), ("even", "odd")),
            (
                5.520078,
                (-17.500795225866177, -5.313029658820333, -1.284605089660976),
                ("even", "odd", "even"),
            ),
        ],
    )
    def test_spectra(self, q, energies, parities):
        got = an.exp_well_bound_states(q)
        assert got.count == len(energies)
        assert got.parities == parities
        for e_got, e_want in zip(got.energies, energies):
            assert e_got == pytest.approx(e_want, rel=1e-8, abs=1e-9)

    def test_count_at_first_critical_excludes_threshold_state(self):
        # exactly at criticality the new state sits at E = 0 and is not bound
        got = an.exp_well_bound_states(2.404826)
        assert got.count == 1

    def test_ordering(self):
        got = an.exp_well_bound_states(5.6)
        assert list(got.energies) == sorted(got.energies)
        assert got.count == 4


class TestExponentialWellHbs:
    def test_node_counts(self):
        xs = np.linspace(-14.0, 14.0, 4001)
        for q, n_nodes in ((J01, 1), (J11, 2), (J02, 3)):
            psi = an.exp_well_hbs(q, 1.0, xs)
            sgn = np.sign(psi[np.abs(psi) > 1e-9])
            crossings = int(np.sum(sgn[1:] * sgn[:-1] < 0))
            assert crossings == n_nodes

    def test_saturation(self):
        xs = np.array([-30.0, 30.0])
        psi = an.exp_well_hbs(J01, 1.0, xs)
        np.testing.assert_allclose(np.abs(psi), 1.0, atol=1e-10)

    def test_parities(self):
        xs = np.linspace(-5.0, 5.0, 11)
        odd = an.exp_well_hbs(J01, 1.0, xs)
        np.testing.assert_allclose(odd, -odd[::-1], atol=1e-12)
        even = an.exp_well_hbs(J11, 1.0, xs)
        np.testing.assert_allclose(even, even[::-1], atol=1e-12)

    def test_rejects_noncritical(self):
        with pytest.raises(an.ValidityError):
            an.exp_well_hbs(3.0, 1.0, np.linspace(-1, 1, 5))


class TestSoliton:
    def test_integer_reflectionless(self):
        for nu in (2.0, 3.0, 4.0):
            for E in (1e-4, 0.1, 1.0, 10.0):
                assert an.soliton_R(E, nu) == 0.0

    @pytest.mark.parametrize(
        "E, want",
        [
            (1.0, 0.007441950142796213),
            (0.5, 0.04596039327063194),
            (2.0, 0.0005532236629402225),
        ],
    )
    def test_half_integer_values(self, E, want):
        assert an.soliton_R(E, 2.5) == pytest.approx(want, rel=1e-12, abs=0)

    def test_generic_threshold_full(self):
        assert an.soliton_R(1e-12, 2.5) > 0.999999

    def test_sech2_states_satisfy_equation(self):
        res_ground, res_hbs = an.sech2_groundstate_check(np.linspace(-6, 6, 301))
        assert res_ground < 1e-12
        assert res_hbs < 1e-12

    def test_negative_control_wrong_energy(self):
        # the ground-state shape at the wrong energy must NOT satisfy the
        # equation: guards against a residual check that trivially passes
        xs = np.linspace(-3, 3, 101)
        sech = 1.0 / np.cosh(xs)
        v = -2.0 * sech**2
        bad = np.max(np.abs((sech - 2.0 * sech**3) + (0.0 - v) * sech))
        assert bad > 0.1


class TestDeltaWell:
    def test_reference(self):
        assert an.delta_well_R(1.0, 2.0) == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_full_reflection_at_threshold_always(self):
        for lam in (0.5, 2.0, 11.0):
            assert an.delta_well_R(0.0, lam) == 1.0

    def test_monotone_in_energy(self):
        Rs = [an.delta_well_R(E, 1.5) for E in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(Rs, Rs[1:]))


@settings(max_examples=80, deadline=None)
@given(E=st.floats(1e-6, 50.0), V0=st.floats(0.05, 30.0), a=st.floats(0.2, 2.5))
def test_square_R_in_unit_interval(E, V0, a):
    R = an.square_well_R(E, V0, a)
    assert 0.0 <= R <= 1.0


@settings(max_examples=60, deadline=None)
@given(E=st.floats(1e-6, 20.0), nu=st.floats(1.05, 4.95))
def test_soliton_R_in_unit_interval(E, nu):
    R = an.soliton_R(E, nu)
    assert 0.0 <= R <= 1.0


@settings(max_examples=40, deadline=None)
@given(E=st.floats(1e-4, 10.0), q=st.floats(0.3, 6.0))
def test_exp_exact_probability_conserved(E, q):
    R = abs(an.exp_well_r_exact(E, q * q, 1.0)) ** 2
    assert 0.0 <= R <= 1.0 + 1e-12
