"""Critical strengths, half-bound-state profiles, node and bound-state counts."""

import math

import numpy as np
import pytest

from halfbound import analytic as an
from halfbound import critical as cr
from halfbound import potentials as pot
from halfbound import scatter as sc

J01 = 2.404825557695773
J11 = 3.8317059702075125
J02 = 5.520078110286311


@pytest.fixture(scope="module")
def square_family():
    return pot.make_family("SquareWell", a=1.0)


@pytest.fixture(scope="module")
def exp_family():
    return pot.make_family("ExponentialWell", a=1.0)


class TestMismatch:
    def test_zero_at_square_critical(self, square_family):
        assert abs(cr.hbs_mismatch(square_family, math.pi / 2.0)) < 1e-8

    def test_zero_at_exponential_critical(self, exp_family):
        assert abs(cr.hbs_mismatch(exp_family, J01)) < 1e-6

    def test_sign_change_brackets_critical(self, square_family):
        lo = cr.hbs_mismatch(square_family, 1.4)
        hi = cr.hbs_mismatch(square_family, 1.8)
        assert lo * hi < 0.0


class TestFindCritical:
    def test_square_first(self, square_family):
        res = cr.find_critical_q(square_family, (1.4, 1.8))
        assert res.q_c == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert res.node_count == 1
        assert res.parity == "odd"
        assert res.left_residual < 1e-8
        assert res.right_residual < 1e-8

    def test_square_second(self, square_family):
        res = cr.find_critical_q(square_family, (3.0, 3.3))
        assert res.q_c == pytest.approx(math.pi, abs=1e-8)
        assert res.node_count == 2
        assert res.parity == "even"

    def test_exponential_first(self, exp_family):
        res = cr.find_critical_q(exp_family, (2.2, 2.6))
        assert res.q_c == pytest.approx(J01, abs=1e-8)
        assert res.node_count == 1
        assert res.parity == "odd"

    def test_profile_saturates(self, exp_family):
        res = cr.find_critical_q(exp_family, (2.2, 2.6))
        xs, psi = res.profile[:, 0], res.profile[:, 1]
        # padded plateau: the outermost samples are constant
        assert abs(psi[0] - psi[1]) < 1e-12
        assert abs(psi[-1] - psi[-2]) < 1e-12
        assert xs[0] < -13.0 and xs[-1] > 13.0

    def test_no_root_raises(self, square_family):
        with pytest.raises(cr.NoRootError):
            cr.find_critical_q(square_family, (1.7, 2.0))


class TestSpectra:
    def test_square(self, square_family):
        res = cr.critical_spectrum(square_family, 5.0)
        got = [r.q_c for r in res]
        want = [math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-8)
        assert [r.node_count for r in res] == [1, 2, 3]
        assert [r.parity for r in res] == ["odd", "even", "odd"]

    def test_exponential_matches_bessel_zeros(self, exp_family):
        res = cr.critical_spectrum(exp_family, 6.0)
        got = [r.q_c for r in res]
        for g, w in zip(got, (J01, J11, J02)):
            assert g == pytest.approx(w, abs=1e-5)
        assert [r.node_count for r in res] == [1, 2, 3]

    def test_soliton_integers(self):
        fam = pot.make_family("SolitonWell")
        res = cr.critical_spectrum(fam, 4.5)
        got = [r.q_c for r in res]
        for g, w in zip(got, (2.0, 3.0, 4.0)):
            assert g == pytest.approx(w, abs=1e-8)
        assert [r.node_count for r in res] == [1, 2, 3]

    def test_node_count_monotone(self, exp_family):
        res = cr.critical_spectrum(exp_family, 6.0)
        counts = [r.node_count for r in res]
        assert counts == sorted(counts)
        assert all(b - a == 1 for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "kind, params, q_max",
        [
            ("SquareWell", {"a": 1.0}, 30.0),
            ("ExponentialWell", {"a": 1.0}, 6.0),
            ("ParabolicWell", {"a": 1.0, "b": 1.1}, 30.0),
            ("SquareTriangular", {"a": 1.0, "alpha": 0.5}, 30.0),
            ("Sin2Multiwell", {"a": 1.0, "m": 1}, 30.0),
            # holds the closest measured pair, 0.87 apart near q = 22.3
            ("Sin2Multiwell", {"a": 1.0, "m": 2}, 30.0),
        ],
    )
    def test_complete_by_bound_state_count(self, kind, params, q_max):
        fam = pot.make_family(kind, **params)
        res = cr.critical_spectrum(fam, q_max)
        q_min = fam.floor + cr.SCAN_STEP
        gained = cr.bound_state_count_at(fam, q_max) - cr.bound_state_count_at(fam, q_min)
        assert len(res) == gained
        assert [r.node_count for r in res] == list(range(1, len(res) + 1))

    def test_sin2_single_well(self):
        fam = pot.make_family("Sin2Multiwell", a=1.0, m=1)
        got = [r.q_c for r in cr.critical_spectrum(fam, 7.6)]
        want = (2.178, 5.927, 7.260)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-2)

    def test_sin2_double_well(self):
        fam = pot.make_family("Sin2Multiwell", a=1.0, m=2)
        got = [r.q_c for r in cr.critical_spectrum(fam, 6.6)]
        want = (2.212, 4.357, 6.257)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-2)

    def test_parabolic_symmetric(self):
        fam = pot.make_family("ParabolicWell", a=1.0, b=1.0)
        res = cr.critical_spectrum(fam, 5.0)
        assert res[0].q_c == pytest.approx(2.2631, abs=1e-3)
        assert res[0].parity == "odd"

    def test_parabolic_asymmetric(self):
        fam = pot.make_family("ParabolicWell", a=1.0, b=1.1)
        res = cr.critical_spectrum(fam, 5.0)
        assert res[0].q_c == pytest.approx(2.1550, abs=1e-3)
        assert res[0].parity == "none"


class TestAsymmetricThreshold:
    def test_tilted_square_partial_reflection(self):
        fam = pot.make_family("SquareTriangular", a=1.0, alpha=1.0)
        for r in cr.critical_spectrum(fam, 6.0):
            r0 = sc.threshold_limit_r(sc.integrate_uv(fam.at(r.q_c), 0.0))
            assert 0.0 < abs(r0) < 1.0
        # first critical's partial amplitude, frozen from the oracle
        first = cr.find_critical_q(fam, (2.4, 2.7))
        r0 = sc.threshold_limit_r(sc.integrate_uv(fam.at(first.q_c), 0.0))
        assert abs(r0) == pytest.approx(0.345499, abs=5e-4)

    def test_parabolic_asymmetric_partial_reflection(self):
        fam = pot.make_family("ParabolicWell", a=1.0, b=1.1)
        first = cr.find_critical_q(fam, (2.0, 2.3))
        r0 = sc.threshold_limit_r(sc.integrate_uv(fam.at(first.q_c), 0.0))
        assert 0.0 < abs(r0) < 1.0


class TestBoundStateCount:
    def test_square_steps_at_criticals(self, square_family):
        assert cr.bound_state_count_at(square_family, 1.0) == 1
        # the odd state born at q = pi/2 has strictly negative energy for any
        # q above it, so the count on (pi/2, pi) is 2
        assert cr.bound_state_count_at(square_family, 2.0) == 2
        assert cr.bound_state_count_at(square_family, 4.0) == 3

    def test_exponential_steps_at_criticals(self, exp_family):
        assert cr.bound_state_count_at(exp_family, 0.5) == 1
        assert cr.bound_state_count_at(exp_family, 3.0) == 2
        assert cr.bound_state_count_at(exp_family, 4.5) == 3

    def test_matches_analytic_spectrum(self, exp_family):
        for q in (0.5, 3.0, 5.6):
            assert cr.bound_state_count_at(exp_family, q) == an.exp_well_bound_states(q).count

    def test_perturbation_across_critical(self, exp_family):
        # crossing a critical strength binds exactly one more state
        below = cr.bound_state_count_at(exp_family, J01 - 1e-4)
        above = cr.bound_state_count_at(exp_family, J01 + 1e-4)
        assert above == below + 1

    def test_perturbation_across_square_critical(self, square_family):
        below = cr.bound_state_count_at(square_family, math.pi / 2.0 - 1e-4)
        above = cr.bound_state_count_at(square_family, math.pi / 2.0 + 1e-4)
        assert above == below + 1


class TestThresholdLink:
    def test_reflection_collapses_at_critical(self, exp_family):
        # R(E) at the located critical strength falls through 1e-3 and keeps
        # decreasing as E drops decade by decade
        res = cr.find_critical_q(exp_family, (2.2, 2.6))
        p = exp_family.at(res.q_c)
        Rs = [
            sc.reflection_wronskian(sc.integrate_uv(p, E)).R
            for E in (1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert Rs[-1] <= 1e-3
        assert all(a > b for a, b in zip(Rs, Rs[1:]))

    def test_generic_strength_stays_reflective(self, exp_family):
        p = exp_family.at(1.5)
        R = sc.reflection_wronskian(sc.integrate_uv(p, 1e-6)).R
        assert R > 0.99
