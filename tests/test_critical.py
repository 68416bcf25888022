"""Critical strengths, half-bound-state profiles, node and bound-state counts."""

import math

import numpy as np
import pytest

import _airy
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
    @pytest.mark.parametrize("fam_name, qs", [("square_family", (1.0, math.pi / 2.0, 2.9)), ("exp_family", (2.0, J01, 4.4))])
    def test_is_the_saturation_determinant(self, request, fam_name, qs):
        fam = request.getfixturevalue(fam_name)
        for q in qs:
            bd = sc.integrate_uv(fam.at(q), 0.0)
            assert cr.hbs_mismatch(fam, q) == bd.u1p * bd.v2p - bd.v1p * bd.u2p

    @pytest.mark.parametrize("fam_name, bracket", [("square_family", (1.4, 1.8)), ("exp_family", (2.2, 2.6))])
    def test_found_root_meets_the_threshold_condition(self, request, fam_name, bracket):
        fam = request.getfixturevalue(fam_name)
        res = cr.find_critical_q(fam, bracket)
        # raises NoHalfBoundStateError unless the saturation condition holds
        r0 = sc.threshold_limit_r(sc.integrate_uv(fam.at(res.q_c), 0.0))
        assert abs(r0) <= 1e-6  # symmetric wells: R(0) = 0

    def test_batch_follows_single_mismatch(self, exp_family):
        qs = np.linspace(1.0, 6.0, 11)
        batch = cr._mismatch_batch(exp_family, qs, None)
        single = np.array([cr.hbs_mismatch(exp_family, q) for q in qs])
        np.testing.assert_allclose(batch, single, rtol=1e-9, atol=0)

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

    def test_bracket_below_floor_is_invalid_not_rootless(self):
        # the sech^2 family's strength nu must exceed 1
        with pytest.raises(pot.PotentialError):
            cr.find_critical_q(pot.make_family("SolitonWell"), (0.5, 2.5))

    def test_each_bracket_end_evaluated_once(self, exp_family, monkeypatch):
        mismatch = cr.hbs_mismatch
        qs = []

        def counted(family, q, cfg=None):
            qs.append(q)
            return mismatch(family, q, cfg)

        monkeypatch.setattr(cr, "hbs_mismatch", counted)
        res = cr.find_critical_q(exp_family, (2.2, 2.6))
        assert qs[:2] == [2.2, 2.6]
        assert qs.count(2.2) == qs.count(2.6) == 1
        assert len(qs) == 8
        assert res.q_c == cr.brentq(lambda q: mismatch(exp_family, q), 2.2, 2.6, xtol=1e-12, rtol=8.9e-16)

    @pytest.mark.parametrize(
        "kind, params, q_max",
        [
            ("SquareWell", {"a": 1.0}, 8.0),
            ("ParabolicWell", {"a": 1.0, "b": 1.0}, 9.0),
            ("Sin2Multiwell", {"a": 1.0, "m": 2}, 12.0),
            ("SolitonWell", {}, 5.5),
        ],
    )
    def test_symmetric_parity_follows_node_count(self, kind, params, q_max):
        # an odd state ends on plateaus of opposite sign, an even one on equal plateaus
        roots = cr.critical_spectrum(pot.make_family(kind, **params), q_max)
        assert {r.parity for r in roots} == {"odd", "even"}
        for r in roots:
            left, right = r.profile[0, 1], r.profile[-1, 1]
            sign = -1.0 if r.parity == "odd" else 1.0
            assert r.parity == ("odd" if r.node_count % 2 else "even")
            assert abs(right - sign * left) <= 1e-8 * abs(left)


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
        # first critical's partial amplitude against the Airy oracle (skips without mpmath)
        first = cr.find_critical_q(fam, (2.4, 2.7))
        r0 = sc.threshold_limit_r(sc.integrate_uv(fam.at(first.q_c), 0.0))
        assert abs(abs(r0) - _airy.threshold_r(2.53)) <= 1e-11

    def test_parabolic_asymmetric_partial_reflection(self):
        fam = pot.make_family("ParabolicWell", a=1.0, b=1.1)
        first = cr.find_critical_q(fam, (2.0, 2.3))
        r0 = sc.threshold_limit_r(sc.integrate_uv(fam.at(first.q_c), 0.0))
        assert 0.0 < abs(r0) < 1.0


class TestPlateauLaw:
    """A half-bound state with plateaus A on the left and B on the right has
    R(0) = ((A^2 - B^2)/(A^2 + B^2))^2: the threshold limit assembled from the
    boundary data and the recorded profile's end values are one state.
    """

    @pytest.mark.parametrize(
        "kind, params, roots",
        [
            ("ParabolicWell", {"a": 1.0, "b": 0.6}, 2),
            ("SquareTriangular", {"a": 1.0, "alpha": 0.5}, 3),
            ("SquareTriangular", {"a": 1.0, "alpha": 1.0}, 2),
        ],
    )
    def test_every_root_up_to_six(self, kind, params, roots):
        fam = pot.make_family(kind, **params)
        found = cr.critical_spectrum(fam, 6.0)
        assert len(found) == roots
        for r in found:
            a2, b2 = r.profile[0, 1] ** 2, r.profile[-1, 1] ** 2
            law = ((a2 - b2) / (a2 + b2)) ** 2
            p = fam.at(r.q_c)
            assert abs(abs(sc.threshold_limit_r(sc.integrate_uv(p, 0.0))) ** 2 - law) <= 1e-10 * law
            # R(E) = R(0) (1 + c E) with |c| < 10 on these roots, so E = 1e-12 keeps
            # the physical shift below 1e-11 (at E = 1e-10 it reaches 8.7e-10)
            assert abs(sc.reflection_wronskian(sc.integrate_uv(p, 1e-12)).R - law) <= 1e-10 * law


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
