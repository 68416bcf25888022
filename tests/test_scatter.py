"""Numerical reflection engine: fundamental-system route, transfer route,
threshold limits, node counting.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbound import potentials as pot
from halfbound import scatter as sc

J01 = 2.404825557695773


def _well(kind, **params):
    return pot.make_potential(kind, params)


class TestFundamentalSystem:
    def test_nearly_free_particle_is_trig(self):
        # with a vanishing depth, u and v are cos(kx) and sin(kx)/k
        p = _well("SquareWell", V0=1e-14, a=1.0)
        bd = sc.integrate_uv(p, 4.0)
        assert bd.u1 == pytest.approx(math.cos(2.0), abs=1e-9)
        assert bd.v1 == pytest.approx(math.sin(2.0) / 2.0, abs=1e-9)
        assert bd.u1p == pytest.approx(-2.0 * math.sin(2.0), abs=1e-9)
        assert bd.v1p == pytest.approx(math.cos(2.0), abs=1e-9)

    def test_wronskian_drift_always_small(self):
        for kind, params, E in [
            ("SquareWell", {"V0": 4.0, "a": 1.0}, 0.3),
            ("ExponentialWell", {"V0": 5.76, "a": 1.0}, 0.01),
            ("SolitonWell", {"nu": 2.5}, 1.0),
            ("ParabolicWell", {"V0": 4.0, "a": 1.0, "b": 1.1}, 0.7),
        ]:
            bd = sc.integrate_uv(_well(kind, **params), E)
            assert bd.wronskian_drift <= 1e-8

    def test_zero_energy_allowed(self):
        p = _well("SquareWell", V0=(math.pi / 2.0) ** 2, a=1.0)
        bd = sc.integrate_uv(p, 0.0)
        assert bd.k == 0.0
        # half-bound state: the odd solution saturates (Neumann both sides)
        assert abs(bd.v1p) < 1e-8
        assert abs(bd.v2p) < 1e-8

    def test_parity_identities_at_zero_energy(self):
        p = _well("SquareWell", V0=(math.pi / 2.0) ** 2, a=1.0)
        bd = sc.integrate_uv(p, 0.0)
        assert bd.u1 == pytest.approx(bd.u2, abs=1e-12)
        assert bd.v1 == pytest.approx(-bd.v2, abs=1e-12)


class TestWronskianRoute:
    def test_square_reference(self):
        res = sc.reflection_wronskian(sc.integrate_uv(_well("SquareWell", V0=1.0, a=1.0), 1.0))
        assert res.R == pytest.approx(0.011724431718800962, abs=1e-6)
        assert res.method == "wronskian"
        assert res.t is None
        assert res.T == pytest.approx(1.0 - res.R, abs=1e-15)

    def test_exponential_vs_exact(self):
        res = sc.reflection_wronskian(
            sc.integrate_uv(_well("ExponentialWell", V0=1.0, a=1.0), 0.01)
        )
        assert res.R == pytest.approx(0.9176290610852675, abs=1e-6)

    def test_soliton_integer_reflectionless(self):
        res = sc.reflection_wronskian(sc.integrate_uv(_well("SolitonWell", nu=2.0), 0.5))
        assert res.R < 1e-8

    def test_soliton_fractional_vs_closed_form(self):
        res = sc.reflection_wronskian(sc.integrate_uv(_well("SolitonWell", nu=2.5), 1.0))
        assert res.R == pytest.approx(0.007441950142796213, abs=1e-8)

    def test_generic_threshold_full_reflection(self):
        res = sc.reflection_wronskian(
            sc.integrate_uv(_well("ExponentialWell", V0=1.0, a=1.0), 1e-10)
        )
        assert res.R > 0.999

    def test_near_critical_threshold_suppression(self):
        res = sc.reflection_wronskian(
            sc.integrate_uv(_well("ExponentialWell", V0=J01 * J01, a=1.0), 1e-5)
        )
        assert res.R == pytest.approx(1.8881479149127027e-06, rel=1e-4)

    def test_rejects_nonpositive_energy(self):
        bd = sc.integrate_uv(_well("SquareWell", V0=1.0, a=1.0), 0.0)
        with pytest.raises(ValueError):
            sc.reflection_wronskian(bd)

    def test_grid_convergence_on_halving(self):
        p = _well("ExponentialWell", V0=5.76, a=1.0)
        h = sc.default_step(p)
        R1 = sc.reflection_wronskian(sc.integrate_uv(p, 0.3, sc.GridConfig(step=h))).R
        R2 = sc.reflection_wronskian(sc.integrate_uv(p, 0.3, sc.GridConfig(step=h / 2.0))).R
        assert abs(R1 - R2) < 1e-7

    def test_mirror_reversal_same_R(self):
        # |r| is invariant under spatial reflection of the well
        for E in (0.05, 0.7, 3.0):
            Ra = sc.reflection_wronskian(
                sc.integrate_uv(_well("ParabolicWell", V0=4.0, a=1.0, b=1.1), E)
            ).R
            Rb = sc.reflection_wronskian(
                sc.integrate_uv(_well("ParabolicWell", V0=4.0, a=1.1, b=1.0), E)
            ).R
            assert abs(Ra - Rb) < 1e-9


class TestStepHalving:
    def test_refines_to_the_halved_grid(self):
        # the drift at step 0.1 is ~7e-6, so one halving runs
        p = _well("ExponentialWell", V0=5.76, a=1.0)
        bd = sc.integrate_uv(p, 0.3, sc.GridConfig(step=0.1))
        assert bd == sc.integrate_uv(p, 0.3, sc.GridConfig(step=0.05))
        assert bd.wronskian_drift <= sc.DRIFT_TOL

    def test_raises_when_halvings_run_out(self):
        p = _well("SquareWell", V0=400.0, a=1.0)
        with pytest.raises(sc.IntegrationError):
            sc.integrate_uv(p, 1.0, sc.GridConfig(step=0.2))


def _rk4_reference(gn, gm, h, y, yp):
    """(psi, psi') at every node: classical RK4 on psi'' = g psi, one scalar step at a time."""
    out = [(y, yp)]
    for a, b, c in zip(gn[:-1], gm, gn[1:]):
        k1y, k1p = yp, a * y
        k2y, k2p = yp + h / 2 * k1p, b * (y + h / 2 * k1y)
        k3y, k3p = yp + h / 2 * k2p, b * (y + h / 2 * k2y)
        k4y, k4p = yp + h * k3p, c * (y + h * k3y)
        y += h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        yp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        out.append((y, yp))
    return np.array(out)


def _naive_fold(mats):
    """M_{N-1} @ ... @ M_0 of an (N, 2, 2) stack, one matmul at a time."""
    total = np.eye(2)
    for m in mats:
        total = m @ total
    return total


class TestRk4Kernel:
    @pytest.mark.parametrize("chunk", [sc._CHUNK, 7])
    @pytest.mark.parametrize("n, h", [(16, 0.09), (27, -0.05), (40, 0.03)])
    def test_matches_scalar_reference(self, monkeypatch, chunk, n, h):
        monkeypatch.setattr(sc, "_CHUNK", chunk)
        rng = np.random.default_rng(n)
        gn, gm = rng.uniform(-20.0, 2.0, n + 1), rng.uniform(-20.0, 2.0, n)
        P, drift = sc._rk4_product(gn, gm, h)
        u = _rk4_reference(gn, gm, h, 1.0, 0.0)
        v = _rk4_reference(gn, gm, h, 0.0, 1.0)
        np.testing.assert_allclose(P, np.column_stack([u[-1], v[-1]]), rtol=1e-13, atol=1e-13)
        w = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        assert drift > 1e-9
        assert drift == pytest.approx(np.max(np.abs(w - 1.0)), abs=1e-13)

    @pytest.mark.parametrize("chunk", [sc._CHUNK, 7])
    def test_batch_axis_matches_scalar_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(sc, "_CHUNK", chunk)
        rng = np.random.default_rng(3)
        n, h = 33, -0.04
        gn, gm = rng.uniform(-8.0, 0.0, n + 1), rng.uniform(-8.0, 0.0, n)
        depths = np.array([0.5, 1.0, 2.5])
        P, _ = sc._rk4_product(gn, gm, h, depths)
        assert P.shape == (2, 2, 3)
        for i, d in enumerate(depths):
            u = _rk4_reference(d * gn, d * gm, h, 1.0, 0.0)[-1]
            v = _rk4_reference(d * gn, d * gm, h, 0.0, 1.0)[-1]
            np.testing.assert_allclose(P[..., i], np.column_stack([u, v]), rtol=1e-13, atol=1e-13)


class TestOrderedProduct:
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 13])
    def test_matches_naive_fold(self, batch, n):
        stacks = np.random.default_rng(n).standard_normal(batch + (n, 2, 2))
        mats = np.moveaxis(stacks, (-2, -1), (0, 1))  # (2, 2, *batch, N)
        total = sc._ordered_product(mats)
        prefix = sc._prefix_products(mats)
        assert total.shape == (2, 2) + batch
        for b in np.ndindex(batch):
            np.testing.assert_allclose(total[(..., *b)], _naive_fold(stacks[b]), rtol=1e-12, atol=1e-12)
            for i in range(n):
                np.testing.assert_allclose(prefix[(..., *b, i)], _naive_fold(stacks[b][: i + 1]), rtol=1e-12, atol=1e-12)


class TestTransferRoute:
    def test_square_exact_with_two_slices(self):
        res = sc.transfer_matrix_rt(_well("SquareWell", V0=1.0, a=1.0), 1.0, n_slices=2)
        assert res.R == pytest.approx(0.011724431718800962, abs=1e-8)
        assert res.method == "transfer"
        assert res.t is not None

    def test_unitarity(self):
        for kind, params, E in [
            ("SquareWell", {"V0": 4.0, "a": 1.0}, 0.3),
            ("ExponentialWell", {"V0": 5.76, "a": 1.0}, 0.05),
            ("Sin2Multiwell", {"V0": 9.0, "a": 1.0, "m": 2}, 1.3),
        ]:
            res = sc.transfer_matrix_rt(_well(kind, **params), E)
            assert res.unitarity_residual <= 1e-8
            assert res.R + res.T == pytest.approx(1.0, abs=1e-8)

    def test_exponential_default_slices_percent_level(self):
        res = sc.transfer_matrix_rt(_well("ExponentialWell", V0=5.76, a=1.0), 0.01)
        assert res.R == pytest.approx(5.423075735480438e-03, rel=5e-2)

    def test_exponential_fine_slices(self):
        res = sc.transfer_matrix_rt(
            _well("ExponentialWell", V0=5.76, a=1.0), 0.01, n_slices=32768
        )
        assert res.R == pytest.approx(5.423075735480438e-03, abs=1e-6)

    def test_agrees_with_wronskian_route(self):
        p = _well("SolitonWell", nu=2.5)
        rw = sc.reflection_wronskian(sc.integrate_uv(p, 1.0))
        rt = sc.transfer_matrix_rt(p, 1.0, n_slices=32768)
        assert rt.R == pytest.approx(rw.R, abs=1e-6)

    def test_slice_count_validated(self):
        with pytest.raises(ValueError):
            sc.transfer_matrix_rt(_well("SquareWell", V0=1.0, a=1.0), 1.0, n_slices=0)


class TestThresholdLimit:
    def test_symmetric_critical_is_zero(self):
        bd = sc.integrate_uv(_well("SquareWell", V0=(math.pi / 2.0) ** 2, a=1.0), 0.0)
        assert sc.threshold_limit_r(bd) == 0.0

    def test_asymmetric_critical_strictly_between(self):
        from halfbound import critical as cr

        # first critical of the tilted well (near 2.5317); the saturation
        # precondition needs q_c polished well past the frozen 6 digits
        fam = pot.make_family("SquareTriangular", a=1.0, alpha=1.0)
        res = cr.find_critical_q(fam, (2.4, 2.7))
        assert res.q_c == pytest.approx(2.531708, abs=1e-5)
        bd = sc.integrate_uv(fam.at(res.q_c), 0.0)
        r0 = sc.threshold_limit_r(bd)
        assert 1e-3 < abs(r0) < 1.0 - 1e-3
        assert abs(r0) == pytest.approx(0.345499, abs=5e-4)

    def test_noncritical_raises(self):
        bd = sc.integrate_uv(_well("SquareWell", V0=1.0, a=1.0), 0.0)
        with pytest.raises(sc.NoHalfBoundStateError):
            sc.threshold_limit_r(bd)

    def test_requires_zero_energy(self):
        bd = sc.integrate_uv(_well("SquareWell", V0=1.0, a=1.0), 0.5)
        with pytest.raises(ValueError):
            sc.threshold_limit_r(bd)


class TestShootAndNodes:
    def test_shoot_records_seam_at_origin(self):
        p = _well("ParabolicWell", V0=4.0, a=1.0, b=1.1)
        xs, psi, dpsi = sc.shoot(p, 0.0, record=True)
        assert np.min(np.abs(xs)) == 0.0
        assert xs.shape == psi.shape == dpsi.shape

    @pytest.mark.parametrize("step", [0.0, -0.01])
    def test_shoot_rejects_nonpositive_step(self, step):
        p = _well("SquareWell", V0=2.0, a=1.0)
        with pytest.raises(ValueError):
            sc.shoot(p, 0.0, cfg=sc.GridConfig(step=step))

    def test_count_nodes_tanh(self):
        xs = np.linspace(-8, 8, 1601)
        assert sc.count_nodes(np.column_stack([xs, np.tanh(xs)])) == 1

    def test_count_nodes_cosine(self):
        xs = np.linspace(-1, 1, 801)
        assert sc.count_nodes(np.column_stack([xs, np.cos(math.pi * xs)])) == 2

    def test_count_nodes_ignores_jitter(self):
        xs = np.linspace(-1, 1, 11)
        psi = np.full_like(xs, 0.5)
        psi[5] = 1e-14  # grazing zero, not a crossing
        assert sc.count_nodes(np.column_stack([xs, psi])) == 0


@settings(max_examples=15, deadline=None)
@given(
    kind_v0=st.sampled_from(
        [("SquareWell", 2.2), ("ExponentialWell", 3.1), ("Sin2Multiwell", 6.5)]
    ),
    E=st.floats(0.01, 5.0),
)
def test_symmetric_parity_identities(kind_v0, E):
    kind, V0 = kind_v0
    params = {"V0": V0, "a": 1.0}
    if kind == "Sin2Multiwell":
        params["m"] = 1
    bd = sc.integrate_uv(pot.make_potential(kind, params), E)
    scale = max(abs(bd.u1), abs(bd.v1), 1.0)
    assert abs(bd.u1 - bd.u2) <= 1e-8 * scale
    assert abs(bd.v1 + bd.v2) <= 1e-8 * scale
    assert abs(bd.u1p + bd.u2p) <= 1e-8 * scale
    assert abs(bd.v1p - bd.v2p) <= 1e-8 * scale


@settings(max_examples=15, deadline=None)
@given(
    V0=st.floats(0.3, 12.0),
    E=st.floats(0.005, 8.0),
)
def test_routes_agree_square(V0, E):
    p = pot.make_potential("SquareWell", {"V0": V0, "a": 1.0})
    rw = sc.reflection_wronskian(sc.integrate_uv(p, E))
    rt = sc.transfer_matrix_rt(p, E)
    assert abs(rw.R - rt.R) <= 1e-6
    assert rw.r == pytest.approx(rt.r, abs=1e-5)


@settings(max_examples=15, deadline=None)
@given(V0=st.floats(0.3, 10.0), E=st.floats(0.01, 5.0))
def test_unitarity_from_wronskian_data(V0, E):
    # the wronskian route reports R only; 1 - R must behave as a probability
    res = sc.reflection_wronskian(
        sc.integrate_uv(pot.make_potential("SquareWell", {"V0": V0, "a": 1.0}), E)
    )
    assert 0.0 <= res.R <= 1.0 + 1e-12
    assert res.unitarity_residual <= 1e-8
