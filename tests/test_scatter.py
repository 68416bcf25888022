"""Numerical reflection engine: fundamental-system route, transfer route,
threshold limits, node counting.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _airy
from halfbound import analytic as an
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
        assert res.R == pytest.approx(1.8881479149127027e-06, rel=1e-4, abs=0)

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


#: One well of every kind with a pointwise value.
POINTWISE = [
    ("SquareWell", {"V0": 3.0, "a": 1.0}),
    ("ExponentialWell", {"V0": 5.76, "a": 1.0}),
    ("SolitonWell", {"nu": 2.5}),
    ("ParabolicWell", {"V0": 4.0, "a": 1.0, "b": 1.1}),
    ("SquareTriangular", {"V0": 3.0, "a": 1.0, "alpha": 0.5}),
    ("Sin2Multiwell", {"V0": 19.0, "a": 1.0, "m": 2}),
]


class TestIntegrateUvBatch:
    """Every row of a batch equals its one-row call, field for field."""

    @pytest.mark.parametrize("chunk", [sc._CHUNK, 7, 40])
    @pytest.mark.parametrize("kind, params", POINTWISE)
    def test_energy_rows_equal_single_calls(self, monkeypatch, chunk, kind, params):
        monkeypatch.setattr(sc, "_CHUNK", chunk)
        p, cfg = pot.make_potential(kind, params), sc.GridConfig(step=0.01)
        energies = [1e-5, 0.3, 4.0]
        rows = sc.integrate_uv_batch(p, energies, cfg)
        assert rows == [sc.integrate_uv(p, E, cfg) for E in energies]

    @pytest.mark.parametrize("chunk", [sc._CHUNK, 7, 40])
    @pytest.mark.parametrize("kind, params", POINTWISE)
    def test_scale_rows_equal_single_calls(self, monkeypatch, chunk, kind, params):
        monkeypatch.setattr(sc, "_CHUNK", chunk)
        p, cfg = pot.make_potential(kind, params), sc.GridConfig(step=0.01)
        scales = np.array([0.5, 1.0, 2.5])
        rows = sc.integrate_uv_batch(p, 0.0, cfg, scales)
        assert rows == [sc.integrate_uv_batch(p, 0.0, cfg, s)[0] for s in scales]
        assert rows[1] == sc.integrate_uv(p, 0.0, cfg)
        # a scaled row is the boundary data of the well s V, to rounding
        deeper = sc.integrate_uv(pot.make_potential(kind, {**params, **_depth_times(params, 2.5)}), 0.0, cfg)
        assert rows[2].u1 == pytest.approx(deeper.u1, rel=1e-9, abs=0)
        assert rows[2].v1p == pytest.approx(deeper.v1p, rel=1e-9, abs=0)

    def test_rows_with_different_halvings_share_a_batch(self):
        p = _well("SquareWell", V0=3.0, a=1.0)

        def single(E, halvings):
            return sc.integrate_uv(p, E, sc.GridConfig(step=0.05 / 2**halvings))

        low, high = sc.integrate_uv_batch(p, [0.01, 400.0], sc.GridConfig(step=0.05))
        # E = 0.01 is accepted after one halving, E = 400 after five
        assert low == single(0.01, 0) == single(0.01, 1)
        assert low != single(0.01, 2)
        assert high == single(400.0, 0) == single(400.0, 5)
        assert high != single(400.0, 6)
        assert max(low.wronskian_drift, high.wronskian_drift) <= sc.DRIFT_TOL

    def test_raises_when_one_row_runs_out_of_halvings(self):
        p = _well("SquareWell", V0=400.0, a=1.0)
        with pytest.raises(sc.IntegrationError):
            sc.integrate_uv_batch(p, [0.1, 1.0], sc.GridConfig(step=0.2))

    @pytest.mark.parametrize("energies, scales", [([0.1, math.nan], 1.0), (math.inf, 1.0), (0.1, [1.0, math.nan]), (0.0, -math.inf)])
    def test_rejects_non_finite_rows(self, energies, scales):
        with pytest.raises(ValueError, match="finite"):
            sc.integrate_uv_batch(_well("SquareWell", V0=3.0, a=1.0), energies, scales=scales)

    def test_broadcast_shape_and_empty(self):
        p = _well("SquareWell", V0=3.0, a=1.0)
        assert len(sc.integrate_uv_batch(p, [0.1, 0.2], scales=np.ones((3, 1)))) == 6
        assert sc.integrate_uv_batch(p, []) == []


def _depth_times(params, factor):
    """The depth parameter of ``params`` scaled by ``factor`` (nu solves nu (nu - 1) = d)."""
    if "nu" in params:
        d = factor * params["nu"] * (params["nu"] - 1.0)
        return {"nu": 0.5 + math.sqrt(0.25 + d)}
    return {"V0": factor * params["V0"]}


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
        assert res.R == pytest.approx(5.423075735480438e-03, rel=5e-2, abs=0)

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

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan])
    def test_grid_config_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step"):
            sc.GridConfig(step=step)

    @pytest.mark.parametrize("n_slices", [0, -3, 2.5, 1000.0, "7"])
    def test_grid_config_rejects_bad_slice_count(self, n_slices):
        with pytest.raises(ValueError, match="n_slices"):
            sc.GridConfig(n_slices=n_slices)

    def test_grid_config_accepts_its_ranges(self):
        assert sc.GridConfig(step=1e-3, n_slices=np.int64(1)).n_slices == 1

    def test_slice_count_validated(self):
        with pytest.raises(ValueError):
            sc.transfer_matrix_rt(_well("SquareWell", V0=1.0, a=1.0), 1.0, n_slices=0)


#: One family of every pointwise kind: (kind, fixed parameters).
FAMILIES = [
    ("SquareWell", {}),
    ("ExponentialWell", {}),
    ("SolitonWell", {}),
    ("ParabolicWell", {"b": 1.1}),
    ("SquareTriangular", {"alpha": 0.5}),
    ("Sin2Multiwell", {"m": 2}),
]

#: Exponential well (a = 1) just below its first critical strength j_{0,1}.
Q_CRIT = 2.4048255


def _magnus_exponent(g1, g2, d):
    """Omega = (d/2)(A1 + A2) + (sqrt(3)/12) d^2 [A2, A1] with A = [[0, 1], [g, 0]]."""
    A1, A2 = np.array([[0.0, 1.0], [g1, 0.0]]), np.array([[0.0, 1.0], [g2, 0.0]])
    return 0.5 * d * (A1 + A2) + math.sqrt(3.0) / 12.0 * d * d * (A2 @ A1 - A1 @ A2)


class TestMagnusSlice:
    @pytest.mark.parametrize(
        "g_lo, g_hi, d_hi",
        [(-40.0, -1.0, 0.2), (1.0, 60.0, 0.3), (-40.0, 40.0, 0.3)],
        ids=["oscillatory", "evanescent", "mixed"],
    )
    def test_matches_expm(self, g_lo, g_hi, d_hi):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(13)
        g1, g2 = rng.uniform(g_lo, g_hi, (2, 64))
        g1[:2] = g2[:2] = 0.0  # s^2 = 0
        d = rng.uniform(0.01, d_hi)
        m = sc._slice_matrices(g1, g2, d)
        assert m.shape == (2, 2, 64)
        for i in range(64):
            np.testing.assert_allclose(m[..., i], expm(_magnus_exponent(g1[i], g2[i], d)), rtol=1e-13, atol=1e-14)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert np.max(np.abs(det - 1.0)) <= 1e-13

    def test_free_slice_beside_both_branches(self):
        # s^2 = 0 where g vanishes: the free propagator [[1, d], [0, 1]], exactly
        m = sc._slice_matrices(np.array([-5.0, 7.0, 0.0]), np.array([-3.0, 2.0, 0.0]), 0.1)
        np.testing.assert_array_equal(m[..., 2], [[1.0, 0.1], [0.0, 1.0]])
        assert m[0, 0, 0] < 1.0 < m[0, 0, 1]

    @pytest.mark.parametrize("g", [-30.0, -0.5, 0.7, 12.0])
    def test_constant_slice_is_exact_propagator(self, g):
        d = 0.13
        w = math.sqrt(abs(g))
        if g < 0.0:
            exact = [[math.cos(w * d), math.sin(w * d) / w], [-w * math.sin(w * d), math.cos(w * d)]]
        else:
            exact = [[math.cosh(w * d), math.sinh(w * d) / w], [w * math.sinh(w * d), math.cosh(w * d)]]
        m = sc._slice_matrices(np.array([g]), np.array([g]), d)[..., 0]
        np.testing.assert_allclose(m, exact, rtol=1e-14, atol=1e-15)


class TestTransferBatch:
    """Every row of (E, s) on one sampled well equals its one-row call, field for field."""

    @pytest.mark.parametrize("kind, fixed", FAMILIES, ids=[k for k, _ in FAMILIES])
    @pytest.mark.parametrize("size", [1, 3, 5, 17])
    @pytest.mark.parametrize("n", [7, 999, 1000, sc._SLICE_CHUNK + 1])
    def test_rows_equal_single_well_calls(self, kind, fixed, size, n):
        family = pot.make_family(kind, **fixed)
        probe = family.at(family.floor + 2.0)
        cfg = sc.GridConfig(n_slices=n)
        energies = np.geomspace(1e-4, 3.0, size)
        scales = np.linspace(0.3, 4.0, size)[::-1]
        batch = sc.transfer_matrix_batch(probe, energies, cfg, scales)
        assert batch == [sc.transfer_matrix_batch(probe, E, cfg, s)[0] for E, s in zip(energies, scales)]
        assert sc.transfer_matrix_batch(probe, energies[0], cfg)[0] == sc.transfer_matrix_rt(probe, energies[0], n_slices=n)

    def test_rejects_bad_energy_and_slices(self):
        p = _well("SquareWell", V0=1.0, a=1.0)
        for E in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sc.transfer_matrix_batch(p, [0.5, E])
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                sc.transfer_matrix_batch(p, 0.5, scales=[1.0, s])
        with pytest.raises(ValueError, match="n_slices"):
            sc.transfer_matrix_batch(p, 1.0, sc.GridConfig(n_slices=0))


class TestSupportCut:
    """Both routes integrate over the well's own support, set by its tail_tol."""

    @staticmethod
    def _short():
        return pot.make_potential("ExponentialWell", {"V0": 9.0, "a": 1.0}, tail_tol=1e-8)

    def test_wronskian_route_and_shots_stop_at_the_wells_edges(self):
        p = self._short()
        assert p.support[1] == pytest.approx(0.5 * math.log(1e8), rel=1e-15, abs=0)
        bd = sc.integrate_uv(p, 0.3)
        assert (-bd.L2, bd.L1) == p.support
        xs, _, _ = sc.shoot(p, 0.0, record=True)
        assert (xs[0], xs[-1]) == p.support

    def test_transfer_route_cuts_at_the_wells_edges(self):
        short, full = self._short(), _well("ExponentialWell", V0=9.0, a=1.0)
        assert sc.transfer_matrix_rt(short, 0.3).R != sc.transfer_matrix_rt(full, 0.3).R


class TestTransferAccuracy:
    """Default-slice transfer route against independent references near q_c.

    The midpoint rule the route used before misses every bound here.
    """

    @pytest.mark.parametrize(
        "V0, E, rel",
        [(Q_CRIT**2, 1e-3, 1e-4), (Q_CRIT**2, 1e-5, 2e-3), (5.76, 0.01, 1e-5)],
    )
    def test_exponential_default_slices(self, V0, E, rel):
        R = sc.transfer_matrix_rt(_well("ExponentialWell", V0=V0, a=1.0), E).R
        assert R == pytest.approx(abs(an.exp_well_r_exact(E, V0, 1.0)) ** 2, rel=rel, abs=0)

    def test_fourth_order_convergence(self):
        p = _well("ExponentialWell", V0=5.76, a=1.0)
        exact = abs(an.exp_well_r_exact(0.01, 5.76, 1.0)) ** 2
        err = [abs(sc.transfer_matrix_rt(p, 0.01, n_slices=n).R - exact) for n in (500, 1000)]
        assert err[0] >= 10.0 * err[1]

    @pytest.mark.parametrize("n_slices, tol", [(None, 1e-7), (65536, 1e-9)])
    def test_sin2_near_critical_matches_rk4(self, n_slices, tol):
        # the energy-scan benchmark's compact-well oracle case (seed 908, round 67):
        # transfer route at 65536 slices against RK4 within its 1e-6 bound
        p = _well("Sin2Multiwell", V0=35.12254883918399, a=1.0, m=1)
        E = 1.289671e-05
        ref = sc.reflection_wronskian(sc.integrate_uv(p, E, sc.GridConfig(step=sc.default_step(p) / 4))).R
        assert abs(sc.transfer_matrix_rt(p, E, n_slices=n_slices).R - ref) <= tol


class TestThresholdLimit:
    def test_symmetric_critical_is_zero(self):
        bd = sc.integrate_uv(_well("SquareWell", V0=(math.pi / 2.0) ** 2, a=1.0), 0.0)
        assert sc.threshold_limit_r(bd) == 0.0

    def test_asymmetric_critical_strictly_between(self):
        from halfbound import critical as cr

        # first critical of the tilted well (near 2.5317); the saturation
        # precondition needs q_c polished to the root, not to a few digits
        fam = pot.make_family("SquareTriangular", a=1.0, alpha=1.0)
        res = cr.find_critical_q(fam, (2.4, 2.7))
        bd = sc.integrate_uv(fam.at(res.q_c), 0.0)
        r0 = sc.threshold_limit_r(bd)
        assert 1e-3 < abs(r0) < 1.0 - 1e-3
        # the Airy oracle (skips without mpmath): q_c off by 1.4e-13, |r0| by 2.0e-13
        assert abs(res.q_c - _airy.critical_q(2.53)) <= 1e-11
        assert abs(abs(r0) - _airy.threshold_r(2.53)) <= 1e-11

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

    @pytest.mark.parametrize("kind, params", POINTWISE)
    @pytest.mark.parametrize("E", [0.0, 0.7])
    def test_shoot_reproduces_its_start_values(self, kind, params, E):
        p = pot.make_potential(kind, params)
        xs, psi, dpsi = sc.shoot(p, E, 0.3, -1.2, record=True)
        lo, hi = p.support
        assert (xs[0], xs[-1]) == (lo, hi)
        assert np.all(np.diff(xs) > 0.0)
        assert abs(psi[0] - 0.3) <= 1e-12
        assert abs(dpsi[0] + 1.2) <= 1e-12
        assert sc.shoot(p, E, 0.3, -1.2) == (psi[-1], dpsi[-1])

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
