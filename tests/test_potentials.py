"""Well constructors, evaluation, supports, descriptors, and families."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfbound import potentials as pot

SHAPES = st.sampled_from(
    [
        ("SquareWell", {}),
        ("ExponentialWell", {}),
        ("SolitonWell", None),
        ("ParabolicWell", {"b": 1.3}),
        ("SquareTriangular", {"alpha": 0.7}),
        ("Sin2Multiwell", {"m": 2}),
    ]
)


def _make(shape, V0=4.0, a=1.0, nu=2.5):
    kind, extra = shape
    if extra is None:
        return pot.make_potential(kind, {"nu": nu})
    return pot.make_potential(kind, {"V0": V0, "a": a, **extra})


class TestConstruction:
    def test_square_strength(self):
        p = pot.make_potential("SquareWell", {"V0": 4.0, "a": 1.0})
        assert p.q == 2.0
        assert p.support == (-1.0, 1.0)
        assert p.symmetric

    def test_exponential_support_length(self):
        p = pot.make_potential("ExponentialWell", {"V0": 5.0, "a": 1.0})
        # (a/2) ln(1/tail_tol) at the default cutoff 1e-12
        assert p.support[1] == pytest.approx(13.815510557964274, abs=1e-12)
        assert p.support[0] == -p.support[1]

    def test_exponential_tail_value(self):
        p = pot.make_potential("ExponentialWell", {"V0": 1.0, "a": 1.0})
        assert pot.evaluate(p, 10.0) == pytest.approx(-2.061153622438558e-09, rel=1e-12, abs=0)
        lo, hi = p.support
        assert abs(pot.evaluate(p, hi)) <= 1.0000001e-12

    def test_soliton_support_and_strength(self):
        p = pot.make_potential("SolitonWell", {"nu": 2.0})
        # arccosh(1/sqrt(tail_tol)) = arccosh(1e6)
        assert p.support[1] == pytest.approx(14.508657738523969, abs=1e-12)
        assert p.q == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0)

    def test_soliton_depth(self):
        p = pot.make_potential("SolitonWell", {"nu": 3.0})
        assert pot.evaluate(p, 0.0) == pytest.approx(-6.0, rel=1e-15, abs=0)

    def test_delta_strength_is_lambda(self):
        p = pot.make_potential("DeltaWell", {"lambda": 2.0})
        assert p.q == 2.0
        assert p.support == (0.0, 0.0)

    def test_parabolic_support_asymmetric(self):
        p = pot.make_potential("ParabolicWell", {"V0": 4.0, "a": 1.0, "b": 1.1})
        assert p.support == (-1.0, 1.1)
        assert not p.symmetric

    def test_parabolic_symmetric_flag(self):
        p = pot.make_potential("ParabolicWell", {"V0": 4.0, "a": 1.0, "b": 1.0})
        assert p.symmetric

    def test_sqtri_alpha_zero_is_square(self):
        flat = pot.make_potential("SquareTriangular", {"V0": 4.0, "a": 1.0, "alpha": 0.0})
        sq = pot.make_potential("SquareWell", {"V0": 4.0, "a": 1.0})
        xs = np.linspace(-0.999, 0.999, 101)
        np.testing.assert_allclose(pot.evaluate(flat, xs), pot.evaluate(sq, xs), atol=0)
        assert flat.symmetric

    def test_sqtri_tilt(self):
        p = pot.make_potential("SquareTriangular", {"V0": 4.0, "a": 1.0, "alpha": 1.0})
        v = pot.evaluate(p, np.array([-1.0, 0.0, 1.0]))
        assert v == pytest.approx([0.0, -2.0, -4.0])
        assert not p.symmetric

    def test_sin2_wells_touch_depth(self):
        p1 = pot.make_potential("Sin2Multiwell", {"V0": 4.0, "a": 1.0, "m": 1})
        p2 = pot.make_potential("Sin2Multiwell", {"V0": 4.0, "a": 1.0, "m": 2})
        assert pot.evaluate(p1, 0.5) == pytest.approx(-4.0)
        assert pot.evaluate(p2, 0.25) == pytest.approx(-4.0)
        assert pot.evaluate(p2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_square_open_edges(self):
        p = pot.make_potential("SquareWell", {"V0": 4.0, "a": 1.0})
        assert pot.evaluate(p, 1.0) == 0.0
        assert pot.evaluate(p, -1.0) == 0.0
        assert pot.evaluate(p, 0.999999) == -4.0


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("Frobnicator", {"V0": 1.0})

    def test_missing_param(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("SquareWell", {"V0": 1.0})

    def test_extra_param(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("SquareWell", {"V0": 1.0, "a": 1.0, "b": 2.0})

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_depth(self, bad):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("SquareWell", {"V0": bad, "a": 1.0})

    def test_soliton_nu_must_exceed_one(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("SolitonWell", {"nu": 1.0})

    def test_alpha_range(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("SquareTriangular", {"V0": 1.0, "a": 1.0, "alpha": 1.5})

    def test_m_restricted(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("Sin2Multiwell", {"V0": 1.0, "a": 1.0, "m": 3})

    def test_tail_tol_range(self):
        with pytest.raises(pot.PotentialError):
            pot.make_potential("ExponentialWell", {"V0": 1.0, "a": 1.0}, tail_tol=2.0)

    def test_delta_refuses_pointwise_evaluation(self):
        p = pot.make_potential("DeltaWell", {"lambda": 1.0})
        with pytest.raises(pot.AnalyticOnlyError):
            pot.evaluate(p, 0.0)


class TestDescriptors:
    def test_roundtrip_json(self):
        p = pot.make_potential("ParabolicWell", {"V0": 2.0, "a": 1.0, "b": 1.1})
        d = p.descriptor()
        p2 = pot.from_descriptor(json.dumps(d))
        assert p2.kind == p.kind and p2.params == p.params
        assert p2.support == p.support

    def test_descriptor_dict_input(self):
        p = pot.from_descriptor({"kind": "SquareWell", "params": {"V0": 1.0, "a": 2.0}})
        assert p.q == 2.0

    def test_family_strength_mapping(self):
        fam = pot.make_family("ExponentialWell", a=1.0)
        p = fam.at(2.4)
        assert p.params["V0"] == pytest.approx(5.76, rel=1e-15, abs=0)
        assert p.q == pytest.approx(2.4, rel=1e-15, abs=0)

    def test_family_soliton_strength_is_nu(self):
        fam = pot.make_family("SolitonWell")
        p = fam.at(2.5)
        assert p.params["nu"] == 2.5

    def test_family_rejects_delta(self):
        with pytest.raises(pot.PotentialError):
            pot.make_family("DeltaWell")

    def test_family_from_descriptor_strips_strength(self):
        fam = pot.family_from_descriptor({"kind": "SquareWell", "params": {"V0": 9.0, "a": 1.0}})
        assert fam.at(1.0).params["V0"] == pytest.approx(1.0)

    def test_family_from_descriptor_keeps_foreign_knob(self):
        # nu is not the square well's knob: it is an unknown parameter, not a strength to strip
        with pytest.raises(pot.PotentialError):
            pot.family_from_descriptor({"kind": "SquareWell", "params": {"a": 1.0, "nu": 7.0}})

    def test_family_rejects_fixed_knob(self):
        with pytest.raises(pot.PotentialError):
            pot.make_family("SquareWell", V0=9.0)
        with pytest.raises(pot.PotentialError):
            pot.make_family("SolitonWell", nu=2.5)

    @pytest.mark.parametrize("kind, strength", [("SquareWell", -2.0), ("SquareWell", 0.0), ("SolitonWell", 1.0)])
    def test_family_rejects_strength_at_or_below_floor(self, kind, strength):
        with pytest.raises(pot.PotentialError):
            pot.make_family(kind).at(strength)

    def test_family_knob_and_floor(self):
        assert (pot.make_family("ExponentialWell").knob, pot.make_family("ExponentialWell").floor) == ("V0", 0.0)
        assert (pot.make_family("SolitonWell").knob, pot.make_family("SolitonWell").floor) == ("nu", 1.0)


#: One family per pointwise kind, with two member strengths.
FAMILIES = [
    ("SquareWell", {"a": 0.8}, 1.3, 2.9),
    ("ExponentialWell", {"a": 1.2}, 2.4, 3.7),
    ("SolitonWell", {}, 1.7, 3.2),
    ("ParabolicWell", {"a": 1.0, "b": 1.1}, 2.1, 4.4),
    ("SquareTriangular", {"a": 1.0, "alpha": 0.5}, 1.8, 3.3),
    ("Sin2Multiwell", {"a": 1.0, "m": 2}, 2.2, 5.1),
]


@pytest.mark.parametrize("kind, fixed, s1, s2", FAMILIES)
def test_family_members_differ_by_depth_ratio(kind, fixed, s1, s2):
    # V = d(s) * shape(x): the batched scans rescale one sampling by d(s2)/d(s1)
    fam = pot.make_family(kind, **fixed)
    p1, p2 = fam.at(s1), fam.at(s2)
    probe, scales = fam.scaled([s1, s2])
    assert probe == p1
    ratio = pot.depth(p2.params) / pot.depth(p1.params)
    assert scales.tolist() == [1.0, ratio]
    lo, hi = p1.support
    xs = np.linspace(lo, hi, 1001)[1:-1]
    np.testing.assert_allclose(pot.evaluate(p2, xs), ratio * pot.evaluate(p1, xs), rtol=1e-15, atol=0)


def test_scaled_rejects_strengths_at_or_below_the_floor():
    fam = pot.make_family("SolitonWell")
    with pytest.raises(pot.PotentialError, match="exceed 1"):
        fam.scaled([2.0, 3.0, 1.0])


def test_depth_by_parameter():
    assert pot.depth({"V0": 4.0, "a": 2.0}) == 4.0
    assert pot.depth({"nu": 3.0}) == 6.0
    assert pot.depth({"lambda": 0.5}) == 0.5


@pytest.mark.parametrize("kind, fixed, s1, s2", FAMILIES)
def test_pickle_roundtrip(kind, fixed, s1, s2):
    fam = pot.make_family(kind, **fixed)
    for obj in (fam, fam.at(s1)):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_pickle_roundtrip_delta():
    p = pot.make_potential("DeltaWell", {"lambda": 1.5})
    assert pickle.loads(pickle.dumps(p)) == p


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, V0=st.floats(0.1, 30.0), x=st.floats(-2.0, 2.0))
def test_attractive_everywhere(shape, V0, x):
    p = _make(shape, V0=V0)
    assert pot.evaluate(p, x) <= 0.0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["SquareWell", "ExponentialWell", "SolitonWell", "Sin2Multiwell"]),
    V0=st.floats(0.5, 20.0),
    x=st.floats(0.0, 16.0),
)
def test_symmetric_shapes_are_even(kind, V0, x):
    if kind == "SolitonWell":
        p = pot.make_potential(kind, {"nu": 1.0 + V0 / 4.0})
    elif kind == "Sin2Multiwell":
        p = pot.make_potential(kind, {"V0": V0, "a": 1.0, "m": 1})
    else:
        p = pot.make_potential(kind, {"V0": V0, "a": 1.0})
    assert p.symmetric
    assert pot.evaluate(p, x) == pytest.approx(pot.evaluate(p, -x), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(shape=SHAPES, V0=st.floats(0.2, 25.0))
def test_integrated_depth_negative(shape, V0):
    p = _make(shape, V0=V0)
    lo, hi = p.support
    xs = np.linspace(lo, hi, 2001)
    vals = pot.evaluate(p, xs)
    # Simpson on an odd, uniform grid
    h = (hi - lo) / (len(xs) - 1)
    integral = h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())
    assert integral < 0.0


@settings(max_examples=40, deadline=None)
@given(V0=st.floats(0.1, 30.0), a=st.floats(0.2, 3.0))
def test_strength_definition(V0, a):
    p = pot.make_potential("SquareWell", {"V0": V0, "a": a})
    assert p.q == pytest.approx(a * math.sqrt(V0), rel=1e-14, abs=0)


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, strength=st.floats(0.3, 5.0))
def test_family_roundtrip(shape, strength):
    kind, extra = shape
    if extra is None:
        fam = pot.make_family(kind)
        nu = 1.0 + strength
        assert fam.at(nu).params["nu"] == pytest.approx(nu)
    else:
        fam = pot.make_family(kind, a=1.0, **extra)
        assert fam.at(strength).q == pytest.approx(strength, rel=1e-13, abs=0)
