"""Hypothesis properties for acceptance guarantees 1, 2, 3, 4 and 9 over the
float domain: rotation axes and momenta of every magnitude from 1e-300 to
1e300, and the non-finite inputs each boundary must reject by name. The
seeded loops of tests/test_acceptance.py stay as they are; these search
the same laws more widely and shrink any failure."""

import math

import numpy as np
import pytest

from spinframes import (
    EPS,
    EPS_GEOM,
    IDENTITY,
    MAX_TWICE_SPIN,
    ExchangeCase,
    FrameTag,
    OrderedDescription,
    ParticleDescriptor,
    TwiceSpin,
    Vec3,
    assemble_pair_canonical_orderfree,
    bisector_axis,
    compose,
    exchange_order_dependent,
    from_axis_angle,
    helicity_frame,
    m_range,
    pure_permute,
    relative_rotation,
    to_matrix3,
    wigner_D,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True)

spins = st.integers(0, MAX_TWICE_SPIN).map(TwiceSpin)
magnitudes = st.floats(min_value=1e-300, max_value=1e300)
unit = st.floats(min_value=-1.0, max_value=1.0)
directions = st.tuples(unit, unit, unit).filter(lambda d: math.hypot(*d) > 1e-3)


def scaled(d: tuple[float, float, float], scale: float) -> Vec3:
    return Vec3(d[0] * scale, d[1] * scale, d[2] * scale)


def vectors():
    """A direction scaled to any magnitude in [1e-300, 1e300]."""
    return st.builds(scaled, directions, magnitudes)


@st.composite
def rotations(draw):
    angle = draw(st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi))
    return from_axis_angle(draw(vectors()), angle)


@st.composite
def noncollinear_pairs(draw):
    """Two momenta of independent magnitudes whose directions span a plane;
    the filter reads the unscaled directions, as the cross product of two
    1e-300 vectors underflows."""
    d_a, d_b = draw(directions), draw(directions)
    normal = Vec3(*d_a).cross(Vec3(*d_b)).norm()
    hypothesis.assume(normal > 1e-3 * math.hypot(*d_a) * math.hypot(*d_b))
    return scaled(d_a, draw(magnitudes)), scaled(d_b, draw(magnitudes))


def non_finite(v: Vec3, slot: int, bad: float) -> Vec3:
    comps = [v.x, v.y, v.z]
    comps[slot] = bad
    return Vec3(*comps)


bads = st.sampled_from((math.nan, math.inf, -math.inf))
slots = st.integers(0, 2)


@SETTINGS
@hypothesis.given(spins, rotations())
def test_c01_double_cover_sign_is_exact(s, q):
    # equal values, not within a tolerance: every term is a degree-2s monomial
    sign = (-1) ** s.twice
    assert np.array_equal(wigner_D(s, -q).entries, sign * wigner_D(s, q).entries)


@SETTINGS
@hypothesis.given(spins, rotations(), rotations())
def test_c02_homomorphism_within_eps(s, p, q):
    left = wigner_D(s, compose(p, q)).entries
    right = wigner_D(s, p).entries @ wigner_D(s, q).entries
    assert np.abs(left - right).max() <= EPS


@st.composite
def ordered_pairs(draw):
    """A two-slot helicity description: spins up to MAX_TWICE_SPIN, any
    projections, non-collinear momenta of any magnitude and any slot-1
    rotation (slot 2's is derived from it)."""
    p_a, p_b = draw(noncollinear_pairs())
    descs = []
    for label, p, r in (("u", p_a, draw(rotations())), ("w", p_b, IDENTITY)):
        s = draw(spins)
        m = draw(st.sampled_from(m_range(s)))
        descs.append(ParticleDescriptor(Q=label, p=p, s=s, m=m, base=FrameTag.HELICITY, R_BS=r))
    return OrderedDescription(descs)


@SETTINGS
@hypothesis.given(ordered_pairs())
def test_c03_exchange_phases_and_case_discrepancy(ordered):
    d1, d2 = ordered.slots
    first, phase_first = exchange_order_dependent(ordered, ExchangeCase.FIRST)
    second, phase_second = exchange_order_dependent(ordered, ExchangeCase.SECOND)
    assert phase_first == (-1) ** d1.s.twice
    assert phase_second == (-1) ** d2.s.twice
    product = phase_first * phase_second
    keys = set(first.amplitudes) | set(second.amplitudes)
    diff = max(
        abs(second.amplitudes.get(k, 0j) - product * first.amplitudes.get(k, 0j)) for k in keys
    )
    assert diff <= 10 * EPS


@st.composite
def pair_states(draw):
    """An assembled pair of distinct or identical content, canonical base,
    at momenta of any magnitude."""
    p_a = draw(vectors())
    identical = draw(st.booleans())
    p_b = p_a if identical else draw(vectors())
    labels = ("u", "u") if identical else ("u", "w")
    ts_a = draw(st.integers(1, 4))
    ts_b = ts_a if identical else draw(st.integers(1, 4))
    descs = []
    for label, p, ts in zip(labels, (p_a, p_b), (ts_a, ts_b)):
        s = TwiceSpin(ts)
        m = draw(st.sampled_from(range(-ts, ts + 1, 2)))
        r = draw(rotations())
        descs.append(ParticleDescriptor(Q=label, p=p, s=s, m=m, base=FrameTag.CANONICAL, R_BS=r))
    return assemble_pair_canonical_orderfree(*descs, draw(rotations()), draw(rotations()))


@SETTINGS
@hypothesis.given(pair_states())
def test_c04_pure_permute_is_the_identity(state):
    swapped = pure_permute(state)
    assert swapped.desc_a == state.desc_a and swapped.desc_b == state.desc_b
    assert swapped.allclose(state, EPS)


@SETTINGS
@hypothesis.given(noncollinear_pairs())
def test_c09_frame_geometry_at_every_scale(pair):
    p_a, p_b = pair
    fa = helicity_frame(p_a, p_b, tag="a")
    fb = helicity_frame(p_b, p_a, tag="b")
    for f in (fa, fb):
        for u in (f.xhat, f.yhat, f.zhat):
            assert abs(u.norm() - 1.0) <= EPS_GEOM
        assert abs(f.xhat.dot(f.yhat)) <= EPS_GEOM
        assert abs(f.yhat.dot(f.zhat)) <= EPS_GEOM
        assert abs(f.zhat.dot(f.xhat)) <= EPS_GEOM
    assert (fa.yhat + fb.yhat).norm() <= EPS_GEOM
    q_plus = relative_rotation(fb, fa, sheet=1)
    q_minus = relative_rotation(fb, fa, sheet=-1)
    assert q_minus.components() == (-q_plus).components()
    for q in (q_plus, q_minus):
        rot = to_matrix3(q)
        for v_b, v_a in ((fb.xhat, fa.xhat), (fb.yhat, fa.yhat), (fb.zhat, fa.zhat)):
            assert np.abs(rot @ v_b.as_array() - v_a.as_array()).max() <= EPS_GEOM


@SETTINGS
@hypothesis.given(vectors(), vectors(), slots, bads)
def test_non_finite_momenta_are_value_errors_naming_the_momentum(p, q, slot, bad):
    broken = non_finite(p, slot, bad)
    for call in (
        lambda: helicity_frame(broken, q),
        lambda: helicity_frame(q, broken),
        lambda: bisector_axis(broken, q),
        lambda: bisector_axis(q, broken),
    ):
        with pytest.raises(ValueError, match="^momentum .* is not finite$"):
            call()


@SETTINGS
@hypothesis.given(vectors(), slots, bads, st.floats(allow_nan=False, allow_infinity=False))
def test_non_finite_axes_and_angles_are_value_errors_naming_them(axis, slot, bad, angle):
    with pytest.raises(ValueError, match="^rotation axis .* is not finite$"):
        from_axis_angle(non_finite(axis, slot, bad), angle)
    with pytest.raises(ValueError, match="^rotation angle .* is not finite$"):
        from_axis_angle(axis, bad)
