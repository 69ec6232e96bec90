"""Helicity-frame construction, the bisector half-turn relating a pair's two
frames, and the sheet bookkeeping on the double cover."""

import math
import random

import numpy as np
import pytest

from spinframes import (
    EPS_GEOM,
    CollinearMomentaError,
    FrameMismatchError,
    HelicityFrame,
    Vec3,
    bisector_axis,
    cm_polar_relation,
    helicity_frame,
    relative_rotation,
    to_matrix3,
)
from util import figure_pair, rand_noncollinear_pair

S45 = math.sin(math.pi / 4.0)
C45 = math.cos(math.pi / 4.0)


def close(u: Vec3, v: Vec3, tol: float = 1e-15) -> bool:
    return (u - v).norm() < tol


def test_frame_axes_mirrored_pair():
    p_a, p_b = figure_pair(math.pi / 4.0)
    fa = helicity_frame(p_a, p_b, tag="a")
    assert fa.particle_tag == "a"
    assert close(fa.zhat, Vec3(S45, 0.0, C45))
    assert close(fa.yhat, Vec3(0.0, -1.0, 0.0))
    assert close(fa.xhat, Vec3(-C45, 0.0, S45))


def test_frame_axes_perpendicular_momenta():
    f = helicity_frame(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))
    assert f.particle_tag == ""
    assert close(f.zhat, Vec3(1.0, 0.0, 0.0))
    assert close(f.yhat, Vec3(0.0, 0.0, 1.0))
    assert close(f.xhat, Vec3(0.0, 1.0, 0.0))


def test_frame_depends_only_on_directions():
    p_a, p_b = figure_pair(0.9)
    fa = helicity_frame(p_a, p_b)
    fa_scaled = helicity_frame(p_a.scaled(3.0), p_b.scaled(0.25))
    assert close(fa.xhat, fa_scaled.xhat, 1e-12)
    assert close(fa.yhat, fa_scaled.yhat, 1e-12)
    assert close(fa.zhat, fa_scaled.zhat, 1e-12)


def test_collinear_momenta_rejected():
    v = Vec3(0.3, -0.2, 0.9)
    for other in (v, v.scaled(2.0), v.scaled(-1.0), v.scaled(-0.5)):
        with pytest.raises(CollinearMomentaError, match="collinear"):
            helicity_frame(v, other)
    with pytest.raises(CollinearMomentaError):
        helicity_frame(Vec3(0.0, 0.0, 0.0), v)
    with pytest.raises(CollinearMomentaError):
        helicity_frame(v, Vec3(0.0, 0.0, 0.0))


def test_non_finite_momenta_rejected():
    good = Vec3(0.3, -0.2, 0.9)
    for bad in (math.nan, math.inf, -math.inf):
        for p in (Vec3(bad, 0.0, 1.0), Vec3(1.0, bad, 0.0), Vec3(0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="not finite"):
                helicity_frame(p, good)
            with pytest.raises(ValueError, match="not finite"):
                helicity_frame(good, p)
            with pytest.raises(ValueError, match="momentum .* is not finite"):
                bisector_axis(p, good)
            with pytest.raises(ValueError, match="momentum .* is not finite"):
                bisector_axis(good, p)


def pow2_scaled(p: Vec3, k: int) -> Vec3:
    return Vec3(math.ldexp(p.x, k), math.ldexp(p.y, k), math.ldexp(p.z, k))


def test_frame_and_bisector_exact_under_power_of_two_scaling():
    rng = random.Random(36)
    for _ in range(50):
        p_a, p_b = rand_noncollinear_pair(rng)
        frame = helicity_frame(p_a, p_b)
        k = bisector_axis(p_a, p_b)
        for ka, kb in ((-990, -990), (-990, 1000), (1000, 1000), (600, -3)):
            big_a, big_b = pow2_scaled(p_a, ka), pow2_scaled(p_b, kb)
            assert helicity_frame(big_a, big_b) == frame
            assert bisector_axis(big_a, big_b) == k


def test_frame_bits_match_unscaled_arithmetic_in_range():
    rng = random.Random(37)
    for _ in range(200):
        p_a, p_b = rand_noncollinear_pair(rng)
        p_a = p_a.scaled(rng.choice((1e-6, 1.0, 3.0, 1e6)))
        p_b = p_b.scaled(rng.uniform(0.1, 10.0))
        zhat = p_a.scaled(1.0 / p_a.norm())
        normal = p_a.cross(p_b)
        yhat = normal.scaled(1.0 / normal.norm())
        frame = helicity_frame(p_a, p_b)
        assert (frame.zhat, frame.yhat, frame.xhat) == (zhat, yhat, yhat.cross(zhat))


def test_extreme_momentum_scales():
    unit = helicity_frame(Vec3(1.0, 0.0, 1.0), Vec3(-1.0, 0.0, 1.0))
    for c in (1e-10, 1e-300, 5e-324, 1e200, 1e300):
        p_a, p_b = Vec3(c, 0.0, c), Vec3(-c, 0.0, c)
        f = helicity_frame(p_a, p_b)
        for got, want in ((f.xhat, unit.xhat), (f.yhat, unit.yhat), (f.zhat, unit.zhat)):
            assert close(got, want)
        assert close(bisector_axis(p_a, p_b), Vec3(0.0, 0.0, 1.0))
    f = helicity_frame(Vec3(1e300, 0.0, 0.0), Vec3(0.0, 1e-300, 0.0))
    assert (f.zhat, f.yhat) == (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0))
    # 2e-200 short of antiparallel: collinear within EPS_GEOM at any scale
    with pytest.raises(CollinearMomentaError, match="collinear"):
        helicity_frame(Vec3(1e200, 0.0, 1.0), Vec3(-1e200, 0.0, 1.0))


def test_random_frames_orthonormal_and_adapted():
    rng = random.Random(31)
    for _ in range(1000):
        p_a, p_b = rand_noncollinear_pair(rng)
        f = helicity_frame(p_a, p_b)
        for u in (f.xhat, f.yhat, f.zhat):
            assert abs(u.norm() - 1.0) < 1e-12
        assert abs(f.xhat.dot(f.yhat)) < 1e-12
        assert abs(f.yhat.dot(f.zhat)) < 1e-12
        assert abs(f.zhat.dot(f.xhat)) < 1e-12
        assert close(f.xhat.cross(f.yhat), f.zhat, 1e-12)
        assert close(f.zhat, p_a.normalized(), 1e-12)
        assert abs(f.yhat.dot(p_b)) < 1e-12  # normal to the momentum plane


def test_swap_negates_yhat_exactly():
    rng = random.Random(32)
    for _ in range(200):
        p_a, p_b = rand_noncollinear_pair(rng)
        fa = helicity_frame(p_a, p_b)
        fb = helicity_frame(p_b, p_a)
        # cross-product antisymmetry survives normalization bit for bit
        assert fb.yhat.x == -fa.yhat.x
        assert fb.yhat.y == -fa.yhat.y
        assert fb.yhat.z == -fa.yhat.z


def test_frame_triad_validation():
    x = Vec3(1.0, 0.0, 0.0)
    y = Vec3(0.0, 1.0, 0.0)
    z = Vec3(0.0, 0.0, 1.0)
    HelicityFrame("", x, y, z)
    with pytest.raises(ValueError, match="unit"):
        HelicityFrame("", x.scaled(1.1), y, z)
    with pytest.raises(ValueError, match="orthogonal"):
        HelicityFrame("", x, Vec3(0.1, 0.99498743710662, 0.0), z)
    with pytest.raises(ValueError, match="left-handed"):
        HelicityFrame("", x, y, z.scaled(-1.0))
    with pytest.raises(ValueError, match="unit"):
        HelicityFrame("", Vec3(math.nan, 0.0, 0.0), y, z)


def test_frame_to_quaternion_carries_basis_onto_triad():
    rng = random.Random(33)
    for _ in range(50):
        f = helicity_frame(*rand_noncollinear_pair(rng))
        r = to_matrix3(f.to_quaternion())
        assert np.abs(r[:, 0] - f.xhat.as_array()).max() < 1e-12
        assert np.abs(r[:, 1] - f.yhat.as_array()).max() < 1e-12
        assert np.abs(r[:, 2] - f.zhat.as_array()).max() < 1e-12


def test_bisector_examples():
    p_a, p_b = figure_pair(math.pi / 4.0)
    assert close(bisector_axis(p_a, p_b), Vec3(0.0, 0.0, 1.0), 1e-15)
    assert close(bisector_axis(p_b, p_a), Vec3(0.0, 0.0, 1.0), 1e-15)
    v = Vec3(0.6, 0.0, 0.8)
    assert close(bisector_axis(v, v.scaled(5.0)), v, 1e-15)
    assert close(
        bisector_axis(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)),
        Vec3(S45, C45, 0.0),
        1e-15,
    )


def test_bisector_antiparallel_rejected():
    v = Vec3(0.1, -0.7, 0.3)
    with pytest.raises(ValueError, match="antiparallel"):
        bisector_axis(v, v.scaled(-2.0))


def test_cm_polar_relation_examples():
    theta, phi = cm_polar_relation(math.pi / 2.0, 0.0)
    assert theta == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert phi == pytest.approx(math.pi, abs=1e-15)
    theta, phi = cm_polar_relation(0.0, 0.0)
    assert theta == pytest.approx(math.pi, abs=1e-15)
    assert phi == pytest.approx(math.pi, abs=1e-15)
    theta, phi = cm_polar_relation(math.pi / 3.0, math.pi / 2.0)
    assert theta == pytest.approx(2.0 * math.pi / 3.0, abs=1e-15)
    assert phi == pytest.approx(1.5 * math.pi, abs=1e-15)
    # phi wraps back into [0, 2*pi)
    _, phi = cm_polar_relation(0.5, 1.75 * math.pi)
    assert phi == pytest.approx(0.75 * math.pi, abs=1e-12)


def test_cm_polar_relation_matches_frame_geometry():
    rng = random.Random(34)
    for _ in range(100):
        theta = rng.uniform(0.01, math.pi - 0.01)
        phi = rng.uniform(0.0, 2.0 * math.pi - 1e-9)
        tb, pb = cm_polar_relation(theta, phi)
        p_a = Vec3(
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )
        p_b = Vec3(math.sin(tb) * math.cos(pb), math.sin(tb) * math.sin(pb), math.cos(tb))
        assert close(p_b, p_a.scaled(-1.0), 1e-12)


def test_cm_polar_relation_domain():
    for theta, phi in ((-0.1, 0.0), (math.pi + 0.1, 0.0), (1.0, -0.1), (1.0, 2.0 * math.pi)):
        with pytest.raises(ValueError):
            cm_polar_relation(theta, phi)


def test_relative_rotation_mirrored_pair_is_pure_z():
    p_a, p_b = figure_pair(math.pi / 4.0)
    fa = helicity_frame(p_a, p_b, tag="a")
    fb = helicity_frame(p_b, p_a, tag="b")
    q_plus = relative_rotation(fa, fb, sheet=1)
    assert (q_plus.w, q_plus.x, q_plus.y, q_plus.z) == (0.0, 0.0, 0.0, 1.0)
    q_minus = relative_rotation(fa, fb, sheet=-1)
    assert q_minus.w == -q_plus.w
    assert q_minus.x == -q_plus.x
    assert q_minus.y == -q_plus.y
    assert q_minus.z == -q_plus.z


def test_relative_rotation_maps_triads_both_sheets():
    rng = random.Random(35)
    for _ in range(200):
        p_a, p_b = rand_noncollinear_pair(rng)
        fa = helicity_frame(p_a, p_b)
        fb = helicity_frame(p_b, p_a)
        for sheet in (1, -1):
            r = to_matrix3(relative_rotation(fa, fb, sheet))
            for v_from, v_to in ((fa.xhat, fb.xhat), (fa.yhat, fb.yhat), (fa.zhat, fb.zhat)):
                assert np.abs(r @ v_from.as_array() - v_to.as_array()).max() < 1e-9
        # the half-turn is an involution on frames: the reverse works too
        relative_rotation(fb, fa, sheet=1)


def test_relative_rotation_sheet_is_mandatory_and_checked():
    p_a, p_b = figure_pair(0.7)
    fa = helicity_frame(p_a, p_b)
    fb = helicity_frame(p_b, p_a)
    with pytest.raises(TypeError):
        relative_rotation(fa, fb)
    for bad in (0, 2, -2):
        with pytest.raises(ValueError, match="sheet"):
            relative_rotation(fa, fb, bad)
    # bool is an int subclass, but True is not a sheet
    for bad in (True, False):
        with pytest.raises(TypeError, match="sheet"):
            relative_rotation(fb, fa, bad)


def test_relative_rotation_rejects_unrelated_frames():
    p_a, p_b = figure_pair(0.7)
    fa = helicity_frame(p_a, p_b)
    stranger = helicity_frame(Vec3(0.0, 1.0, 0.0), Vec3(1.0, 0.0, 0.0))
    with pytest.raises(FrameMismatchError):
        relative_rotation(fa, stranger, sheet=1)


def test_frames_at_tolerance_boundary():
    # nearly collinear momenta stay above the rejection threshold
    eps = 10.0 * EPS_GEOM
    f = helicity_frame(Vec3(0.0, 0.0, 1.0), Vec3(eps, 0.0, 1.0))
    assert close(f.yhat, Vec3(0.0, 1.0, 0.0), 1e-9)
