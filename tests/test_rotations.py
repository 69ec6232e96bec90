"""Unit quaternions as double-cover rotations: sign bookkeeping and geometry."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import axis_angle_matrix
from spinframes import (
    EPS,
    IDENTITY,
    UnitQuaternion,
    Vec3,
    compose,
    from_axis_angle,
    half_turn,
    to_matrix3,
)
from spinframes.rotations import frame_to_quaternion, inverse, quaternion_close
from util import rand_quaternion, rand_unit_vec

ZHAT = Vec3(0.0, 0.0, 1.0)


def test_unit_quaternion_validates_norm():
    UnitQuaternion(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        UnitQuaternion(1.0, 1.0, 0.0, 0.0)


def test_unit_quaternion_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            UnitQuaternion(bad, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitQuaternion(0.5, 0.5, 0.5, bad)


def test_unit_quaternion_names_components_that_are_not_real():
    # the norm test rejects them: a complex norm cannot be compared
    for comps in (
        ("a", 0.0, 0.0, 0.0),
        (None, 0.0, 0.0, 0.0),
        (1 + 0j, 0.0, 0.0, 0.0),
        (0.5, 0.5, 0.5, 0.5 + 0j),
        (0.5, 0.5, 0.5, None),
    ):
        with pytest.raises(TypeError, match=r"^quaternion components must be real numbers, got \("):
            UnitQuaternion(*comps)


def test_vec3_normalize_zero_rejected():
    with pytest.raises(ValueError):
        Vec3(0.0, 0.0, 0.0).normalized()


def test_from_axis_angle_full_turn_is_minus_identity():
    q = from_axis_angle(ZHAT, 2.0 * math.pi)
    assert quaternion_close(q, -IDENTITY)


def test_from_axis_angle_null_rotation():
    q = from_axis_angle(ZHAT, 0.0)
    assert quaternion_close(q, IDENTITY)


def test_from_axis_angle_opposite_half_turns_negate():
    k = Vec3(1.0, 2.0, -0.5)
    qp = from_axis_angle(k, math.pi)
    qm = from_axis_angle(k, -math.pi)
    assert quaternion_close(qp, -qm)


def test_from_axis_angle_zero_axis_rejected():
    with pytest.raises(ValueError):
        from_axis_angle(Vec3(0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        from_axis_angle(Vec3(-0.0, 0.0, -0.0), 1.0)


def test_from_axis_angle_rejects_non_finite_axis_and_angle():
    for bad in (math.nan, math.inf, -math.inf):
        for axis in (Vec3(bad, 0.0, 0.0), Vec3(1.0, bad, 0.0), Vec3(0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="axis .* is not finite"):
                from_axis_angle(axis, 1.0)
        with pytest.raises(ValueError, match="angle .* is not finite"):
            from_axis_angle(ZHAT, bad)


def test_from_axis_angle_takes_any_real_angle_but_a_bool():
    axis = Vec3(0.3, -0.4, 1.2)
    for angle in (np.float64(0.7), np.float32(0.5), np.int64(2), 2, Fraction(1, 2)):
        assert from_axis_angle(axis, angle) == from_axis_angle(axis, float(angle)), angle
    for bad in (True, "0.5", None, 0.5j):
        with pytest.raises(TypeError) as got:
            from_axis_angle(axis, bad)
        assert str(got.value) == f"rotation angle must be a real number, got {bad!r}"


def scaled_axis(v: Vec3, k: int) -> Vec3:
    return Vec3(math.ldexp(v.x, k), math.ldexp(v.y, k), math.ldexp(v.z, k))


def test_from_axis_angle_exact_under_power_of_two_scaling():
    rng = random.Random(17)
    for _ in range(200):
        axis = Vec3(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        angle = rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
        q = from_axis_angle(axis, angle)
        for k in (-1000, -500, -40, 40, 500, 1000):
            assert from_axis_angle(scaled_axis(axis, k), angle) == q, k
        # in range, the bits are those of unscaled arithmetic
        n = axis.norm()
        s = math.sin(0.5 * angle) / n
        assert q == UnitQuaternion(math.cos(0.5 * angle), s * axis.x, s * axis.y, s * axis.z)


def test_from_axis_angle_extreme_axis_scales():
    want = from_axis_angle(Vec3(1.0, 0.0, 0.0), 1.0)
    for axis in (
        Vec3(1e200, 0.0, 0.0),
        Vec3(1.7e308, 0.0, 0.0),
        Vec3(1e-10, 0.0, 0.0),
        Vec3(1e-200, 0.0, 0.0),
        Vec3(5e-324, 0.0, 0.0),
        Vec3(1e300, 1e-300, 0.0),
    ):
        assert quaternion_close(from_axis_angle(axis, 1.0), want), axis


def test_half_turn_is_exact_pure_quaternion():
    rng = random.Random(12)
    for k in [ZHAT, Vec3(-0.0, 1.0, 0.0)] + [rand_unit_vec(rng) for _ in range(50)]:
        plus, minus = half_turn(k, 1), half_turn(k, -1)
        assert plus.w == 0.0 and minus.w == 0.0
        assert plus.components()[1:] == (k.x, k.y, k.z)
        assert minus.components() == tuple(-c for c in plus.components())
        for h in (plus, minus):
            assert quaternion_close(compose(h, h), -IDENTITY, EPS)
        assert quaternion_close(compose(plus, minus), IDENTITY, EPS)
        # the same rotation as the angle form, up to cos(pi/2) rounding
        assert quaternion_close(plus, from_axis_angle(k, math.pi))
        assert quaternion_close(minus, from_axis_angle(k, -math.pi))


def test_half_turn_sheet_is_checked():
    for bad in (True, False, 1.0, -1.0, None):
        with pytest.raises(TypeError, match="sheet"):
            half_turn(ZHAT, bad)
    for bad in (0, 2, -2):
        with pytest.raises(ValueError, match="sheet"):
            half_turn(ZHAT, bad)


def test_compose_two_half_turns_is_minus_identity():
    q = from_axis_angle(Vec3(1.0, 1.0, 0.0), math.pi)
    assert quaternion_close(compose(q, q), -IDENTITY)


def test_compose_identity_neutral():
    rng = random.Random(11)
    for _ in range(20):
        q = rand_quaternion(rng)
        assert quaternion_close(compose(q, IDENTITY), q)
        assert quaternion_close(compose(IDENTITY, q), q)


def test_compose_half_turn_with_inverse_half_turn_is_plus_identity():
    # pi then -pi about one axis lands on +identity, not -identity
    k = Vec3(0.3, -0.7, 0.9)
    q = compose(from_axis_angle(k, math.pi), from_axis_angle(k, -math.pi))
    assert quaternion_close(q, IDENTITY)


def test_compose_right_factor_acts_first():
    # rotate x to y about z, then y to z about x: net x -> z
    q1 = from_axis_angle(Vec3(1.0, 0.0, 0.0), math.pi / 2)
    q2 = from_axis_angle(ZHAT, math.pi / 2)
    net = compose(q1, q2)
    image = to_matrix3(net) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(image, [0.0, 0.0, 1.0], atol=1e-12)


def test_inverse_examples():
    assert quaternion_close(inverse(IDENTITY), IDENTITY)
    k = Vec3(0.0, 1.0, 0.0)
    assert quaternion_close(inverse(from_axis_angle(k, math.pi)), from_axis_angle(k, -math.pi))
    assert quaternion_close(inverse(-IDENTITY), -IDENTITY)


def test_inverse_composes_to_plus_identity():
    rng = random.Random(12)
    for _ in range(100):
        q = rand_quaternion(rng)
        r = compose(q, inverse(q))
        assert abs(r.w - 1.0) <= EPS  # never -1
        assert abs(r.x) <= EPS and abs(r.y) <= EPS and abs(r.z) <= EPS


def test_to_matrix3_identity_and_kernel():
    assert np.allclose(to_matrix3(IDENTITY), np.eye(3), atol=1e-15)
    assert np.allclose(to_matrix3(-IDENTITY), np.eye(3), atol=1e-15)


def test_to_matrix3_quarter_turn():
    q = from_axis_angle(ZHAT, math.pi / 2)
    image = to_matrix3(q) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(image, [0.0, 1.0, 0.0], atol=1e-12)


def test_to_matrix3_matches_rodrigues():
    rng = random.Random(13)
    for _ in range(50):
        axis = rand_unit_vec(rng)
        angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        got = to_matrix3(from_axis_angle(axis, angle))
        want = axis_angle_matrix([axis.x, axis.y, axis.z], angle)
        assert np.abs(got - want).max() < 1e-12


def test_projection_homomorphism():
    rng = random.Random(14)
    for _ in range(1000):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        left = to_matrix3(compose(p, q))
        right = to_matrix3(p) @ to_matrix3(q)
        assert np.abs(left - right).max() < 1e-10


def test_period_four_pi_and_sign_at_two_pi():
    rng = random.Random(15)
    for _ in range(100):
        axis = rand_unit_vec(rng)
        theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        base = from_axis_angle(axis, theta)
        assert quaternion_close(from_axis_angle(axis, theta + 4.0 * math.pi), base, tol=1e-11)
        assert quaternion_close(from_axis_angle(axis, theta + 2.0 * math.pi), -base, tol=1e-11)


def test_frame_to_quaternion_standard_basis():
    q = frame_to_quaternion(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    assert quaternion_close(q, IDENTITY)


def test_frame_to_quaternion_half_turn_about_z():
    q = frame_to_quaternion(Vec3(-1, 0, 0), Vec3(0, -1, 0), Vec3(0, 0, 1))
    assert abs(q.w) <= 1e-12
    assert q.z == pytest.approx(1.0)  # branch rule picks z >= 0


def test_frame_to_quaternion_third_turn_about_x():
    rot = to_matrix3(from_axis_angle(Vec3(1, 0, 0), math.pi / 3))
    q = frame_to_quaternion(
        Vec3.from_array(rot[:, 0]), Vec3.from_array(rot[:, 1]), Vec3.from_array(rot[:, 2])
    )
    assert q.w == pytest.approx(math.cos(math.pi / 6))


def test_frame_to_quaternion_rejects_bad_triads():
    with pytest.raises(ValueError):
        frame_to_quaternion(Vec3(2, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    with pytest.raises(ValueError):
        frame_to_quaternion(Vec3(1, 0, 0), Vec3(1, 0, 0), Vec3(0, 0, 1))
    with pytest.raises(ValueError):
        # left-handed: z = x cross y negated
        frame_to_quaternion(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, -1))


def test_frame_to_quaternion_round_trip_up_to_branch():
    rng = random.Random(16)
    for _ in range(200):
        q = rand_quaternion(rng)
        rot = to_matrix3(q)
        got = frame_to_quaternion(
            Vec3.from_array(rot[:, 0]),
            Vec3.from_array(rot[:, 1]),
            Vec3.from_array(rot[:, 2]),
        )
        assert quaternion_close(got, q, tol=1e-9) or quaternion_close(got, -q, tol=1e-9)
        # and the result sits on the documented branch
        for comp in (got.w, got.z, got.y, got.x):
            if abs(comp) > 1e-9:
                assert comp > 0.0
                break
