"""Rotations kept on the double cover.

A unit quaternion q and its negative -q project to the same 3x3 rotation
matrix but are distinct values here: they differ by a 2*pi turn, which is
exactly the sign a half-integer spin is sensitive to. Nothing in this module
ever canonicalizes the quaternion sign; composition is the Hamilton product
(right factor acts first) and the inverse is the conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactnum import EPS, _require_int

# Geometry comparisons (frame orthonormality, matrix residuals) run at a
# looser tolerance than the algebraic EPS.
EPS_GEOM = 1e-9


@dataclass(frozen=True)
class Vec3:
    """Real 3-vector with the handful of operations the geometry needs."""

    x: float
    y: float
    z: float

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> Vec3:
        return Vec3(-self.x, -self.y, -self.z)

    def scaled(self, c: float) -> Vec3:
        return Vec3(c * self.x, c * self.y, c * self.z)

    def dot(self, other: Vec3) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: Vec3) -> Vec3:
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> Vec3:
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a: np.ndarray) -> Vec3:
        return Vec3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion w + x*i + y*j + z*k; q and -q are distinct values."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n2 = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        # written as a positive test so that NaN components are rejected too
        if not abs(n2 - 1.0) <= EPS:
            raise ValueError(f"quaternion norm^2 = {n2!r} is not 1 within {EPS}")

    def __neg__(self) -> UnitQuaternion:
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


IDENTITY = UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def _pow2_scaled(p: Vec3) -> Vec3:
    """p times the power of two that brings its largest component into
    [0.5, 1); exact, so the direction is kept bit for bit and no later square
    overflows or underflows. The zero vector stays zero."""
    _, e = math.frexp(max(abs(p.x), abs(p.y), abs(p.z)))
    return Vec3(math.ldexp(p.x, -e), math.ldexp(p.y, -e), math.ldexp(p.z, -e))


def _require_finite(v: Vec3, what: str) -> None:
    """ValueError naming what and its components unless v is finite."""
    if not (math.isfinite(v.x) and math.isfinite(v.y) and math.isfinite(v.z)):
        raise ValueError(f"{what} {v.x!r},{v.y!r},{v.z!r} is not finite")


def from_axis_angle(axis: Vec3, angle: float) -> UnitQuaternion:
    """Rotation by angle about axis, as a point on the double cover.

    The angle is taken mod 4*pi in effect: angle and angle + 2*pi give
    quaternions of opposite overall sign, angle + 4*pi returns the same one.
    Any finite non-zero axis works: it is first scaled by a power of two, so
    in-range axes give the bits of unscaled arithmetic.
    """
    _require_finite(axis, "rotation axis")
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle {angle!r} is not finite")
    axis = _pow2_scaled(axis)
    n = axis.norm()
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    c = math.cos(half)
    s = math.sin(half) / n
    return UnitQuaternion(c, s * axis.x, s * axis.y, s * axis.z)


def half_turn(axis: Vec3, sheet: int) -> UnitQuaternion:
    """Rotation by sheet * pi about the unit vector axis, sheet in {+1, -1}.

    cos(pi/2) is taken as exactly 0, so the result is the pure quaternion
    (0, sheet * axis): the two sheets negate componentwise, which the
    double-cover sign laws downstream need bit for bit. The caller supplies
    a unit axis. There is no default sheet, and bool is not accepted as one.
    """
    _require_int(sheet, "sheet")
    if sheet not in (1, -1):
        raise ValueError(f"sheet must be +1 or -1, got {sheet!r}")
    return UnitQuaternion(0.0, sheet * axis.x, sheet * axis.y, sheet * axis.z)


def compose(q1: UnitQuaternion, q2: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product q1 * q2 (q2 acts first), renormalized.

    Renormalization divides by a positive scalar, so the double-cover sign of
    the product is untouched.
    """
    w = q1.w * q2.w - q1.x * q2.x - q1.y * q2.y - q1.z * q2.z
    x = q1.w * q2.x + q1.x * q2.w + q1.y * q2.z - q1.z * q2.y
    y = q1.w * q2.y - q1.x * q2.z + q1.y * q2.w + q1.z * q2.x
    z = q1.w * q2.z + q1.x * q2.y - q1.y * q2.x + q1.z * q2.w
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def inverse(q: UnitQuaternion) -> UnitQuaternion:
    """Conjugate quaternion; compose(q, inverse(q)) is +identity, never -identity."""
    return UnitQuaternion(q.w, -q.x, -q.y, -q.z)


def to_matrix3(q: UnitQuaternion) -> np.ndarray:
    """Project onto the 3x3 rotation matrix (active convention).

    This is the two-to-one covering map: to_matrix3(q) == to_matrix3(-q).
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ],
        dtype=float,
    )


def _require_right_handed_triad(xhat: Vec3, yhat: Vec3, zhat: Vec3) -> None:
    # Each check is written as a positive test so that NaN axes fail it.
    for v, name in ((xhat, "xhat"), (yhat, "yhat"), (zhat, "zhat")):
        if not abs(v.norm() - 1.0) <= EPS_GEOM:
            raise ValueError(f"{name} is not unit length")
    if not (
        abs(xhat.dot(yhat)) <= EPS_GEOM
        and abs(yhat.dot(zhat)) <= EPS_GEOM
        and abs(zhat.dot(xhat)) <= EPS_GEOM
    ):
        raise ValueError("frame axes are not mutually orthogonal")
    if not xhat.cross(yhat).dot(zhat) >= 0.0:
        raise ValueError("frame is left-handed (xhat x yhat points against zhat)")


def frame_to_quaternion(xhat: Vec3, yhat: Vec3, zhat: Vec3) -> UnitQuaternion:
    """Lift a right-handed orthonormal triad to a quaternion.

    The triad only determines the quaternion up to overall sign, so a fixed
    branch is chosen: the first component of (w, z, y, x) with magnitude
    above EPS_GEOM is made non-negative. Callers that care about the other
    sheet negate the result themselves.
    """
    _require_right_handed_triad(xhat, yhat, zhat)

    # Columns of the rotation matrix are the images of the lab axes.
    m = np.column_stack([xhat.as_array(), yhat.as_array(), zhat.as_array()])
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = 2.0 * math.sqrt(tr + 1.0)
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = 2.0 * math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    n = math.sqrt(w * w + x * x + y * y + z * z)
    q = UnitQuaternion(w / n, x / n, y / n, z / n)

    for comp in (q.w, q.z, q.y, q.x):
        if abs(comp) > EPS_GEOM:
            return -q if comp < 0.0 else q
    return q


def quaternion_close(q1: UnitQuaternion, q2: UnitQuaternion, tol: float = EPS) -> bool:
    """Componentwise closeness; sign-sensitive, as everything here must be."""
    return (
        abs(q1.w - q2.w) <= tol
        and abs(q1.x - q2.x) <= tol
        and abs(q1.y - q2.y) <= tol
        and abs(q1.z - q2.z) <= tol
    )
