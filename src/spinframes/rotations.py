"""Rotations kept on the double cover.

A unit quaternion q and its negative -q project to the same 3x3 rotation
matrix but are distinct values here: they differ by a 2*pi turn, which is
exactly the sign a half-integer spin is sensitive to. Nothing in this module
ever canonicalizes the quaternion sign; composition is the Hamilton product
(right factor acts first) and the inverse is the conjugate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exactnum import EPS, _finite, _require_instance

# Geometry comparisons (frame orthonormality, matrix residuals) run at a
# looser tolerance than the algebraic EPS.
EPS_GEOM = 1e-9

# The geometry formulas on (x, y, z) float triples: Vec3's methods wrap them,
# and the frame code builds a Vec3 only for a value it returns.
_Triple = tuple[float, float, float]


def _dot3(a: _Triple, b: _Triple) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a: _Triple, b: _Triple) -> _Triple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm3(v: _Triple) -> float:
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _unit3(v: _Triple) -> _Triple:
    n = _norm3(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    c = 1.0 / n
    return (c * v[0], c * v[1], c * v[2])


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
        return _dot3(self.components(), other.components())

    def cross(self, other: Vec3) -> Vec3:
        return Vec3(*_cross3(self.components(), other.components()))

    def norm(self) -> float:
        return _norm3(self.components())

    def components(self) -> _Triple:
        return (self.x, self.y, self.z)

    def normalized(self) -> Vec3:
        return Vec3(*_unit3(self.components()))

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
        # a positive test, so that NaN components are rejected too; a norm
        # that is not real fails, numpy's complex ones (which it orders) too;
        # an int too large for a float has the norm^2 of inf
        try:
            n2 = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
            if not (type(n2) is float or isinstance(n2, numbers.Real)):
                raise TypeError
            unit = -EPS <= n2 - 1.0 <= EPS
        except TypeError:
            raise TypeError(
                f"quaternion components must be real numbers, got {self.components()!r}"
            ) from None
        except OverflowError:
            n2, unit = math.inf, False
        if not unit:
            raise ValueError(f"quaternion norm^2 = {n2!r} is not 1 within {EPS}")

    def __neg__(self) -> UnitQuaternion:
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


IDENTITY = UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def _pow2_scaled(p: _Triple) -> _Triple:
    """p times the power of two that brings its largest component into
    [0.5, 1); exact, so the direction is kept bit for bit and no later square
    overflows or underflows. The zero vector stays zero."""
    x, y, z = p
    _, e = math.frexp(max(abs(x), abs(y), abs(z)))
    return (math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e))


def _require_finite(v: Vec3, what: str) -> None:
    """TypeError naming what unless v is a Vec3 of real numbers, ValueError
    unless finite."""
    _require_instance(v, Vec3, what + " must be a Vec3, got {value!r}")
    x, y, z = v.x, v.y, v.z
    # a float triple passes the first test; a complex component, numpy's
    # included, fails the second
    if not (type(x) is type(y) is type(z) is float or all(isinstance(c, numbers.Real) for c in (x, y, z))):
        raise TypeError(f"{what} must be a Vec3 of real numbers, got {v!r}")
    if not _finite(x, y, z):
        raise ValueError(f"{what} {x!r},{y!r},{z!r} is not finite")


def from_axis_angle(axis: Vec3, angle: float) -> UnitQuaternion:
    """Rotation by angle about axis, as a point on the double cover.

    The angle is taken mod 4*pi in effect: angle and angle + 2*pi give
    quaternions of opposite overall sign, angle + 4*pi returns the same one.
    Any finite non-zero axis works: it is first scaled by a power of two, so
    in-range axes give the bits of unscaled arithmetic. The angle may be any
    real number but a bool, numpy's float scalars included.
    """
    _require_finite(axis, "rotation axis")
    _require_instance(angle, numbers.Real, "rotation angle must be a real number, got {value!r}")
    if not _finite(angle):
        raise ValueError(f"rotation angle {angle!r} is not finite")
    x, y, z = _pow2_scaled(axis.components())
    n = _norm3((x, y, z))
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    c = math.cos(half)
    s = math.sin(half) / n
    return UnitQuaternion(c, s * x, s * y, s * z)


def half_turn(axis: Vec3, sheet: int) -> UnitQuaternion:
    """Rotation by sheet * pi about the unit vector axis, sheet in {+1, -1}.

    cos(pi/2) is taken as exactly 0, so the result is the pure quaternion
    (0, sheet * axis): the two sheets negate componentwise, which the
    double-cover sign laws downstream need bit for bit. The caller supplies
    a unit axis. There is no default sheet, and bool is not accepted as one.
    """
    _require_instance(axis, Vec3, "axis must be a Vec3, got {value!r}")
    _require_instance(sheet, int, "sheet must be an int, got {value!r}")
    if sheet not in (1, -1):
        raise ValueError(f"sheet must be +1 or -1, got {sheet!r}")
    return UnitQuaternion(0.0, sheet * axis.x, sheet * axis.y, sheet * axis.z)


def compose(q1: UnitQuaternion, q2: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product q1 * q2 (q2 acts first), renormalized.

    Renormalization divides by a positive scalar, so the double-cover sign of
    the product is untouched.
    """
    _require_instance(q1, UnitQuaternion, "q1 must be a UnitQuaternion, got {value!r}")
    _require_instance(q2, UnitQuaternion, "q2 must be a UnitQuaternion, got {value!r}")
    w = q1.w * q2.w - q1.x * q2.x - q1.y * q2.y - q1.z * q2.z
    x = q1.w * q2.x + q1.x * q2.w + q1.y * q2.z - q1.z * q2.y
    y = q1.w * q2.y - q1.x * q2.z + q1.y * q2.w + q1.z * q2.x
    z = q1.w * q2.z + q1.x * q2.y - q1.y * q2.x + q1.z * q2.w
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def inverse(q: UnitQuaternion) -> UnitQuaternion:
    """Conjugate quaternion; compose(q, inverse(q)) is +identity, never -identity."""
    return UnitQuaternion(q.w, -q.x, -q.y, -q.z)


def turn_parity(r_old: UnitQuaternion, r_new: UnitQuaternion) -> int:
    """Full turns mod 2 from r_old to r_new: 0 for r_old, 1 for -r_old, and
    ValueError for any other 3-D rotation, which no turn count relates."""
    dot = r_old.w * r_new.w + r_old.x * r_new.x + r_old.y * r_new.y + r_old.z * r_new.z
    if not abs(dot) >= 1.0 - EPS_GEOM:
        raise ValueError(f"rotations {r_old!r} and {r_new!r} are not a whole number of turns apart")
    return 0 if dot > 0.0 else 1


def to_matrix3(q: UnitQuaternion) -> np.ndarray:
    """Project onto the 3x3 rotation matrix (active convention).

    This is the two-to-one covering map: to_matrix3(q) == to_matrix3(-q).
    """
    _require_instance(q, UnitQuaternion, "q must be a UnitQuaternion, got {value!r}")
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
    xhat, yhat, zhat = xhat.components(), yhat.components(), zhat.components()
    for v, name in ((xhat, "xhat"), (yhat, "yhat"), (zhat, "zhat")):
        if not abs(_norm3(v) - 1.0) <= EPS_GEOM:
            raise ValueError(f"{name} is not unit length")
    if not (
        abs(_dot3(xhat, yhat)) <= EPS_GEOM
        and abs(_dot3(yhat, zhat)) <= EPS_GEOM
        and abs(_dot3(zhat, xhat)) <= EPS_GEOM
    ):
        raise ValueError("frame axes are not mutually orthogonal")
    if not _dot3(_cross3(xhat, yhat), zhat) >= 0.0:
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
