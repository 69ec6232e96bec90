"""Helicity frames for a back-to-back pair and the rotation relating them.

Each particle's frame takes its own momentum direction as the z-axis and the
common normal to the pair's momenta as the y-axis. Swapping which momentum is
"this" and which is "other" flips the y-axis, so the two frames of a pair are
related by a half-turn about the bisector of the momentum directions. That
half-turn lives on the double cover, so it comes in two sheets (rotation by
+pi or -pi) differing by an overall quaternion sign; callers must say which
sheet they mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rotations import EPS_GEOM, UnitQuaternion, Vec3, frame_to_quaternion, to_matrix3
from .rotations import _pow2_scaled, _require_right_handed_triad


class CollinearMomentaError(ValueError):
    """Raised when the pair's momenta do not span a plane."""


class FrameMismatchError(ValueError):
    """Raised when two frames are not the two sides of one momentum pair."""


@dataclass(frozen=True)
class HelicityFrame:
    """Right-handed orthonormal triad; zhat is the particle's momentum direction."""

    particle_tag: str
    xhat: Vec3
    yhat: Vec3
    zhat: Vec3

    def __post_init__(self) -> None:
        _require_right_handed_triad(self.xhat, self.yhat, self.zhat)

    def to_quaternion(self) -> UnitQuaternion:
        """Lift of the triad on the fixed branch of frame_to_quaternion."""
        return frame_to_quaternion(self.xhat, self.yhat, self.zhat)


def helicity_frame(p_this: Vec3, p_other: Vec3, tag: str = "") -> HelicityFrame:
    """Frame of the particle with momentum p_this, partner momentum p_other.

        zhat = normalize(p_this)
        yhat = normalize(p_this x p_other)
        xhat = yhat x zhat

    Both particles of a pair use the same construction with the arguments
    swapped, which negates yhat (and xhat follows). tag labels whose frame
    this is; it carries no geometric meaning. Non-finite momentum components
    raise ValueError. The frame does not depend on the momenta's scale: each
    is first scaled by a power of two, so any finite non-zero magnitude
    works and in-range inputs give the same bits as unscaled arithmetic.
    """
    for p in (p_this, p_other):
        if not all(math.isfinite(c) for c in (p.x, p.y, p.z)):
            raise ValueError(f"momentum {p.x!r},{p.y!r},{p.z!r} is not finite")
    p_this, p_other = _pow2_scaled(p_this), _pow2_scaled(p_other)
    if p_this.norm() == 0.0 or p_other.norm() == 0.0:
        raise CollinearMomentaError("helicity frame undefined for collinear momenta")
    zhat = p_this.normalized()
    normal = p_this.cross(p_other)
    if normal.norm() < EPS_GEOM * p_this.norm() * p_other.norm():
        raise CollinearMomentaError("helicity frame undefined for collinear momenta")
    yhat = normal.normalized()
    xhat = yhat.cross(zhat)
    return HelicityFrame(particle_tag=tag, xhat=xhat, yhat=yhat, zhat=zhat)


def bisector_axis(p_a: Vec3, p_b: Vec3) -> Vec3:
    """Unit vector along p_a-hat + p_b-hat.

    Defined for parallel directions (it is just that direction) but not for
    antiparallel ones, where the sum vanishes. Like helicity_frame, it
    accepts any finite non-zero magnitude.
    """
    a = _pow2_scaled(p_a).normalized()
    b = _pow2_scaled(p_b).normalized()
    s = a + b
    if s.norm() < EPS_GEOM:
        raise ValueError("bisector undefined for antiparallel directions")
    return s.normalized()


def cm_polar_relation(theta: float, phi: float) -> tuple[float, float]:
    """Polar angles of the second back-to-back momentum given the first's.

    Returns (pi - theta, (pi + phi) mod 2*pi).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi={phi} outside [0, 2*pi)")
    return (math.pi - theta, (math.pi + phi) % (2.0 * math.pi))


def relative_rotation(
    frame_from: HelicityFrame, frame_to: HelicityFrame, sheet: int
) -> UnitQuaternion:
    """Double-cover rotation carrying frame_from onto frame_to.

    The axis is the bisector of the two z-axes and the angle is sheet * pi
    with sheet in {+1, -1}; the two sheets are exact negatives of each other.
    There is no default sheet: a half-turn's sign is precisely the ambiguity
    this package exists to track, so the caller must choose.

    Raises FrameMismatchError if the half-turn does not in fact map
    frame_from onto frame_to, i.e. the frames are not the two sides of one
    momentum pair.
    """
    if sheet not in (1, -1):
        raise ValueError(f"sheet must be +1 or -1, got {sheet!r}")
    k = bisector_axis(frame_from.zhat, frame_to.zhat)
    # Half-turn about k: cos(pi/2) vanishes exactly, so the quaternion is the
    # pure vector (0, sheet * k) and the two sheets negate componentwise.
    q = UnitQuaternion(0.0, sheet * k.x, sheet * k.y, sheet * k.z)
    r = to_matrix3(q)
    for v_from, v_to in (
        (frame_from.xhat, frame_to.xhat),
        (frame_from.yhat, frame_to.yhat),
        (frame_from.zhat, frame_to.zhat),
    ):
        image = Vec3.from_array(r @ v_from.as_array())
        if (image - v_to).norm() > EPS_GEOM:
            raise FrameMismatchError(
                "half-turn about the bisector does not relate these frames; "
                "they are not the two sides of one momentum pair"
            )
    return q
