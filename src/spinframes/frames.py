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

from .rotations import (
    EPS_GEOM, UnitQuaternion, Vec3, frame_to_quaternion, half_turn, to_matrix3,
)
from .rotations import _pow2_scaled, _require_finite, _require_right_handed_triad


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


def _spanning_normal(p_this: Vec3, p_other: Vec3) -> tuple[Vec3, Vec3]:
    """The checks a helicity frame needs, without building one: both momenta
    finite (else ValueError) and spanning a plane (else
    CollinearMomentaError). Returns p_this scaled by its power of two and
    the normal p_this x p_other of the scaled momenta."""
    for p in (p_this, p_other):
        _require_finite(p, "momentum")
    p_this, p_other = _pow2_scaled(p_this), _pow2_scaled(p_other)
    n_this, n_other = p_this.norm(), p_other.norm()
    if n_this == 0.0 or n_other == 0.0:
        raise CollinearMomentaError("helicity frame undefined for collinear momenta")
    normal = p_this.cross(p_other)
    if normal.norm() < EPS_GEOM * n_this * n_other:
        raise CollinearMomentaError("helicity frame undefined for collinear momenta")
    return p_this, normal


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
    p_this, normal = _spanning_normal(p_this, p_other)
    zhat = p_this.normalized()
    yhat = normal.normalized()
    xhat = yhat.cross(zhat)
    return HelicityFrame(particle_tag=tag, xhat=xhat, yhat=yhat, zhat=zhat)


def bisector_axis(p_a: Vec3, p_b: Vec3) -> Vec3:
    """Unit vector along p_a-hat + p_b-hat.

    Defined for parallel directions (it is just that direction) but not for
    antiparallel ones, where the sum vanishes. Like helicity_frame, it
    accepts any finite non-zero magnitude and rejects a non-finite one.
    """
    for p in (p_a, p_b):
        _require_finite(p, "momentum")
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
    with sheet in {+1, -1}: rotations.half_turn, so the two sheets are exact
    negatives of each other.
    There is no default sheet: a half-turn's sign is precisely the ambiguity
    this package exists to track, so the caller must choose.

    Raises FrameMismatchError if the half-turn does not in fact map
    frame_from onto frame_to, i.e. the frames are not the two sides of one
    momentum pair.
    """
    q = half_turn(bisector_axis(frame_from.zhat, frame_to.zhat), sheet)
    if _frame_residual(q, frame_from, frame_to) > EPS_GEOM:
        raise FrameMismatchError(
            "half-turn about the bisector does not relate these frames; "
            "they are not the two sides of one momentum pair"
        )
    return q


def _frame_residual(
    q: UnitQuaternion, frame_from: HelicityFrame, frame_to: HelicityFrame
) -> float:
    """Largest distance between q applied to an axis of frame_from and the
    same axis of frame_to."""
    r = to_matrix3(q)
    axes = zip(
        (frame_from.xhat, frame_from.yhat, frame_from.zhat),
        (frame_to.xhat, frame_to.yhat, frame_to.zhat),
    )
    return max((Vec3.from_array(r @ a.as_array()) - b).norm() for a, b in axes)
