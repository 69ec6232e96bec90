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

from .exactnum import _require_instance
from .rotations import (
    EPS_GEOM, UnitQuaternion, Vec3, frame_to_quaternion, half_turn, to_matrix3,
)
from .rotations import _cross3, _norm3, _pow2_scaled, _require_finite, _unit3
from .rotations import _require_right_handed_triad, _Triple


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


def _scaled_momenta(p_a: Vec3, p_b: Vec3) -> tuple[_Triple, _Triple]:
    """Both momenta, finite (the public functions check them first), scaled
    by their powers of two as float triples."""
    return _pow2_scaled(p_a.components()), _pow2_scaled(p_b.components())


def _spanning_normal(p_this: Vec3, p_other: Vec3) -> tuple[_Triple, _Triple]:
    """The check a helicity frame needs of two finite momenta, without
    building one: they span a plane (else CollinearMomentaError). Returns
    p_this scaled by its power of two and the normal p_this x p_other of
    the scaled momenta, as float triples."""
    p_this, p_other = _scaled_momenta(p_this, p_other)
    n_this, n_other = _norm3(p_this), _norm3(p_other)
    if n_this == 0.0 or n_other == 0.0:
        raise CollinearMomentaError("helicity frame undefined for collinear momenta")
    normal = _cross3(p_this, p_other)
    if _norm3(normal) < EPS_GEOM * n_this * n_other:
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
    _require_instance(tag, str, "tag must be a str, got {value!r}")
    _require_finite(p_this, "momentum")
    _require_finite(p_other, "momentum")
    p_this, normal = _spanning_normal(p_this, p_other)
    zhat = _unit3(p_this)
    yhat = _unit3(normal)
    xhat = _cross3(yhat, zhat)
    try:
        return HelicityFrame(particle_tag=tag, xhat=Vec3(*xhat), yhat=Vec3(*yhat), zhat=Vec3(*zhat))
    except ValueError:
        # momenta that pass the threshold above by a hair leave the normal
        # too much rounding error for an orthonormal triad
        raise CollinearMomentaError("helicity frame undefined for collinear momenta") from None


def bisector_axis(p_a: Vec3, p_b: Vec3) -> Vec3:
    """Unit vector along p_a-hat + p_b-hat.

    Defined for parallel directions (it is just that direction) but not for
    antiparallel ones, where the sum vanishes. Like helicity_frame, it
    accepts any finite non-zero magnitude and rejects a non-finite one.
    """
    _require_finite(p_a, "momentum")
    _require_finite(p_b, "momentum")
    a, b = _scaled_momenta(p_a, p_b)
    a, b = _unit3(a), _unit3(b)
    s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    if _norm3(s) < EPS_GEOM:
        raise ValueError("bisector undefined for antiparallel directions")
    return Vec3(*_unit3(s))


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
    _require_instance(frame_from, HelicityFrame, "frame_from must be a HelicityFrame, got {type}")
    _require_instance(frame_to, HelicityFrame, "frame_to must be a HelicityFrame, got {type}")
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
    """Largest distance between q applied to an axis of frame_from (by numpy's
    matmul, which fixes the bits) and the same axis of frame_to."""
    r = to_matrix3(q)
    images = ((r @ a.as_array()).tolist() for a in (frame_from.xhat, frame_from.yhat, frame_from.zhat))
    axes = zip(images, (frame_to.xhat, frame_to.yhat, frame_to.zhat))
    return max(_norm3((x - b.x, y - b.y, z - b.z)) for (x, y, z), b in axes)
