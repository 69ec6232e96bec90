"""Single-particle descriptors and two-particle spin state vectors.

A particle is described by intrinsic content (Q, p, s) plus a spin
description: a projection m and a sign-carrying rotation R_BS from the base
frame to the standard quantization frame. The pair state expands every
description onto one shared basis labeled by (content, helicity) pairs.

The joint basis label is the UNORDERED pair of single-particle labels, sorted
by a total order on the labels themselves, never by argument position. On
that basis, permuting the argument order of a description is literally the
identity map; all the physics of exchange lives in the descriptions'
rotations instead. The basis layout is spelled out once, in _joint_keys,
which builds it once per content pair.
Order-dependent conventions, where the second slot's rotation is derived
from the first's through a half-turn about the momentum bisector, pick up
(-1)^(2s) phases from the turn-sign law order_dependence_phase (exactnum).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .exactnum import EPS, TwiceSpin, fmt15, m_range, order_dependence_phase
from .frames import _spanning_normal, bisector_axis
from .rotations import UnitQuaternion, Vec3, _require_finite, compose, half_turn, inverse
from .wigner import _evaluate


class FrameTag(enum.Enum):
    HELICITY = "HELICITY"
    CANONICAL = "CANONICAL"


class ExchangeCase(enum.Enum):
    """Which slot keeps its rotation when an ordered description is exchanged.

    FIRST: the exchanged description satisfies R_b = R_a * R_21 (the particle
    moving into slot 1 keeps its rotation; the other collects a full turn).
    SECOND: the exchanged description satisfies R_a = R_b * R_21.
    """

    FIRST = "FIRST"
    SECOND = "SECOND"


# The descriptor fields a wrong type would otherwise reach as an
# AttributeError naming no field; m is checked by TwiceSpin.component.
_FIELD_TYPES = (
    ("Q", str), ("p", Vec3), ("s", TwiceSpin), ("base", FrameTag), ("R_BS", UnitQuaternion)
)


@dataclass(frozen=True)
class ParticleDescriptor:
    """One particle: content (Q, p, s), projection m (as the int 2m), and
    quantization frame.

    R_BS carries the double-cover sign: descriptors with R_BS and -R_BS label
    the same physical frame but different state-vector conventions.
    """

    Q: str
    p: Vec3
    s: TwiceSpin
    m: int
    base: FrameTag
    R_BS: UnitQuaternion
    # Both keys are built once, by the constructor; they stay out of
    # __init__, ==, hash and repr.
    _content_key: tuple = field(init=False, repr=False, compare=False)
    _sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        self.s.component(self.m)
        _require_finite(self.p, "momentum")
        p, r = self.p, self.R_BS
        content = (
            self.Q, struct.unpack("<3Q", struct.pack("<3d", p.x, p.y, p.z)), self.s.twice
        )
        rotation = struct.unpack("<4Q", struct.pack("<4d", r.w, r.x, r.y, r.z))
        object.__setattr__(self, "_content_key", content)
        object.__setattr__(
            self, "_sort_key", (content, self.m, self.base.value, rotation)
        )

    def content_key(self) -> tuple:
        """Total-order key for the particle content; Q compares bytewise and
        momentum components compare by float bit pattern."""
        return self._content_key

    def sort_key(self) -> tuple:
        """content_key, then 2m, the base tag and R_BS's bit patterns."""
        return self._sort_key

    def __str__(self) -> str:
        px, py, pz = (fmt15(self.p.x), fmt15(self.p.y), fmt15(self.p.z))
        rw, rx, ry, rz = (fmt15(c) for c in self.R_BS.components())
        return (
            f"Q={self.Q} p={px},{py},{pz} 2s={self.s.twice} 2m={self.m} "
            f"base={self.base.value} R_BS={rw},{rx},{ry},{rz}"
        )


# A single-particle basis label: (content key, doubled helicity).
_Label = tuple[tuple, int]
# A joint label: the unordered (sorted) pair of single labels.
_JointKey = tuple[_Label, _Label]


def _joint_key(label_1: _Label, label_2: _Label) -> _JointKey:
    return (label_1, label_2) if label_1 <= label_2 else (label_2, label_1)


@lru_cache(maxsize=16)
def _joint_keys(key_a: tuple, key_b: tuple) -> tuple[_JointKey, ...]:
    """The joint keys of the particles with content keys key_a and key_b,
    row by row, lambda_a descending then lambda_b descending: the row-major
    order of their amplitude matrix. Built once per content pair; a pair
    operation touches at most a few content pairs, so a small cache holds
    them. The tuple is made from a list, not from a generator, whose
    step-by-step resizing left the process about 1 MB larger after 8000
    pair operations."""
    lams_b = m_range(TwiceSpin(key_b[2]))
    return tuple([
        _joint_key((key_a, la), (key_b, lb))
        for la in m_range(TwiceSpin(key_a[2]))
        for lb in lams_b
    ])


@dataclass(frozen=True, eq=False)
class PairState:
    """Two-particle state on the content-keyed helicity basis.

    amplitudes maps the unordered joint label to a complex amplitude. The
    descriptor pair is stored in canonical content order, so two descriptions
    of the same physical assignment compare equal structure-by-structure no
    matter which argument order produced them. bisector is built from the
    descriptors on first use and kept; it is not a field, so it stays out
    of ==, hash and repr.
    """

    desc_a: ParticleDescriptor
    desc_b: ParticleDescriptor
    amplitudes: dict[_JointKey, complex]

    def __post_init__(self) -> None:
        if self.desc_b.sort_key() < self.desc_a.sort_key():
            a, b = self.desc_b, self.desc_a
            object.__setattr__(self, "desc_a", a)
            object.__setattr__(self, "desc_b", b)

    @cached_property
    def bisector(self) -> Vec3:
        """Unit bisector of the two momenta (frames.bisector_axis)."""
        return bisector_axis(self.desc_a.p, self.desc_b.p)

    def merged_content(self) -> bool:
        """True when both particles carry identical content (Q, p, s)."""
        return self.desc_a.content_key() == self.desc_b.content_key()

    def amplitude(self, lam_a: int, lam_b: int) -> complex:
        """Amplitude at doubled helicity lam_a for desc_a and lam_b for desc_b."""
        key = _joint_key(
            (self.desc_a.content_key(), self.desc_a.s.component(lam_a)),
            (self.desc_b.content_key(), self.desc_b.s.component(lam_b)),
        )
        return self.amplitudes.get(key, 0j)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.amplitudes.values())))

    def to_matrix(self) -> np.ndarray:
        """Amplitudes as a (2s_a+1) x (2s_b+1) matrix, rows lam_a descending.

        Only defined for distinct content: on a merged basis a label cannot
        be attributed to either particle and the matrix would double-count.
        """
        _require_distinct_content(self.desc_a, self.desc_b)
        keys = _joint_keys(self.desc_a.content_key(), self.desc_b.content_key())
        amps = self.amplitudes
        # the states built here list their amplitudes in basis order, under
        # the basis's own key objects, so one pass of identity checks
        # replaces a hashed lookup per key
        if tuple(amps) == keys:
            values = list(amps.values())
        else:
            values = [amps.get(k, 0j) for k in keys]
        out = np.array(values, dtype=complex)
        return out.reshape(self.desc_a.s.dim, self.desc_b.s.dim)

    def allclose(self, other: PairState, tol: float = EPS) -> bool:
        """Same descriptor pair and amplitudes equal within tol, key by key."""
        if (
            self.desc_a != other.desc_a
            or self.desc_b != other.desc_b
        ):
            return False
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(
            abs(self.amplitudes.get(k, 0j) - other.amplitudes.get(k, 0j)) <= tol
            for k in keys
        )

    def scaled(self, c: complex) -> PairState:
        """Every amplitude times c; a non-finite c raises ValueError."""
        if not np.isfinite(c):
            raise ValueError(f"scale factor {c!r} is not finite")
        return PairState(
            desc_a=self.desc_a,
            desc_b=self.desc_b,
            amplitudes={k: c * v for k, v in self.amplitudes.items()},
        )

    def dump(self) -> str:
        """Serialize: header with both descriptors, then one line per joint
        label as `(lambda_a_twice, lambda_b_twice) re im`, 15 significant
        digits, labels descending. Distinct content lists every basis label
        (desc_a's first, as it sorts first), merged content the stored ones."""
        lines = [f"pair: {self.desc_a} ; {self.desc_b}"]
        if self.merged_content():
            keys = sorted(self.amplitudes, reverse=True)
        else:
            keys = _joint_keys(self.desc_a.content_key(), self.desc_b.content_key())
        for key in keys:
            (_, l1), (_, l2) = key
            v = self.amplitudes.get(key, 0j)
            lines.append(f"({l1}, {l2}) {fmt15(v.real)} {fmt15(v.imag)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, init=False)
class OrderedDescription:
    """Slot-ordered list of descriptors with the derived-rotation convention.

    Only the first slot's rotation is free. Each later slot's R_BS is
    replaced on construction by R_prev * half_turn(k, +1), the exact
    half-turn on the +1 sheet about the bisector k of the adjacent momenta.
    half_turns keeps these, half_turns[i] relating slots i and i + 1; it is
    derived from the slots, so it stays out of == and repr. Exchanging slots
    therefore changes rotations, not just positions; that is the point.
    """

    slots: tuple[ParticleDescriptor, ...]
    half_turns: tuple[UnitQuaternion, ...] = field(repr=False, compare=False)

    def __init__(self, slots: list[ParticleDescriptor] | tuple[ParticleDescriptor, ...]) -> None:
        slots = tuple(slots)
        if len(slots) < 1:
            raise ValueError("ordered description needs at least one slot")
        derived = [slots[0]]
        half_turns = []
        for nxt in slots[1:]:
            prev = derived[-1]
            r21 = half_turn(bisector_axis(prev.p, nxt.p), 1)
            derived.append(_follow(prev, nxt, r21))
            half_turns.append(r21)
        object.__setattr__(self, "slots", tuple(derived))
        object.__setattr__(self, "half_turns", tuple(half_turns))


def _follow(
    prev: ParticleDescriptor, nxt: ParticleDescriptor, r: UnitQuaternion
) -> ParticleDescriptor:
    """The derived-rotation rule: nxt in the slot after prev, with
    R_BS = R_prev * r for the half-turn r relating the two slots."""
    return _with_rotation(nxt, compose(prev.R_BS, r))


def _with_rotation(desc: ParticleDescriptor, r: UnitQuaternion) -> ParticleDescriptor:
    """desc with R_BS = r: dataclasses.replace without its per-call field
    introspection."""
    return ParticleDescriptor(
        Q=desc.Q, p=desc.p, s=desc.s, m=desc.m, base=desc.base, R_BS=r
    )


def rotate_sqf(desc: ParticleDescriptor, q: UnitQuaternion) -> np.ndarray:
    """Coefficient column expanding |m along the frame reached by q> over the
    base-frame projections m' (descending): column m of wigner_D(desc.s, q)."""
    return _evaluate(desc.s, q)[:, desc.s.index(desc.m)]


def _require_noncollinear(desc_a: ParticleDescriptor, desc_b: ParticleDescriptor) -> None:
    # Helicity-based descriptions need the momentum pair to span a plane;
    # canonical-based ones carry their frames independently of the partner.
    if FrameTag.HELICITY in (desc_a.base, desc_b.base):
        _spanning_normal(desc_a.p, desc_b.p)


def assemble_pair_canonical_orderfree(
    desc_a: ParticleDescriptor,
    desc_b: ParticleDescriptor,
    R_a: UnitQuaternion,
    R_b: UnitQuaternion,
) -> PairState:
    """Expand the pair description onto the content-keyed joint basis.

    amplitude(lam_a, lam_b) = D^{s_a}[lam_a, m_a](R_a) * D^{s_b}[lam_b, m_b](R_b).

    The rotations are supplied explicitly and independently: a physically
    complete description says how each particle's frame was reached, sign
    included. Identical-content pairs land on merged (unordered) labels and
    their amplitudes add.
    """
    _require_noncollinear(desc_a, desc_b)
    col_a = rotate_sqf(desc_a, R_a).tolist()
    col_b = rotate_sqf(desc_b, R_b).tolist()
    products = [x * y for x in col_a for y in col_b]
    amps: dict[_JointKey, complex] = {}
    keys = _joint_keys(desc_a.content_key(), desc_b.content_key())
    for key, v in zip(keys, products):
        amps[key] = amps.get(key, 0j) + v
    return PairState(desc_a=desc_a, desc_b=desc_b, amplitudes=amps)


def _require_amplitude_matrix(matrix: object, what: str, shape: tuple[int, int]) -> None:
    """TypeError naming what unless matrix is a numpy array of numbers
    (signed or unsigned int, float or complex; not bool, str, object or
    timedelta); ValueError unless its shape is exactly shape and every
    entry is finite."""
    if not isinstance(matrix, np.ndarray):
        raise TypeError(f"{what} must be a numpy array, got {type(matrix).__name__}")
    # a tenth of the cost of np.issubdtype(dtype, np.number), which would
    # also pass timedelta64
    if matrix.dtype.kind not in "iufc":
        raise TypeError(f"{what} must hold numbers, got dtype {matrix.dtype}")
    if matrix.shape != shape:
        raise ValueError(f"{what} shape {matrix.shape} is not {shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("amplitude matrix has non-finite entries")


def _require_distinct_content(desc_a: ParticleDescriptor, desc_b: ParticleDescriptor) -> None:
    """ValueError for identical content, which has no slot-ordered matrix."""
    if desc_a.content_key() == desc_b.content_key():
        raise ValueError(
            "joint amplitudes of identical-content pairs are stored on a "
            "merged basis and have no slot-ordered matrix form"
        )


def pair_state_from_matrix(
    desc_a: ParticleDescriptor,
    desc_b: ParticleDescriptor,
    matrix: np.ndarray,
) -> PairState:
    """Pair state with the given joint amplitudes, rows indexed by desc_a's
    helicity (descending) and columns by desc_b's.

    For building superpositions directly; contents must be distinct so the
    matrix rows/columns attach unambiguously to the two particles.
    """
    _require_amplitude_matrix(matrix, "matrix", (desc_a.s.dim, desc_b.s.dim))
    _require_distinct_content(desc_a, desc_b)
    _require_noncollinear(desc_a, desc_b)
    values = np.asarray(matrix, dtype=complex).reshape(-1).tolist()
    amps = dict(zip(_joint_keys(desc_a.content_key(), desc_b.content_key()), values))
    return PairState(desc_a=desc_a, desc_b=desc_b, amplitudes=amps)


def pure_permute(state: PairState) -> PairState:
    """Relist the two descriptions in the opposite argument order.

    The joint labels are unordered and the descriptor pair is stored in
    canonical content order, so this rebuild returns a state equal to its
    input: pure permutation of an order-free description is the identity.
    """
    return PairState(
        desc_a=state.desc_b,
        desc_b=state.desc_a,
        amplitudes=dict(state.amplitudes),
    )


def _two_slots(ordered: OrderedDescription, what: str) -> tuple[ParticleDescriptor, ...]:
    """ordered's two slots; ValueError naming what unless there are two."""
    if len(ordered.slots) != 2:
        raise ValueError(f"{what} needs exactly two slots, got {len(ordered.slots)}")
    return ordered.slots


def exchange_order_dependent(
    ordered: OrderedDescription, case: ExchangeCase
) -> tuple[PairState, int]:
    """Exchange the two slots of an order-dependent description.

    The exchanged description must satisfy the same derived-rotation
    convention, which can be done while preserving either particle's
    rotation, not both:

      FIRST: the new slot-1 particle keeps its rotation, so the new slot-2
        rotation is R * R_21^2 = -R, a full turn on the other particle;
        phase (-1)^(2s) of the particle originally in slot 1.
      SECOND: the particle moving to slot 2 keeps its rotation; the full
        turn lands on the new slot-1 particle instead; phase (-1)^(2s) of
        the particle originally in slot 2.

    Returns the exchanged state and that phase, order_dependence_phase of
    turn counts (1, 0) or (0, 1); the exchanged state equals phase times the
    assembled original within EPS. The cases differ by (-1)^(2s_a + 2s_b).
    """
    d1, d2 = _two_slots(ordered, "exchange")
    r21 = ordered.half_turns[0]
    if case is ExchangeCase.FIRST:
        first = d2  # keeps its rotation, compose(d1.R_BS, r21)
        turns = [1, 0]
    elif case is ExchangeCase.SECOND:
        first = _with_rotation(d2, compose(d1.R_BS, inverse(r21)))
        turns = [0, 1]
    else:
        raise ValueError(f"unknown exchange case {case!r}")
    # the exchanged pair has the same bisector, so its half-turn is r21
    second = _follow(first, d1, r21)
    state = assemble_pair_canonical_orderfree(first, second, first.R_BS, second.R_BS)
    return state, order_dependence_phase(turns, [d1.s, d2.s])


def assemble_ordered(ordered: OrderedDescription) -> PairState:
    """Assemble a two-slot ordered description with its derived rotations."""
    d1, d2 = _two_slots(ordered, "pair assembly")
    return assemble_pair_canonical_orderfree(d1, d2, d1.R_BS, d2.R_BS)
