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
(-1)^(2s) phases: the turn-sign law order_dependence_phase (exactnum) of the
turns measured on each particle's rotation (rotations.turn_parity).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .exactnum import EPS, TwiceSpin, _require_instance, float_bits, fmt15_complex, fmt15_join
from .exactnum import _finite, _show, m_range, order_dependence_phase
from .frames import _helicity_triad, bisector_axis
from .rotations import UnitQuaternion, Vec3, _require_finite, compose, half_turn, inverse, turn_parity
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
        # every field is checked before any is used; m by TwiceSpin.component
        _require_instance(self.Q, str, "Q must be a str, got {type}")
        _require_instance(self.p, Vec3, "p must be a Vec3, got {type}")
        _require_instance(self.s, TwiceSpin, "s must be a TwiceSpin, got {type}")
        _require_instance(self.base, FrameTag, "base must be a FrameTag, got {type}")
        _require_instance(self.R_BS, UnitQuaternion, "R_BS must be a UnitQuaternion, got {type}")
        self.s.component(self.m)
        _require_finite(self.p, "momentum")
        p, r = self.p, self.R_BS
        # one pack for both keys costs no more than a pack per key
        bits = float_bits((p.x, p.y, p.z, r.w, r.x, r.y, r.z))
        content = (self.Q, bits[:3], self.s.twice)
        object.__setattr__(self, "_content_key", content)
        object.__setattr__(self, "_sort_key", (content, self.m, self.base.value, bits[3:]))

    def content_key(self) -> tuple:
        """Total-order key for the particle content; Q compares bytewise and
        momentum components compare by float bit pattern."""
        return self._content_key

    def sort_key(self) -> tuple:
        """content_key, then 2m, the base tag and R_BS's bit patterns."""
        return self._sort_key

    def __str__(self) -> str:
        return (
            f"Q={self.Q} p={fmt15_join(self.p.components())} 2s={self.s.twice} "
            f"2m={self.m} base={self.base.value} R_BS={fmt15_join(self.R_BS.components())}"
        )


def _require_descriptors(desc_a: object, desc_b: object) -> None:
    """TypeError naming desc_a or desc_b unless it is a ParticleDescriptor."""
    _require_instance(desc_a, ParticleDescriptor, "desc_a must be a ParticleDescriptor, got {type}")
    _require_instance(desc_b, ParticleDescriptor, "desc_b must be a ParticleDescriptor, got {type}")


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
        _require_descriptors(self.desc_a, self.desc_b)
        _require_instance(self.amplitudes, dict, "amplitudes must be a dict, got {type}")
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

    def _basis_amplitudes(self) -> tuple[tuple[_JointKey, ...], list[complex]]:
        """Every label of the pair's basis, descending, and its amplitude (0j
        if none is stored); ValueError for a stored label outside the basis."""
        labels = _joint_keys(self.desc_a.content_key(), self.desc_b.content_key())
        amps = self.amplitudes
        # distinct content lists its basis row-major, which is descending, and
        # the states built here store it in that order under these key objects
        if tuple(amps) == labels:
            return labels, list(amps.values())
        basis = set(labels)
        foreign = [k for k in amps if k not in basis]
        if foreign:
            raise ValueError(f"amplitude label {_show(foreign[0])} is not in the pair's basis")
        labels = tuple(sorted(basis, reverse=True))
        return labels, [amps.get(k, 0j) for k in labels]

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self._basis_amplitudes()[1]))

    def to_matrix(self) -> np.ndarray:
        """Amplitudes as a (2s_a+1) x (2s_b+1) matrix, rows lam_a descending.

        Only defined for distinct content: on a merged basis a label cannot
        be attributed to either particle and the matrix would double-count.
        A label outside the pair's basis raises ValueError.
        """
        _require_distinct_content(self.desc_a, self.desc_b)
        out = np.array(self._basis_amplitudes()[1], dtype=complex)
        return out.reshape(self.desc_a.s.dim, self.desc_b.s.dim)

    def allclose(self, other: PairState, tol: float = EPS) -> bool:
        """Same descriptor pair and amplitudes equal within tol, label by
        label. other must be a PairState and tol a finite real number >= 0."""
        _require_instance(other, PairState, "other must be a PairState, got {type}")
        _require_instance(tol, numbers.Real, "tol must be a real number, got {value}")
        if not (_finite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {_show(tol)}")
        if self.desc_a != other.desc_a or self.desc_b != other.desc_b:
            return False
        pairs = zip(self._basis_amplitudes()[1], other._basis_amplitudes()[1])
        return all(abs(x - y) <= tol for x, y in pairs)

    def scaled(self, c: complex) -> PairState:
        """Every amplitude times c, a complex number (TypeError otherwise,
        a bool included); a non-finite c raises ValueError."""
        _require_instance(c, numbers.Complex, "scale factor must be a complex number, got {value}")
        if not _finite(c.real, c.imag):
            raise ValueError(f"scale factor {_show(c)} is not finite")
        return PairState(self.desc_a, self.desc_b, {k: c * v for k, v in self.amplitudes.items()})

    def dump(self) -> str:
        """Serialize: header with both descriptors, then one line per label
        of the pair's basis as `(lambda_a_twice, lambda_b_twice) re im`, 15
        significant digits, labels descending, 0 0 where none is stored, for
        merged content too (distinct: desc_a's first, as it sorts first)."""
        lines = [f"pair: {self.desc_a} ; {self.desc_b}"]
        for ((_, l1), (_, l2)), v in zip(*self._basis_amplitudes()):
            lines.append(f"({l1}, {l2}) {fmt15_complex(v)}")
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
        _require_instance(slots, (list, tuple), "slots must be a list or tuple, got {value}")
        slots = tuple(slots)
        for slot in slots:
            _require_instance(slot, ParticleDescriptor, "slot must be a ParticleDescriptor, got {type}")
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
    """The derived-rotation rule: nxt in the slot after prev, with R_BS =
    R_prev * r for the half-turn r relating the two slots."""
    return ParticleDescriptor(nxt.Q, nxt.p, nxt.s, nxt.m, nxt.base, compose(prev.R_BS, r))


def rotate_sqf(desc: ParticleDescriptor, q: UnitQuaternion) -> np.ndarray:
    """Coefficient column expanding |m along the frame reached by q> over the
    base-frame projections m' (descending): column m of wigner_D(desc.s, q)."""
    _require_instance(desc, ParticleDescriptor, "desc must be a ParticleDescriptor, got {type}")
    return _evaluate(desc.s, q)[:, desc.s.index(desc.m)]


def _require_helicity_frames(desc_a: ParticleDescriptor, desc_b: ParticleDescriptor) -> None:
    # Helicity-based descriptions need the pair's helicity frames (one rule,
    # either order); canonical-based frames do not depend on the partner.
    if FrameTag.HELICITY in (desc_a.base, desc_b.base):
        _helicity_triad(desc_a.p, desc_b.p)


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
    _require_descriptors(desc_a, desc_b)
    _require_helicity_frames(desc_a, desc_b)
    if desc_b.sort_key() < desc_a.sort_key():  # canonical order: amplitudes in basis order
        desc_a, desc_b, R_a, R_b = desc_b, desc_a, R_b, R_a
    col_a = rotate_sqf(desc_a, R_a).tolist()
    col_b = rotate_sqf(desc_b, R_b).tolist()
    products = [x * y for x in col_a for y in col_b]
    amps: dict[_JointKey, complex] = {}
    keys = _joint_keys(desc_a.content_key(), desc_b.content_key())
    for key, v in zip(keys, products):
        amps[key] = amps.get(key, 0j) + v
    return PairState(desc_a, desc_b, amps)


def _require_amplitude_matrix(matrix: object, what: str, shape: tuple[int, int]) -> None:
    """TypeError naming what unless matrix is a numpy array of numbers
    (signed or unsigned int, float or complex; not bool, str, object or
    timedelta); ValueError unless its shape is exactly shape and every
    entry is finite."""
    _require_instance(matrix, np.ndarray, what + " must be a numpy array, got {type}")
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
    _require_descriptors(desc_a, desc_b)
    _require_amplitude_matrix(matrix, "matrix", (desc_a.s.dim, desc_b.s.dim))
    _require_distinct_content(desc_a, desc_b)
    _require_helicity_frames(desc_a, desc_b)
    if desc_b.sort_key() < desc_a.sort_key():  # canonical order: amplitudes in basis order
        return pair_state_from_matrix(desc_b, desc_a, matrix.T)
    values = np.asarray(matrix, dtype=complex).reshape(-1).tolist()
    amps = dict(zip(_joint_keys(desc_a.content_key(), desc_b.content_key()), values))
    return PairState(desc_a, desc_b, amps)


def pure_permute(state: PairState) -> PairState:
    """Relist the two descriptions in the opposite argument order.

    The joint labels are unordered and the descriptor pair is stored in
    canonical content order, so this rebuild returns a state equal to its
    input: pure permutation of an order-free description is the identity.
    """
    _require_instance(state, PairState, "state must be a PairState, got {type}")
    return PairState(state.desc_b, state.desc_a, dict(state.amplitudes))


def _two_slots(ordered: OrderedDescription, what: str) -> tuple[ParticleDescriptor, ...]:
    """ordered's slots: TypeError unless an OrderedDescription, ValueError unless two."""
    _require_instance(ordered, OrderedDescription, "ordered must be an OrderedDescription, got {type}")
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

    Returns the exchanged state and order_dependence_phase of the turns
    turn_parity measures on each particle; the state is that phase times
    the original within EPS. Cases differ by (-1)^(2s_a + 2s_b).
    """
    d1, d2 = _two_slots(ordered, "exchange")
    _require_instance(case, ExchangeCase, "case must be an ExchangeCase, got {value}")
    r21 = ordered.half_turns[0]
    # FIRST: d2 keeps its rotation, compose(d1.R_BS, r21)
    first = d2 if case is ExchangeCase.FIRST else _follow(d1, d2, inverse(r21))
    # the exchanged pair has the same bisector, so its half-turn is r21
    second = _follow(first, d1, r21)
    turns = [turn_parity(d1.R_BS, second.R_BS), turn_parity(d2.R_BS, first.R_BS)]
    state = assemble_pair_canonical_orderfree(first, second, first.R_BS, second.R_BS)
    return state, order_dependence_phase(turns, [d1.s, d2.s])


def assemble_ordered(ordered: OrderedDescription) -> PairState:
    """Assemble a two-slot ordered description with its derived rotations."""
    d1, d2 = _two_slots(ordered, "pair assembly")
    return assemble_pair_canonical_orderfree(d1, d2, d1.R_BS, d2.R_BS)
