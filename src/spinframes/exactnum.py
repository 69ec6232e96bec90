"""Exact integer bookkeeping for spin labels, and the sign rules built on it.

Spins and spin projections are carried as doubled integers, so half-integer
labels never touch floating point and every sign rule reduces to integer
parity. A spin is a TwiceSpin (2s, checked on construction); a projection is
a plain int 2m, checked against its spin by TwiceSpin.component. The label
order (m_range, TwiceSpin.index), the triangle rule (total_spins) and the
spin bound (MAX_TWICE_SPIN) are defined here only, as are float bit identity
(float_bits) and float text (fmt15, fmt15_join, fmt15_complex). The module
needs no numpy.

The one turn-sign law, (-1)^(sum_i n_i * 2s_i) for n_i full turns on particle
i's frame, is order_dependence_phase; every turn sign in the package comes
from it, and neg_one_pow directly serves only the coupling signs. Coupling
two identical spins s, a slot swap multiplies |S M> by (-1)^(2s - S)
(exchange_symmetry_sign). Bringing both particles to one common frame adds a
half-turn squared, (-1)^(2s), as the half-turn's sheet is an order-dependent
choice. The product (-1)^S (pseudo_antisymmetry_sign) is even in S for
integer and half-integer spin alike, which confines identical pairs with all
other quantum numbers equal to even composite spin (exclusion_check).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

# Tolerance for comparing floats/complexes produced by short exact-factorial
# sums and quaternion algebra.
EPS = 1e-12

# Hard cap for factorial_exact arguments. Factorials and their products are
# exact ints, so the cap bounds no rounding: it guards against a huge
# factorial from a label past the spin bound. The largest argument taken is
# 25, the Racah sum's (s1 + s2 + S + 1)! at 2s1 = 2s2 = MAX_TWICE_SPIN.
N_FACT = 40

# Largest 2s the package evaluates; the factorial budget and the intended
# desk-scale use both stop here.
MAX_TWICE_SPIN = 12


def _require_instance(value: object, kind: type | tuple[type, ...], what: str) -> None:
    """The package's one type check: TypeError unless value is an instance of
    kind and not a bool, its message what formatted with {value} and {type}."""
    if not isinstance(value, kind) or value is True or value is False:
        raise TypeError(what.format(value=value, type=type(value).__name__))


def _finite(*values: float) -> bool:
    """The package's one finiteness test: True when every value is a finite
    real number. An int too large for a float is not finite, so its caller
    names it as it names inf, where math.isfinite raises OverflowError."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


@dataclass(frozen=True, order=True)
class TwiceSpin:
    """Spin magnitude s stored as the integer 2s."""

    twice: int

    def __post_init__(self) -> None:
        _require_instance(self.twice, int, "twice-spin must be an int, got {value!r}")
        if self.twice < 0:
            raise ValueError(f"twice-spin must be >= 0, got {self.twice}")

    def is_halfon(self) -> bool:
        """True when s is half-integer (2s odd)."""
        return self.twice % 2 == 1

    def is_fullon(self) -> bool:
        """True when s is integer (2s even)."""
        return self.twice % 2 == 0

    @property
    def dim(self) -> int:
        """Dimension 2s + 1 of the projection space."""
        return self.twice + 1

    def component(self, twice_m: int) -> int:
        """twice_m, checked as a projection 2m of this spin; the one check a
        projection label gets. TypeError unless an int; ValueError if
        |2m| > 2s or if 2m and 2s differ in parity."""
        _require_instance(twice_m, int, "twice-m must be an int, got {value!r}")
        if abs(twice_m) > self.twice:
            raise ValueError(f"|2m|={abs(twice_m)} exceeds 2s={self.twice}")
        if (twice_m - self.twice) % 2 != 0:
            raise ValueError(
                f"2m={twice_m} must have the same parity as 2s={self.twice}"
            )
        return twice_m

    def index(self, twice_m: int) -> int:
        """Position of the projection 2m in m_range(self), i.e. the row or
        column it labels; raises as component does."""
        return (self.twice - self.component(twice_m)) // 2

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __hash__(self) -> int:  # the int's own hash, without a field tuple
        return hash(self.twice)


def _require_supported(s: TwiceSpin) -> None:
    """TypeError unless s is a TwiceSpin; ValueError unless 2s is at most
    MAX_TWICE_SPIN."""
    _require_instance(s, TwiceSpin, "spin must be a TwiceSpin, got {value!r}")
    if s.twice > MAX_TWICE_SPIN:
        raise ValueError(f"2s={s.twice} exceeds supported maximum {MAX_TWICE_SPIN}")


def factorial_exact(n: int) -> int:
    """n! as an exact integer; n must lie in [0, N_FACT]."""
    _require_instance(n, int, "factorial argument must be an int, got {value!r}")
    if n < 0 or n > N_FACT:
        raise ValueError(f"factorial argument {n} outside [0, {N_FACT}]")
    return math.factorial(n)


def m_range(s: TwiceSpin) -> list[int]:
    """All projection labels 2m of spin s, descending from +2s to -2s.

    Every matrix in this package indexes its rows and columns in this order.
    """
    _require_instance(s, TwiceSpin, "spin must be a TwiceSpin, got {value!r}")
    return list(range(s.twice, -s.twice - 1, -2))


def total_spins(s1: TwiceSpin, s2: TwiceSpin) -> range:
    """The doubled total spins 2S that s1 and s2 couple to, ascending: the
    triangle rule |s1 - s2| <= S <= s1 + s2, with 2S of the parity of
    2s1 + 2s2. A range, so a membership test costs no list."""
    _require_instance(s1, TwiceSpin, "spin must be a TwiceSpin, got {value!r}")
    _require_instance(s2, TwiceSpin, "spin must be a TwiceSpin, got {value!r}")
    return range(abs(s1.twice - s2.twice), s1.twice + s2.twice + 1, 2)


def neg_one_pow(k: int) -> int:
    """(-1)**k for any integer k, computed by parity."""
    _require_instance(k, int, "exponent must be an int, got {value!r}")
    return 1 if k % 2 == 0 else -1


def order_dependence_phase(n: list[int], spins: list[TwiceSpin]) -> int:
    """Net sign (-1)^(sum_i n_i * 2s_i) collected when particle i's frame is
    turned through n_i full turns; only the parities of the n_i matter.
    n and spins must be lists or tuples, each n_i an int and each s_i a
    TwiceSpin (TypeError)."""
    _require_instance(n, (list, tuple), "n must be a list or tuple of turn counts, got {value!r}")
    _require_instance(spins, (list, tuple), "spins must be a list or tuple of TwiceSpins, got {value!r}")
    if len(n) != len(spins):
        raise ValueError(
            f"need one turn count per particle: {len(n)} counts, {len(spins)} spins"
        )
    total = 0
    for n_i, s_i in zip(n, spins):
        _require_instance(n_i, int, "turn count must be an int, got {value!r}")
        _require_instance(s_i, TwiceSpin, "spin must be a TwiceSpin, got {value!r}")
        total += n_i * s_i.twice
    return neg_one_pow(total)


def exchange_symmetry_sign(s: TwiceSpin, S: TwiceSpin) -> int:
    """Sign picked up by the coupled state |S M> of two spin-s particles when
    the two projection slots are swapped: (-1)^(2s - S).

    Follows from the coefficient symmetry <s m2; s m1 | S M> =
    (-1)^(2s - S) <s m1; s m2 | S M>; independent of M.
    """
    _require_instance(S, TwiceSpin, "S must be a TwiceSpin, got {value!r}")
    if S.twice not in total_spins(s, s):
        raise ValueError(
            f"2S={S.twice} is not a valid total spin for two spin {s} particles"
        )
    return neg_one_pow(s.twice - S.twice // 2)


def pseudo_antisymmetry_sign(s: TwiceSpin, S: TwiceSpin) -> int:
    """Net symmetry of the coupling coefficients once both particles use
    order-independent common-frame descriptions.

    The swap symmetry (-1)^(2s - S) of the coefficients combines with the
    half-turn relating the two frames, squared: one full turn, (-1)^(2s).
    The product is (-1)^S, so the sign is +1 exactly for even S.
    """
    return exchange_symmetry_sign(s, S) * order_dependence_phase([1], [s])


def exclusion_check(s: TwiceSpin) -> set[TwiceSpin]:
    """Composite spins available to an identical pair with every other
    quantum number equal: the channels whose net coefficient symmetry is +1.

    The result is always the even values {0, 2, ...} up to 2s, for integer
    and half-integer s alike. 2s is bounded by MAX_TWICE_SPIN, like every
    other spin argument, so the result stays small.
    """
    _require_supported(s)
    totals = (TwiceSpin(t) for t in total_spins(s, s))
    return {S for S in totals if pseudo_antisymmetry_sign(s, S) == 1}


def fmt15(x: float) -> str:
    """Fixed serialization of a float at 15 significant digits.

    All text the package emits goes through this, so equal values always
    print identically (negative zero included).
    """
    return format(x + 0.0, ".15g")


def fmt15_join(values: tuple[float, ...]) -> str:
    """fmt15 of each value, comma-joined: the text of a vector or quaternion."""
    return ",".join(fmt15(x) for x in values)


def fmt15_complex(v: complex) -> str:
    """fmt15 of the real and the imaginary part, space-joined: the text of
    an amplitude."""
    return f"{fmt15(v.real)} {fmt15(v.imag)}"


_PACKERS = {n: (struct.Struct(f"<{n}d").pack, struct.Struct(f"<{n}Q").unpack) for n in (3, 4, 7)}


def float_bits(values: tuple[float, ...]) -> tuple[int, ...]:
    """The uint64 bit patterns of 3 floats (a Vec3), 4 (a UnitQuaternion) or
    7 (a descriptor's momentum and R_BS), by structs compiled once: equal
    exactly when the floats are bit-identical, where == would also match 0.0
    with -0.0."""
    pack, unpack = _PACKERS[len(values)]
    return unpack(pack(*values))
