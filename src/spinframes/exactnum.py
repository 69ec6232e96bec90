"""Exact integer bookkeeping for spin labels.

Spins and spin projections are carried as doubled integers (2s and 2m), so
half-integer labels never touch floating point and every sign rule reduces
to integer parity.

The one turn-sign law, (-1)^(sum_i n_i * 2s_i) for n_i full turns on particle
i's frame, is order_dependence_phase; every turn sign in the package comes
from it, and neg_one_pow directly serves only the coupling signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Tolerance for comparing floats/complexes produced by short exact-factorial
# sums and quaternion algebra.
EPS = 1e-12

# Hard cap for factorial_exact arguments; keeps all factorial products well
# inside exact float-convertible territory for the spin range we support.
N_FACT = 40


@dataclass(frozen=True, order=True)
class TwiceSpin:
    """Spin magnitude s stored as the integer 2s."""

    twice: int

    def __post_init__(self) -> None:
        if isinstance(self.twice, bool) or not isinstance(self.twice, int):
            raise TypeError(f"twice-spin must be an int, got {self.twice!r}")
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

    def component(self, twice_m: int) -> TwiceM:
        """Checked projection label m (given as 2m) for this spin."""
        if isinstance(twice_m, bool) or not isinstance(twice_m, int):
            raise TypeError(f"twice-m must be an int, got {twice_m!r}")
        if abs(twice_m) > self.twice:
            raise ValueError(f"|2m|={abs(twice_m)} exceeds 2s={self.twice}")
        if (twice_m - self.twice) % 2 != 0:
            raise ValueError(
                f"2m={twice_m} must have the same parity as 2s={self.twice}"
            )
        return TwiceM(twice_m)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True, order=True)
class TwiceM:
    """Spin projection m stored as the integer 2m.

    Build these through TwiceSpin.component (or m_range) so range and parity
    against the parent spin are checked.
    """

    twice: int

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def factorial_exact(n: int) -> int:
    """n! as an exact integer; n must lie in [0, N_FACT]."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"factorial argument must be an int, got {n!r}")
    if n < 0 or n > N_FACT:
        raise ValueError(f"factorial argument {n} outside [0, {N_FACT}]")
    return math.factorial(n)


def m_range(s: TwiceSpin) -> list[TwiceM]:
    """All projection labels of spin s, descending from +s to -s.

    Every matrix in this package indexes its rows and columns in this order.
    """
    return [TwiceM(tm) for tm in range(s.twice, -s.twice - 1, -2)]


def neg_one_pow(k: int) -> int:
    """(-1)**k for any integer k, computed by parity."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"exponent must be an int, got {k!r}")
    return 1 if k % 2 == 0 else -1


def order_dependence_phase(n: list[int], spins: list[TwiceSpin]) -> int:
    """Net sign (-1)^(sum_i n_i * 2s_i) collected when particle i's frame is
    turned through n_i full turns; only the parities of the n_i matter."""
    if len(n) != len(spins):
        raise ValueError(
            f"need one turn count per particle: {len(n)} counts, {len(spins)} spins"
        )
    total = 0
    for n_i, s_i in zip(n, spins):
        if isinstance(n_i, bool) or not isinstance(n_i, int):
            raise TypeError(f"turn counts must be ints, got {n_i!r}")
        total += n_i * s_i.twice
    return neg_one_pow(total)


def complex_close(z1: complex, z2: complex, tol: float = EPS) -> bool:
    """Closeness of two complex scalars within tol (default EPS).

    A convenience for callers and tests; the package itself does not call
    it. Laws that hold bit for bit, such as the double-cover sign laws, are
    tested with plain ==.
    """
    return abs(z1 - z2) <= tol


def fmt15(x: float) -> str:
    """Fixed serialization of a float at 15 significant digits.

    All text the package emits goes through this, so equal values always
    print identically (negative zero included).
    """
    return format(x + 0.0, ".15g")
