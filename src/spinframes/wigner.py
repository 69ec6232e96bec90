"""Spin-s rotation matrices on the double cover, and angular-momentum coupling.

The D-matrix is evaluated directly from the quaternion's Cayley-Klein pair

    a = w - i z,   b = -y - i x,

which packs the quaternion into the SU(2) matrix [[a, b], [-conj(b), conj(a)]].
Every entry is a homogeneous polynomial of degree 2s in (a, conj(a), b,
-conj(b)):

    D[m', m] = sum_i  sqrt((s+m')! (s-m')! (s+m)! (s-m)!)
               / ((s+m-i)! i! (m'-m+i)! (s-m'-i)!)
               * a^(s+m-i) * conj(a)^(s-m'-i) * b^(m'-m+i) * (-conj(b))^i.

The coefficients and exponents depend on 2s alone, so they are laid out
once per 2s, on first use, as a flat plan of monomial terms and cached: at
most 13 plans. One evaluator serves every caller: for one (2s, q) it fills a
table of the powers 0..2s of the four Cayley-Klein factors by repeated
products, multiplies each term's coefficient by its four powers, and sums
the terms into their entries, in one numpy pass. wigner_D wraps the whole
matrix; pair assembly reads one column of it.

The bits of every entry are fixed by the arithmetic's order, not only by its
values. numpy's complex multiply can round differently from Python's scalar
one, and from itself with the operands swapped, so each term stays coef *
a^i * conj(a)^j * b^k * (-conj(b))^l, multiplied as numpy arrays in that
operand order; each entry sums its own terms in plan order; and the powers
stay Python repeated products. A pure-Python or reordered kernel would not
give the same bits.

The double-cover sign stays structural: negating q negates each factor
exactly, a power built by repeated products picks up exactly (-1)^k, and each
term has total degree 2s, so D(-q) = (-1)^(2s) D(q) holds bit for bit, with no
angle extraction, no branch cuts and no phase applied afterwards. Phases
follow the Condon-Shortley convention: a rotation by alpha about z gives
diag(exp(-i m alpha)) and a rotation about y gives the standard real reduced
matrix.

Clebsch-Gordan coefficients use the closed-form alternating sum over exact
rational factorials, with a single square root at the end. The coupling of a
spin pair is built once per (2s1, 2s2), on first use, and cached: the channel
keys (S, 2M) with S ascending and M descending, and the coefficients as a
read-only dense real orthogonal matrix from the product basis (m1, m2
descending, m2 fastest) to those channels. A coupled state is then one matrix
product. clebsch_gordan and CGTable.coefficient both read that table.
MAX_TWICE_SPIN bounds both spins, so the cache holds at most 169 tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np

from .exactnum import (
    TwiceSpin, _require_supported, factorial_exact, m_range, total_spins
)
from .rotations import UnitQuaternion


@dataclass(frozen=True, eq=False)
class WignerMatrix:
    """Rotation matrix D^s in the projection basis, rows/columns descending in m."""

    s: TwiceSpin
    q: UnitQuaternion
    entries: np.ndarray

    def m_order(self) -> tuple[int, ...]:
        """Doubled projection labels indexing rows and columns, +2s down to -2s."""
        return tuple(m_range(self.s))

    def entry(self, m_row: int, m_col: int) -> complex:
        return complex(self.entries[self.s.index(m_row), self.s.index(m_col)])


class _Plan(NamedTuple):
    """The monomial terms of D^s for one 2s, as flat arrays over the terms."""

    # float slots of the term's entry in the flat complex matrix: real part
    # at 2 * (row * dim + col), imaginary part one after, interleaved per term
    slots: np.ndarray
    # sqrt(f_row * f_col) / den, stored as complex: the value a float
    # coefficient is cast to in each product, without the cast per call
    coef: np.ndarray
    # exponents of a, conj(a), b and -conj(b), one row each, offset into the
    # flat power table of all four factors
    powers: np.ndarray


@cache
def _plan(ts: int) -> _Plan:
    """The terms of D^s for 2s = ts, row by row, column by column."""
    order = m_range(TwiceSpin(ts))
    dim = ts + 1
    slots: list[int] = []
    coef: list[float] = []
    powers: list[tuple[int, int, int, int]] = []
    for row, tmp in enumerate(order):
        f_row = factorial_exact((ts + tmp) // 2) * factorial_exact((ts - tmp) // 2)
        for col, tm in enumerate(order):
            f_col = factorial_exact((ts + tm) // 2) * factorial_exact((ts - tm) // 2)
            pref = sqrt(f_row * f_col)
            lo = max(0, (tm - tmp) // 2)
            hi = min((ts + tm) // 2, (ts - tmp) // 2)
            for i in range(lo, hi + 1):
                e_a = (ts + tm) // 2 - i
                e_ac = (ts - tmp) // 2 - i
                e_b = (tmp - tm) // 2 + i
                den = (
                    factorial_exact(e_a)
                    * factorial_exact(i)
                    * factorial_exact(e_b)
                    * factorial_exact(e_ac)
                )
                flat = row * dim + col
                slots.extend((2 * flat, 2 * flat + 1))
                coef.append(pref / den)
                powers.append((e_a, dim + e_ac, 2 * dim + e_b, 3 * dim + i))
    plan = _Plan(
        slots=np.array(slots, dtype=np.intp),
        coef=np.array(coef, dtype=complex),
        powers=np.array(powers, dtype=np.intp).T.copy(),
    )
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _evaluate(s: TwiceSpin, q: UnitQuaternion) -> np.ndarray:
    """D^s(q) as a fresh (2s+1) x (2s+1) array, from one numpy pass over
    its plan: every term is coef * a^i * conj(a)^j * b^k * (-conj(b))^l,
    multiplied in that operand order, and every entry sums its own terms in
    plan order."""
    _require_supported(s)
    ts = s.twice
    dim = ts + 1
    slots, coef, powers = _plan(ts)
    # the Cayley-Klein pair of q
    a, b = complex(q.w, -q.z), complex(-q.y, -q.x)
    pw: list[complex] = []
    # powers by repeated products, so that (-x)^k is exactly (-1)^k x^k
    for x in (a, a.conjugate(), b, -b.conjugate()):
        p = 1.0 + 0.0j
        pw.append(p)
        for _ in range(ts):
            p *= x
            pw.append(p)
    factors = np.array(pw, dtype=complex)[powers]
    terms = coef * factors[0] * factors[1] * factors[2] * factors[3]
    out = np.bincount(slots, weights=terms.view(float), minlength=2 * dim * dim)
    return out.view(complex).reshape(dim, dim)


def wigner_D(s: TwiceSpin, q: UnitQuaternion) -> WignerMatrix:
    """D^s(q) as a (2s+1) x (2s+1) complex matrix.

    Exact unitary-representation property: wigner_D(s, compose(p, q)) equals
    wigner_D(s, p) @ wigner_D(s, q) up to floating error, and negating q
    multiplies the whole matrix by (-1)^(2s) bit for bit, because every term
    is a degree-2s monomial in powers built by repeated products. The
    coefficients and exponents are built once per 2s; every call returns a
    fresh array.
    """
    return WignerMatrix(s=s, q=q, entries=_evaluate(s, q))


def _racah(ts1: int, ts2: int, tS: int, tm1: int, tm2: int) -> float:
    """<s1 m1; s2 m2 | S M> with M = m1 + m2, from doubled labels that are
    valid by construction: the alternating sum over exact rational
    factorials, with a single square root at the end."""
    tM = tm1 + tm2

    def fh(t: int) -> int:
        return factorial(t // 2)

    pref = Fraction(tS + 1)
    pref *= Fraction(
        fh(tS + ts1 - ts2) * fh(tS - ts1 + ts2) * fh(ts1 + ts2 - tS),
        fh(ts1 + ts2 + tS + 2),
    )
    pref *= fh(tS + tM) * fh(tS - tM)
    pref *= fh(ts1 - tm1) * fh(ts1 + tm1) * fh(ts2 - tm2) * fh(ts2 + tm2)

    k_lo = max(0, (ts2 - tS - tm1) // 2, (ts1 - tS + tm2) // 2)
    k_hi = min((ts1 + ts2 - tS) // 2, (ts1 - tm1) // 2, (ts2 + tm2) // 2)
    ksum = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        den = (
            factorial(k)
            * fh(ts1 + ts2 - tS - 2 * k)
            * fh(ts1 - tm1 - 2 * k)
            * fh(ts2 + tm2 - 2 * k)
            * fh(tS - ts2 + tm1 + 2 * k)
            * fh(tS - ts1 - tm2 + 2 * k)
        )
        ksum += Fraction(-1 if k % 2 else 1, den)
    if ksum == 0:
        return 0.0
    sign = 1.0 if ksum > 0 else -1.0
    return sign * sqrt(float(pref * ksum * ksum))


@cache
def _coupling(
    ts1: int, ts2: int
) -> tuple[tuple[tuple[TwiceSpin, int], ...], np.ndarray]:
    s1, s2 = TwiceSpin(ts1), TwiceSpin(ts2)
    channels = tuple(
        (S, tM) for S in map(TwiceSpin, total_spins(s1, s2)) for tM in m_range(S)
    )
    matrix = np.zeros((s1.dim * s2.dim, len(channels)))
    for col, (S, tM) in enumerate(channels):
        for tm1 in range(min(ts1, tM + ts2), max(-ts1, tM - ts2) - 1, -2):
            row = (ts1 - tm1) // 2 * s2.dim + (ts2 - tM + tm1) // 2
            matrix[row, col] = _racah(ts1, ts2, S.twice, tm1, tM - tm1)
    matrix.flags.writeable = False
    return channels, matrix


class CGTable:
    """All coupling coefficients for a fixed spin pair (s1, s2).

    coefficient() takes the projections as 2m1, 2m2 and 2M and returns 0.0
    off the M = m1 + m2 diagonal. channels lists the coupled labels (S, 2M),
    S ascending and M descending; matrix is the
    read-only orthogonal change of basis whose row m1_index * (2s2 + 1) +
    m2_index holds <s1 m1; s2 m2 | S M> in the column of each channel. The
    coefficients are built once per spin pair and shared by every table of
    that pair.
    """

    def __init__(self, s1: TwiceSpin, s2: TwiceSpin):
        _require_supported(s1)
        _require_supported(s2)
        self.s1 = s1
        self.s2 = s2
        self.channels, self.matrix = _coupling(s1.twice, s2.twice)

    def coefficient(self, tm1: int, tm2: int, S: TwiceSpin, tM: int) -> float:
        """<s1 m1; s2 m2 | S M>, every label checked: each projection against
        its spin, and S against the triangle rule (including the parity of
        the doubled labels), before the M = m1 + m2 selection rule."""
        row = self.s1.index(tm1) * self.s2.dim + self.s2.index(tm2)
        S.component(tM)
        if S.twice not in total_spins(self.s1, self.s2):
            raise ValueError(
                f"total spin 2S={S.twice} is not a coupling of 2s1="
                f"{self.s1.twice} and 2s2={self.s2.twice} (triangle rule and parity)"
            )
        if tm1 + tm2 != tM:
            return 0.0
        return float(self.matrix[row, self._column(S, tM)])

    def _column(self, S: TwiceSpin, tM: int) -> int:
        """Column of the channel (S, 2M), labels unchecked: the blocks of
        channels run 2S' = lo, lo + 2, ... with 2S' + 1 columns each, so k
        blocks before S's hold k(lo + 1) + k(k - 1) = k(lo + k) columns."""
        lo = abs(self.s1.twice - self.s2.twice)
        k = (S.twice - lo) // 2
        return k * (lo + k) + (S.twice - tM) // 2


def clebsch_gordan(
    s1: TwiceSpin,
    s2: TwiceSpin,
    tm1: int,
    tm2: int,
    S: TwiceSpin,
    tM: int,
) -> float:
    """<s1 m1; s2 m2 | S M> in the Condon-Shortley convention (real), with
    the projections given as 2m1, 2m2 and 2M, read from the pair's shared
    table (built on first use).

    S must satisfy the triangle rule with s1, s2 (including the parity of the
    doubled labels); the coefficient is zero whenever M != m1 + m2.
    """
    return CGTable(s1, s2).coefficient(tm1, tm2, S, tM)
