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
operand order, and each entry sums its own terms in plan order. The powers
are repeated products from one numpy accumulate along the rows of the
table, seeded with 1 and then the factor. Each row's accumulate hands
numpy's complex multiply an output that overlaps its input one element on,
which numpy's SIMD loops (some of them fused multiply-adds) decline, so the
products run in its scalar loop: two products and one sum or difference
per part, rounded as Python's complex multiply rounds them. At 2s = 1 the
one product per row, 1 * x, overlaps nothing and may take a SIMD loop, but
each of its products is exact, so it rounds the same. Every power thus has
the bits of the Python product 1 * x * ... * x. A pure-Python or reordered
kernel would not give the same bits.

The double-cover sign stays structural: negating q negates each factor
exactly, a power built by repeated products picks up exactly (-1)^k, and each
term has total degree 2s, so D(-q) = (-1)^(2s) D(q) holds bit for bit, with no
angle extraction, no branch cuts and no phase applied afterwards. Phases
follow the Condon-Shortley convention: a rotation by alpha about z gives
diag(exp(-i m alpha)) and a rotation about y gives the standard real reduced
matrix.

Clebsch-Gordan coefficients use Racah's closed-form alternating sum in exact
integers, its terms over one common denominator, with a single square root
at the end. The coupling of a spin pair is built once per (2s1, 2s2), on
first use, and cached: the channel keys (S, 2M) with S ascending and M
descending, and the coefficients as a read-only dense real orthogonal matrix
from the product basis (m1, m2 descending, m2 fastest) to those channels. A
coupled state is then one matrix product. clebsch_gordan and
CGTable.coefficient both read that table. MAX_TWICE_SPIN bounds both spins,
so the cache holds at most 169 tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lcm, sqrt
from typing import NamedTuple

import numpy as np

from .exactnum import (
    TwiceSpin, _require_instance, _require_supported, _show, factorial_exact, m_range, total_spins
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
    # the (4, 2s+1) seed of that table, indices into (1, a, conj(a), b,
    # -conj(b)): row r is 0, then r + 1 repeated 2s times, so that its
    # running product along each row is the powers 0..2s of factor r
    seed: np.ndarray


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
    seed = np.repeat(np.arange(1, 5, dtype=np.intp), dim).reshape(4, dim)
    seed[:, 0] = 0
    plan = _Plan(
        slots=np.array(slots, dtype=np.intp),
        coef=np.array(coef, dtype=complex),
        powers=np.array(powers, dtype=np.intp).T.copy(),
        seed=seed,
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
    _require_instance(q, UnitQuaternion, "rotation must be a UnitQuaternion, got {value}")
    ts = s.twice
    dim = ts + 1
    slots, coef, powers, seed = _plan(ts)
    # the Cayley-Klein pair of q
    a, b = complex(q.w, -q.z), complex(-q.y, -q.x)
    # powers by repeated products, so that (-x)^k is exactly (-1)^k x^k,
    # rounded as Python's complex multiply rounds them (module docstring)
    table = np.array((1.0, a, a.conjugate(), b, -b.conjugate()))[seed]
    np.multiply.accumulate(table, axis=1, out=table)
    factors = table.ravel()[powers]
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
    valid by construction: Racah's alternating sum in exact integers over one
    common denominator, then one int/int division, which rounds correctly as
    the float of the exact rational does, and a single square root."""
    f = factorial_exact
    tM = tm1 + tm2
    a, b, c = (ts1 + ts2 - tS) // 2, (ts1 - tm1) // 2, (ts2 + tm2) // 2
    d, e = (tS - ts2 + tm1) // 2, (tS - ts1 - tm2) // 2
    num = (tS + 1) * f(a) * f(b) * f(c) * f((tS + ts1 - ts2) // 2) * f((tS - ts1 + ts2) // 2)
    num *= f((tS + tM) // 2) * f((tS - tM) // 2) * f((ts1 + tm1) // 2) * f((ts2 - tm2) // 2)
    den = f((ts1 + ts2 + tS) // 2 + 1)
    ks = range(max(0, -d, -e), min(a, b, c) + 1)
    terms = [f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k) * f(e + k) for k in ks]
    common = lcm(*terms)
    ksum = sum((-1) ** k * (common // t) for k, t in zip(ks, terms))
    if ksum == 0:
        return 0.0
    # the sign from the int itself: a large int need not convert to a float
    mag = sqrt(num * ksum * ksum / (den * common * common))
    return mag if ksum > 0 else -mag


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
        _require_instance(S, TwiceSpin, "S must be a TwiceSpin, got {value}")
        S.component(tM)
        if S.twice not in total_spins(self.s1, self.s2):
            raise ValueError(
                f"total spin 2S={_show(S.twice)} is not a coupling of 2s1="
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
