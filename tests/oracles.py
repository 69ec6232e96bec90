"""Independent reference implementations used to cross-check the package.

Nothing here imports the package. Each oracle reaches its quantity along a
different route than the implementation under test: the reduced rotation
matrix comes from the classic angle-based sum formula, the full rotation
matrix from a per-entry loop over the Cayley-Klein monomials (no cached
coefficients, no array evaluation) and, for bit-for-bit comparisons of
whole matrices and of the columns pair assembly reads from them, from a
whole-matrix plan kernel, Clebsch-Gordan
coefficients from ladder-operator construction on the product space,
composite-basis amplitudes by summing coefficient times amplitude entry by
entry (no change-of-basis matrix), rotation matrices from the Rodrigues
formula, parity-constraint solutions by trying every assignment or by a
depth-first 2-colouring of the whole constraint graph, and commuting
families by searching every subfamily.
"""

from __future__ import annotations

import math
from functools import cache
from math import sqrt

import numpy as np


def little_d(tj: int, tmp: int, tm: int, beta: float) -> float:
    """Reduced rotation matrix element d^j_{m' m}(beta), doubled labels."""
    f = math.factorial
    pref = math.sqrt(
        f((tj + tmp) // 2) * f((tj - tmp) // 2) * f((tj + tm) // 2) * f((tj - tm) // 2)
    )
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    k_lo = max(0, (tm - tmp) // 2)
    k_hi = min((tj + tm) // 2, (tj - tmp) // 2)
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        sign = -1.0 if ((tmp - tm) // 2 + k) % 2 else 1.0
        den = (
            f((tj + tm) // 2 - k)
            * f(k)
            * f((tmp - tm) // 2 + k)
            * f((tj - tmp) // 2 - k)
        )
        total += (
            sign / den
            * c ** ((2 * tj + tm - tmp) // 2 - 2 * k)
            * s ** ((tmp - tm) // 2 + 2 * k)
        )
    return pref * total


def cayley_klein_D(tj: int, w: float, x: float, y: float, z: float) -> np.ndarray:
    """D^j of the unit quaternion (w, x, y, z), entry by entry, rows and
    columns descending in m; doubled labels."""
    f = math.factorial
    a = complex(w, -z)
    b = complex(-y, -x)
    ac = a.conjugate()
    nbc = -b.conjugate()
    order = range(tj, -tj - 1, -2)
    out = np.zeros((tj + 1, tj + 1), dtype=complex)
    for row, tmp in enumerate(order):
        for col, tm in enumerate(order):
            pref = math.sqrt(
                f((tj + tmp) // 2)
                * f((tj - tmp) // 2)
                * f((tj + tm) // 2)
                * f((tj - tm) // 2)
            )
            k_lo = max(0, (tm - tmp) // 2)
            k_hi = min((tj + tm) // 2, (tj - tmp) // 2)
            for k in range(k_lo, k_hi + 1):
                e_a = (tj + tm) // 2 - k
                e_ac = (tj - tmp) // 2 - k
                e_b = (tmp - tm) // 2 + k
                den = f(e_a) * f(k) * f(e_b) * f(e_ac)
                out[row, col] += pref / den * a**e_a * ac**e_ac * b**e_b * nbc**k
    return out


@cache
def _kernel_plan(ts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(slots, coef, powers) of D^s's monomial terms, row by row, column by
    column, i ascending: float slots of each term's entry in the flat complex
    matrix, coefficients as floats, and the exponents of a, conj(a), b and
    -conj(b) offset into one power table."""
    order = range(ts, -ts - 1, -2)
    dim = ts + 1
    f = math.factorial
    slots: list[int] = []
    coef: list[float] = []
    powers: list[tuple[int, int, int, int]] = []
    for row, tmp in enumerate(order):
        f_row = f((ts + tmp) // 2) * f((ts - tmp) // 2)
        for col, tm in enumerate(order):
            f_col = f((ts + tm) // 2) * f((ts - tm) // 2)
            pref = sqrt(f_row * f_col)
            lo = max(0, (tm - tmp) // 2)
            hi = min((ts + tm) // 2, (ts - tmp) // 2)
            for i in range(lo, hi + 1):
                e_a = (ts + tm) // 2 - i
                e_ac = (ts - tmp) // 2 - i
                e_b = (tmp - tm) // 2 + i
                den = f(e_a) * f(i) * f(e_b) * f(e_ac)
                flat = row * dim + col
                slots.extend((2 * flat, 2 * flat + 1))
                coef.append(pref / den)
                powers.append((e_a, dim + e_ac, 2 * dim + e_b, 3 * dim + i))
    return (
        np.array(slots, dtype=np.intp),
        np.array(coef, dtype=float),
        np.array(powers, dtype=np.intp).T.copy(),
    )


def plan_kernel_D(tj: int, w: float, x: float, y: float, z: float) -> np.ndarray:
    """D^j of the unit quaternion (w, x, y, z) by its whole-matrix plan: the
    powers by repeated Python products, every term coef * a^i * conj(a)^j *
    b^k * (-conj(b))^l as numpy arrays in that operand order, and each entry
    summed by bincount in plan order. numpy's complex multiply can round
    differently from Python's, and from itself with the operands swapped, so
    this fixes the exact bits the package's D matrices must reproduce."""
    slots, coef, powers = _kernel_plan(tj)
    dim = tj + 1
    a, b = complex(w, -z), complex(-y, -x)
    pw = []
    for v in (a, a.conjugate(), b, -b.conjugate()):
        p = 1.0 + 0.0j
        pw.append(p)
        for _ in range(tj):
            p *= v
            pw.append(p)
    factors = np.array(pw)[powers]
    terms = coef * factors[0] * factors[1] * factors[2] * factors[3]
    out = np.bincount(slots, weights=terms.view(float), minlength=2 * dim * dim)
    return out.view(complex).reshape(dim, dim)


def ladder_cg_table(tj1: int, tj2: int) -> dict[tuple[int, int, int, int], float]:
    """Coupling coefficients <j1 m1; j2 m2 | J M> built from ladder operators.

    For each J from the top down, the |J, J> state is the unit vector in the
    M = J product subspace orthogonal to every higher ladder, signed so that
    the coefficient of |m1 = j1, m2 = J - j1> is positive; lower M states
    follow by applying J- and renormalizing. Keys are doubled labels.
    """
    ms1 = list(range(tj1, -tj1 - 1, -2))
    ms2 = list(range(tj2, -tj2 - 1, -2))
    basis = [(a, b) for a in ms1 for b in ms2]
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)

    def lowered(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(dim)
        for i, (a, b) in enumerate(basis):
            c = vec[i]
            if c == 0.0:
                continue
            if a - 2 >= -tj1:
                out[index[(a - 2, b)]] += c * math.sqrt(
                    (tj1 * (tj1 + 2) - a * (a - 2)) / 4.0
                )
            if b - 2 >= -tj2:
                out[index[(a, b - 2)]] += c * math.sqrt(
                    (tj2 * (tj2 + 2) - b * (b - 2)) / 4.0
                )
        return out

    built: dict[tuple[int, int], np.ndarray] = {}
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        sub = [p for p in basis if p[0] + p[1] == tJ]
        span = np.zeros((len(sub), dim))
        for r, p in enumerate(sub):
            span[r, index[p]] = 1.0
        for (_, tMp), v in built.items():
            if tMp == tJ:
                span = span - np.outer(span @ v, v)
        _, _, vt = np.linalg.svd(span)
        vec = vt[0] / np.linalg.norm(vt[0])
        anchor = index.get((tj1, tJ - tj1))
        if anchor is not None and vec[anchor] < 0.0:
            vec = -vec
        built[(tJ, tJ)] = vec
        v = vec
        for tM in range(tJ - 2, -tJ - 1, -2):
            v = lowered(v)
            v = v / np.linalg.norm(v)
            built[(tJ, tM)] = v

    table: dict[tuple[int, int, int, int], float] = {}
    for (tJ, tM), v in built.items():
        for i, (a, b) in enumerate(basis):
            table[(a, b, tJ, tM)] = float(v[i])
    return table


def project_composite_loop(common: np.ndarray, tj_a: int, tj_b: int, coefficient):
    """Amplitudes on the coupled basis |S M> of the product-basis matrix
    common (rows 2m_a, columns 2m_b, both descending), by a nested loop over
    every channel and every product label with m_a + m_b = M.

    coefficient(2m_a, 2m_b, 2S, 2M) supplies the coupling coefficients. Keys
    are doubled labels (2S, 2M), S ascending, then M descending.
    """
    rows = range(tj_a, -tj_a - 1, -2)
    cols = range(tj_b, -tj_b - 1, -2)
    amps: dict[tuple[int, int], complex] = {}
    for tS in range(abs(tj_a - tj_b), tj_a + tj_b + 1, 2):
        for tM in range(tS, -tS - 1, -2):
            total = 0j
            for i, tma in enumerate(rows):
                for j, tmb in enumerate(cols):
                    if tma + tmb != tM:
                        continue
                    total += coefficient(tma, tmb, tS, tM) * complex(common[i, j])
            amps[(tS, tM)] = total
    return amps


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rotation matrix about axis by angle, via the Rodrigues formula."""
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    k = np.array(
        [
            [0.0, -ax[2], ax[1]],
            [ax[2], 0.0, -ax[0]],
            [-ax[1], ax[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def parity_assignments(n: int, constraints) -> tuple[int, tuple[int, ...] | None]:
    """Count the assignments of n bits with x_i XOR x_j = 1 for every pair
    (i, j) in constraints, trying the integers 0..2^n - 1 in order (bit i is
    x_i); also return the first one found, or None."""
    count = 0
    first = None
    for assignment in range(2**n):
        if all(((assignment >> i) ^ (assignment >> j)) & 1 for i, j in constraints):
            count += 1
            if first is None:
                first = tuple((assignment >> i) & 1 for i in range(n))
    return count, first


def dfs_two_colouring(n: int, constraints) -> tuple[bool, tuple[int, ...] | None, int]:
    """(satisfiable, witness, count) for x_i XOR x_j = 1 on every pair (i, j)
    in constraints, by building the whole adjacency and 2-colouring each
    component depth first from its highest-index variable, coloured 0.

    count is 2^(components); the witness is the least solution read as the
    integer sum x_i 2^i, or None."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j in constraints:
        neighbours[i].append(j)
        neighbours[j].append(i)
    colour = [-1] * n
    components = 0
    for root in reversed(range(n)):
        if colour[root] >= 0:
            continue
        components += 1
        colour[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in neighbours[i]:
                if colour[j] < 0:
                    colour[j] = 1 - colour[i]
                    stack.append(j)
                elif colour[j] == colour[i]:
                    return False, None, 0
    return True, tuple(colour), 2**components


def max_pairwise_commuting(matrices, tol: float = 1e-12) -> int:
    """Size of the largest subfamily of matrices whose members commute
    pairwise (largest entry of every commutator at most tol), by trying
    every subfamily."""
    k = len(matrices)
    commutes = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = matrices[i], matrices[j]
            commutes[i][j] = commutes[j][i] = np.abs(a @ b - b @ a).max() <= tol
    best = 0
    for mask in range(1, 2**k):
        chosen = [i for i in range(k) if mask & (1 << i)]
        if len(chosen) <= best:
            continue
        if all(commutes[a][b] for ai, a in enumerate(chosen) for b in chosen[ai + 1 :]):
            best = len(chosen)
    return best
