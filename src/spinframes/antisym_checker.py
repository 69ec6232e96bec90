"""Parity ledger for order-dependence signs and the proof that universal
pairwise sign flips are impossible beyond two particles.

An order-dependent description convention can silently rotate particle i's
quantization frame by n_i full turns, contributing (-1)^(2 s_i n_i) to the
state vector's sign. The ledger tracks those integers. Demanding that every
unordered pair of identical half-integer particles pick up a sign under
exchange, while bystanders stay untouched, yields one XOR constraint per
pair over one parity bit per particle. Each constraint x_i XOR x_j = 1 says
that i and j get different colours, so the system is solvable exactly when
its constraint graph is 2-colourable; for "every pair" that graph is the
complete graph K_N, which contains a triangle once N >= 3. K_N's pairs are
a plain tuple in lexicographic order; the solver reads them one at a time
and stops at the first odd cycle, so it never looks at more of K_N than
that triangle needs.

The impossibility report does not solve each K_N afresh. K_N is a subgraph
of K_(N+1), so one parity forest, grown a particle at a time, holds every
K_N in turn; and once the triangle on particles 0, 1, 2 closes an odd cycle,
that cycle is in every later K_N, so every later row is unsatisfiable with
no more work.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .exactnum import TwiceSpin, _require_instance, _show, order_dependence_phase

# Largest N of the impossibility report: a scale guard on the report's
# rows. The rows come from one parity forest grown to N particles, which
# stops joining at the first odd cycle (N = 3), so total work grows as N.
MAX_REPORT_N = 20
# Largest N of an exchange constraint system: a memory guard. build_constraints
# holds all N(N-1)/2 pairs (about 140 MB at the bound), and the parity forest
# three lists of N entries.
MAX_SYSTEM_N = 2000


def _require_pair(pair: object, what: str, bad: str) -> None:
    """TypeError naming what unless pair is a tuple or list; ValueError
    starting with bad unless it has exactly two items."""
    _require_instance(pair, (tuple, list), what + " must be a tuple or list pair, got {value}")
    if len(pair) != 2:
        raise ValueError(f"{bad} {_show(pair)}")


@dataclass(frozen=True)
class ParityLedger:
    """Turn counts n[r][i] for order-slot r and particle i (0-based), N x N."""

    n_particles: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_instance(self.n_particles, int, "n_particles must be an int, got {value}")
        for row in self.table:
            for turns in row:
                _require_instance(turns, int, "turn count must be an int, got {value}")
        if len(self.table) != self.n_particles or any(
            len(row) != self.n_particles for row in self.table
        ):
            raise ValueError(
                f"ledger table must be {self.n_particles}x{self.n_particles}"
            )

    @staticmethod
    def from_rows(rows: list[list[int]]) -> ParityLedger:
        return ParityLedger(
            n_particles=len(rows), table=tuple(tuple(r) for r in rows)
        )

    def particle_total(self, i: int) -> int:
        """Net turn count of particle i (0 <= i < n_particles), summed over
        slots."""
        _require_instance(i, int, "particle index must be an int, got {value}")
        if not 0 <= i < self.n_particles:
            raise ValueError(f"particle index {_show(i)} outside [0, {self.n_particles})")
        return sum(row[i] for row in self.table)


def exchange_sign(
    before: ParityLedger, after: ParityLedger, spins: list[TwiceSpin]
) -> int:
    """Sign (-1)^(sum_i delta_n_i * 2s_i) collected in passing from one ledger
    to the other: the turn-sign law on the per-particle total deltas."""
    if before.n_particles != after.n_particles:
        raise ValueError("ledgers have different particle counts")
    deltas = [
        after.particle_total(i) - before.particle_total(i)
        for i in range(before.n_particles)
    ]
    return order_dependence_phase(deltas, spins)


def check_noninterference(
    before: ParityLedger, after: ParityLedger, exchanged: tuple[int, int]
) -> bool:
    """True iff every particle outside the exchanged pair keeps its turn
    parity: bystanders may not contribute to an exchange sign."""
    if before.n_particles != after.n_particles:
        raise ValueError("ledgers have different particle counts")
    _require_pair(exchanged, "exchanged pair", "invalid exchanged pair")
    i, j = exchanged
    _require_instance(i, int, "exchanged end must be an int, got {value}")
    _require_instance(j, int, "exchanged end must be an int, got {value}")
    if i == j or not (0 <= i < before.n_particles and 0 <= j < before.n_particles):
        raise ValueError(f"invalid exchanged pair {_show(exchanged)}")
    return all(
        before.particle_total(k) % 2 == after.particle_total(k) % 2
        for k in range(before.n_particles)
        if k not in (i, j)
    )


@dataclass(frozen=True)
class ExchangeConstraintSystem:
    """x_i = parity of particle i's turn-count difference between the two
    slot orders; each unordered pair demands x_i XOR x_j = 1.

    constraints must be a Sequence, not a one-pass iterator that validation
    would use up; every item must be a tuple or list pair (i, j) with int
    ends 0 <= i < j < n_vars <= MAX_SYSTEM_N."""

    n_vars: int
    constraints: Sequence[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n_vars
        _require_instance(n, int, "n_vars must be an int, got {value}")
        if n < 0:
            raise ValueError(f"n_vars must be non-negative, got {_show(n)}")
        if n > MAX_SYSTEM_N:
            raise ValueError(f"n_vars={_show(n)} exceeds MAX_SYSTEM_N={MAX_SYSTEM_N}")
        _require_instance(
            self.constraints, Sequence, "constraints must be a sequence of pairs, got {type}"
        )
        for pair in self.constraints:
            _require_pair(pair, "constraint", "bad constraint pair")
            i, j = pair
            _require_instance(i, int, "constraint end must be an int, got {value}")
            _require_instance(j, int, "constraint end must be an int, got {value}")
            if not (0 <= i < j < n):
                raise ValueError(f"bad constraint pair ({_show(i)}, {_show(j)})")


def build_constraints(n_particles: int) -> ExchangeConstraintSystem:
    """One XOR-inequality per unordered particle pair: N(N-1)/2 in all, as a
    tuple in lexicographic order, for 2 <= N <= MAX_SYSTEM_N."""
    _require_instance(n_particles, int, "n_particles must be an int, got {value}")
    if n_particles < 2:
        raise ValueError(f"need at least two particles, got {_show(n_particles)}")
    if n_particles > MAX_SYSTEM_N:
        raise ValueError(f"n_particles={_show(n_particles)} exceeds MAX_SYSTEM_N={MAX_SYSTEM_N}")
    return ExchangeConstraintSystem(
        n_vars=n_particles,
        constraints=tuple(itertools.combinations(range(n_particles), 2)),
    )


class SatResult(NamedTuple):
    satisfiable: bool
    witness: Optional[tuple[int, ...]]
    count: int


class _ParityForest:
    """Union-find over parity variables x_0, x_1, ..., each keeping its
    parity to its tree's root (Tarjan's disjoint-set forest with parities).

    Variables are added one at a time, each in a tree of its own. A join
    imposes x_i XOR x_j = 1: it hangs the smaller tree under the larger, so
    trees stay O(log N) deep, or, when i and j already share a tree, it
    checks the cycle the constraint closes and reports an odd one."""

    __slots__ = ("parent", "parity", "size", "trees")

    def __init__(self, n: int = 0) -> None:
        self.parent = list(range(n))
        self.parity = [0] * n  # x_v XOR x_parent[v]
        self.size = [1] * n
        self.trees = n

    def add(self) -> int:
        """A new free variable, in a tree of its own; returns its index."""
        v = len(self.parent)
        self.parent.append(v)
        self.parity.append(0)
        self.size.append(1)
        self.trees += 1
        return v

    def find(self, v: int) -> tuple[int, int]:
        """(root, x_v XOR x_root) of v's tree."""
        parent, parity = self.parent, self.parity
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    def join(self, i: int, j: int) -> bool:
        """Impose x_i XOR x_j = 1; False, with the forest unchanged, iff the
        constraint closes an odd cycle."""
        # walk both ends to their roots; p ends as x_i XOR x_j when the
        # roots coincide (the root's own term cancels)
        parent, parity = self.parent, self.parity
        p = 0
        while parent[i] != i:
            p ^= parity[i]
            i = parent[i]
        while parent[j] != j:
            p ^= parity[j]
            j = parent[j]
        if i == j:
            return p == 1
        size = self.size
        if size[i] < size[j]:
            i, j = j, i
        parent[j] = i
        parity[j] = p ^ 1
        size[i] += size[j]
        self.trees -= 1
        return True


def exhaustive_satisfiable(system: ExchangeConstraintSystem) -> SatResult:
    """Decide the system over all 2^N assignments by 2-colouring its
    constraint graph online, with a union-find that keeps each variable's
    parity relative to its tree's root.

    Constraints are read in the given order. Each one either joins two trees
    (the smaller under the larger, so trees stay O(log N) deep) or closes a
    cycle inside one; a cycle whose ends have equal parity is odd, and the
    solver stops there with no solution. This is O(N + E log N) in the worst
    case, and O(N) on the complete graph K_N with N >= 3, whose first N
    constraints in lexicographic order already close a triangle.

    Otherwise each tree has two colourings, so there are 2^(trees)
    solutions. The witness colours every tree so that its highest-index
    variable is 0: the least solution read as the integer sum x_i 2^i.
    """
    _require_instance(
        system, ExchangeConstraintSystem, "system must be an ExchangeConstraintSystem, got {type}"
    )
    n = system.n_vars
    forest = _ParityForest(n)
    join = forest.join
    for i, j in system.constraints:
        if not join(i, j):
            return SatResult(satisfiable=False, witness=None, count=0)
    # reversed order meets each tree first at its highest-index variable,
    # whose parity to the root then fixes that tree's colouring
    flip: dict[int, int] = {}
    colour = [0] * n
    for v in reversed(range(n)):
        root, p = forest.find(v)
        colour[v] = p ^ flip.setdefault(root, p)
    return SatResult(satisfiable=True, witness=tuple(colour), count=2**forest.trees)


def impossibility_report(n_max: int) -> list[tuple[int, bool, int]]:
    """(N, satisfiable, count) rows for N = 2..n_max, read off one parity
    forest grown a particle at a time.

    K_N is a subgraph of K_(N+1): particle v joins 0..v-1, which are
    exactly the pairs K_(v+1) adds to K_v, so after those joins the forest
    holds K_(v+1) and gives its row, with 2^(trees) solutions. An odd cycle
    is a subgraph of every larger K_N, so after the first failed join
    (the triangle on particles 0, 1, 2, at N = 3) every later row is
    (N, False, 0) with no more joins. The rows equal those of
    exhaustive_satisfiable(build_constraints(N)) for each N, at O(n_max)
    work for the whole report.
    """
    _require_instance(n_max, int, "N_max must be an int, got {value}")
    if not 2 <= n_max <= MAX_REPORT_N:
        raise ValueError(f"N_max={_show(n_max)} outside [2, {MAX_REPORT_N}]")
    forest = _ParityForest(1)
    satisfiable = True
    rows = []
    for n in range(2, n_max + 1):
        if satisfiable:
            v = forest.add()
            satisfiable = all(forest.join(u, v) for u in range(v))
        rows.append((n, satisfiable, 2**forest.trees if satisfiable else 0))
    return rows


def n2_only_pattern(rows: list[tuple[int, bool, int]]) -> bool:
    """True iff the report is satisfiable exactly at N=2 (with both witnesses)."""
    return all(
        (sat and count == 2) if n == 2 else (not sat and count == 0)
        for (n, sat, count) in rows
    )


def report_lines(rows: list[tuple[int, bool, int]]) -> list[str]:
    return [
        f"N={n} satisfiable={'true' if sat else 'false'} witnesses={count}"
        for (n, sat, count) in rows
    ]
