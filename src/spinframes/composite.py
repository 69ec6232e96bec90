"""Composite spin of a pair, the even-S exclusion rule, and commuting
subset-spin operators. The integer sign rules behind the even-S rule live in
exactnum; pseudo_antisymmetry_sign and exclusion_check stay bound here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactnum import (
    EPS, TwiceSpin, _require_instance, _show, float_bits, fmt15_complex, m_range, order_dependence_phase
)
from .exactnum import exclusion_check, pseudo_antisymmetry_sign  # noqa: F401  (bound here too)
from .rotations import UnitQuaternion, half_turn
from .states import PairState, _require_amplitude_matrix
from .wigner import CGTable, wigner_D

# Dense-matrix desk-scale bounds.
MAX_OPERATOR_PARTICLES = 5
MAX_OPERATOR_TWICE_SPIN = 2


@dataclass(frozen=True, eq=False)
class CompositeProjection:
    """Amplitudes of a pair state on the composite basis |S M>, keyed by
    (S, 2M)."""

    s_a: TwiceSpin
    s_b: TwiceSpin
    amplitudes: dict[tuple[TwiceSpin, int], complex]

    def amplitude(self, S: TwiceSpin, tM: int) -> complex:
        _require_instance(S, TwiceSpin, "S must be a TwiceSpin, got {value}")
        return self.amplitudes.get((S, S.component(tM)), 0j)

    def weight(self, S: TwiceSpin) -> float:
        """Total probability in the composite-spin-S channel."""
        _require_instance(S, TwiceSpin, "S must be a TwiceSpin, got {value}")
        return float(
            sum(abs(v) ** 2 for (tS, _), v in self.amplitudes.items() if tS == S)
        )

    def total_weight(self) -> float:
        return float(sum(abs(v) ** 2 for v in self.amplitudes.values()))

    def report_lines(self) -> list[str]:
        """`S_twice M_twice re im` per entry, S ascending then M descending."""
        keys = sorted(self.amplitudes, key=lambda k: (k[0].twice, -k[1]))
        return [f"{S.twice} {tM} {fmt15_complex(self.amplitudes[(S, tM)])}" for (S, tM) in keys]


def project_composite(
    state: PairState,
    route: int | tuple[UnitQuaternion, UnitQuaternion] | list[UnitQuaternion],
) -> CompositeProjection:
    """Couple the pair's spins after bringing both to one common frame.

    route says how the common frame is reached. Either a pair (R_a, R_b) of
    rotations, given as a tuple or a list, applied to the two label slots
    directly, or an integer sheet (+1 or -1): then slot a stays put and
    slot b turns by the exact half-turn about the momentum bisector on that
    sheet (rotations.half_turn), the relation between the two sides of a
    back-to-back pair. The sheet must be given explicitly in that form; the
    two choices multiply every amplitude by exactly (-1)^(2s_b), so they
    agree for a fullon slot and differ by a global sign for a halfon slot.
    Any other route, a bool included, raises TypeError.

    The common-frame amplitudes D_a psi D_b^T (psi D_b^T on the sheet
    route, with the state's stored bisector), flattened row by row, meet
    the pair's cached Clebsch-Gordan matrix in one product. On the pair
    route one D matrix serves both slots when the spins and the rotations'
    bits agree. The change of basis is unitary, so the channel weights sum
    to 1 for a normalized input.
    """
    _require_instance(state, PairState, "state must be a PairState, got {type}")
    s_a, s_b = state.desc_a.s, state.desc_b.s
    if isinstance(route, int) and not isinstance(route, bool):
        d_b = wigner_D(s_b, half_turn(state.bisector, route)).entries
        common = state.to_matrix() @ d_b.T
    elif (
        isinstance(route, (tuple, list))
        and len(route) == 2
        and all(isinstance(r, UnitQuaternion) for r in route)
    ):
        r_a, r_b = route
        d_a = wigner_D(s_a, r_a).entries
        if s_a == s_b and float_bits(r_a.components()) == float_bits(r_b.components()):
            d_b = d_a
        else:
            d_b = wigner_D(s_b, r_b).entries
        common = d_a @ state.to_matrix() @ d_b.T
    else:
        raise TypeError(
            "route must be an int sheet (+1 or -1) or a tuple or list of two "
            f"UnitQuaternions, got {_show(route)}"
        )
    table = CGTable(s_a, s_b)
    amps = dict(zip(table.channels, (common.reshape(-1) @ table.matrix).tolist()))
    return CompositeProjection(s_a=s_a, s_b=s_b, amplitudes=amps)


def pseudo_antisymmetrize(psi: np.ndarray, s: TwiceSpin) -> np.ndarray:
    """Project a square amplitude matrix onto the slot-swap eigenspace with
    eigenvalue (-1)^(2s), normalized: (psi + (-1)^(2s) psi^T) / norm. psi
    must be a numpy array (else TypeError) of shape exactly (2s+1, 2s+1).

    For half-integer s this looks like antisymmetrization, for integer s like
    symmetrization; both keep exactly the even-S coupling channels.
    """
    _require_instance(s, TwiceSpin, "spin must be a TwiceSpin, got {value}")
    _require_amplitude_matrix(psi, "psi", (s.dim, s.dim))
    if psi.dtype.kind in "iu":
        psi = psi.astype(float)  # the sum below would wrap around in an int dtype
    out = psi + order_dependence_phase([1], [s]) * psi.T
    norm = np.linalg.norm(out)
    if norm < EPS:
        raise ValueError("projection annihilates this matrix entirely")
    return out / norm


def _single_spin_matrices(s: TwiceSpin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (Sx, Sy, Sz) in the descending-m basis, hbar = 1.
    dim = s.dim
    ms = m_range(s)
    sz = np.diag([tm / 2.0 for tm in ms]).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for idx in range(1, dim):
        tm = ms[idx]  # raising maps m -> m+1, i.e. column idx to row idx-1
        sp[idx - 1, idx] = math.sqrt((s.twice * (s.twice + 2) - tm * (tm + 2)) / 4.0)
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def _embed(op: np.ndarray, n: int, slot: int) -> np.ndarray:
    dim = op.shape[0]
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(out, op if i == slot else np.eye(dim, dtype=complex))
    return out


@dataclass(frozen=True, eq=False)
class PairSpinOperator:
    """(sum of the subset's spin vectors) squared, on the N-fold product space."""

    n_particles: int
    s: TwiceSpin
    subset: frozenset[int]
    matrix: np.ndarray


def build_pair_spin_operator(
    n_particles: int, s: TwiceSpin, subset: set[int] | frozenset[int]
) -> PairSpinOperator:
    """Composite-spin-squared operator of the given particle subset (indices
    1..N), embedded in the N-particle product space.

    Hermitian by construction; its spectrum is S(S+1) over the coupling range
    of |subset| spins s.
    """
    _require_instance(n_particles, int, "N must be an int, got {value}")
    _require_instance(s, TwiceSpin, "spin must be a TwiceSpin, got {value}")
    if n_particles > MAX_OPERATOR_PARTICLES:
        raise ValueError(f"N={_show(n_particles)} exceeds bound {MAX_OPERATOR_PARTICLES}")
    if s.twice > MAX_OPERATOR_TWICE_SPIN:
        raise ValueError(f"2s={_show(s.twice)} exceeds bound {MAX_OPERATOR_TWICE_SPIN}")
    _require_instance(subset, (set, frozenset), "subset must be a set or frozenset, got {value}")
    subset = frozenset(subset)
    for label in subset:
        _require_instance(label, int, "subset label must be an int, got {value}")
    if len(subset) < 2:
        raise ValueError("subset must contain at least two particles")
    if not subset <= set(range(1, n_particles + 1)):
        raise ValueError(f"subset {_show(sorted(subset))} not within 1..{n_particles}")
    components = _single_spin_matrices(s)
    dim_total = s.dim**n_particles
    total = np.zeros((dim_total, dim_total), dtype=complex)
    for comp in components:
        summed = np.zeros((dim_total, dim_total), dtype=complex)
        for i in sorted(subset):
            summed += _embed(comp, n_particles, i - 1)
        total += summed @ summed
    return PairSpinOperator(
        n_particles=n_particles, s=s, subset=subset, matrix=total
    )


def max_commuting_pairset(n_particles: int, s: TwiceSpin) -> int:
    """Largest family of distinct subset-spin operators (each subset of size
    at least 2) that commute pairwise.

    Distinct subsets and pairwise matrix commutation is this package's
    concrete reading of "independent simultaneous eigenstates". For s > 0
    the operators of subsets A and B commute exactly when A and B are nested
    or disjoint, so a commuting family is a laminar family of subsets. A
    laminar family of subsets of size at least 2 on N points has at most
    N - 1 members: added in order of size, each member is the union of at
    least two blocks of the partition formed by the earlier maximal members
    and the uncovered points, so each one merges blocks, and N blocks allow
    only N - 1 merges. The nested chain {1,2}, {1,2,3}, ..., {1..N} reaches
    the bound, so the answer is N - 1, never the N(N-1)/2 a full pairwise
    family would need. For s = 0 every operator is zero and all 2^N - N - 1
    subsets commute.
    """
    _require_instance(n_particles, int, "N must be an int, got {value}")
    _require_instance(s, TwiceSpin, "spin must be a TwiceSpin, got {value}")
    if n_particles < 0:
        raise ValueError(f"N must be non-negative, got {_show(n_particles)}")
    if s.twice == 0:
        return 2**n_particles - n_particles - 1
    return max(n_particles - 1, 0)
