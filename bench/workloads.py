"""The four benchmark workloads: seeded inputs, the op each input drives, and
the checks every op must pass.

A workload turns a seeded random.Random into rounds of plain-value inputs,
one input per stratum of its fixed mix in shuffled order, so every round
carries the same mix. An op builds the package's types from those values,
calls the package, and checks the results against the tolerances pinned in
tests/test_acceptance.py. Expected signs, phases and allowed composite spins
are recomputed here from integer parity, never read from the package's own
sign functions.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spinframes import (
    IDENTITY,
    ExchangeCase,
    FrameTag,
    OrderedDescription,
    ParticleDescriptor,
    TwiceSpin,
    UnitQuaternion,
    Vec3,
    assemble_pair_canonical_orderfree,
    compose,
    exchange_order_dependent,
    helicity_frame,
    impossibility_report,
    max_commuting_pairset,
    pair_state_from_matrix,
    project_composite,
    pseudo_antisymmetrize,
    pure_permute,
    relative_rotation,
    to_matrix3,
    wigner_D,
)
from spinframes import cli

from stats import Checks

# Tolerances pinned in tests/test_acceptance.py: algebraic identities (c01,
# c03, c04, c05) and geometry or products of matrices (c02, c09).
TOL_ALGEBRA = 1e-12
TOL_GEOM = 1e-9
# Channel weights of a projected random state sum to its norm squared within
# the tolerance tests/test_composite.py pins for random states.
TOL_WEIGHT = 1e-10

HALF = TwiceSpin(1)


def parity_sign(k: int) -> int:
    """(-1)**k from the parity of an integer."""
    return -1 if k % 2 else 1


def _unit_quaternion(rng: random.Random) -> tuple[float, float, float, float]:
    while True:
        c = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in c))
        if n > 1e-3:
            return (c[0] / n, c[1] / n, c[2] / n, c[3] / n)


def _unit_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        c = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in c))
        if n > 1e-3:
            return (c[0] / n, c[1] / n, c[2] / n)


def _noncollinear_pair(rng: random.Random) -> tuple[tuple, tuple]:
    """Two momenta with random lengths whose directions are at least 1e-3
    (in the cross product) away from collinear."""
    while True:
        a = _unit_vector(rng)
        b = _unit_vector(rng)
        cross = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        if math.sqrt(sum(x * x for x in cross)) > 1e-3:
            la = rng.uniform(0.5, 2.0)
            lb = rng.uniform(0.5, 2.0)
            return tuple(la * x for x in a), tuple(lb * x for x in b)


def _twice_m(rng: random.Random, ts: int) -> int:
    return rng.choice(range(-ts, ts + 1, 2))


def _max_amplitude_diff(x: dict, y: dict, scale: int = 1) -> float:
    keys = set(x) | set(y)
    return max(abs(x.get(k, 0j) - scale * y.get(k, 0j)) for k in keys)


class RotateHighspin:
    """wigner_D at high spin: homomorphism and the double-cover sign law."""

    name = "rotate-highspin"
    SPINS = tuple(range(6, 13))  # 2s

    def make_round(self, rng: random.Random) -> list:
        spins = list(self.SPINS)
        rng.shuffle(spins)
        return [(ts, _unit_quaternion(rng), _unit_quaternion(rng)) for ts in spins]

    def warmup_inputs(self, rng: random.Random) -> list:
        return self.make_round(rng)

    def op(self, inp, checks: Checks) -> None:
        ts, p, q = inp
        s = TwiceSpin(ts)
        qp = UnitQuaternion(*p)
        qq = UnitQuaternion(*q)
        d_p = wigner_D(s, qp).entries
        d_q = wigner_D(s, qq).entries
        d_pq = wigner_D(s, compose(qp, qq)).entries
        d_negq = wigner_D(s, -qq).entries
        checks.within(np.abs(d_pq - d_p @ d_q).max(), TOL_GEOM, "homomorphism")
        checks.within(
            np.abs(d_negq - parity_sign(ts) * d_q).max(), TOL_ALGEBRA, "D(-q) sign law"
        )


class PairInput(NamedTuple):
    ta: int
    tb: int
    p_a: tuple
    p_b: tuple
    m_a: int
    m_b: int
    r_bs_a: tuple
    r_bs_b: tuple
    rot_a: tuple
    rot_b: tuple
    raw: tuple  # (2s_a+1)^2 complex amplitudes, row-major
    r_common: tuple


class PairsDesk:
    """The full pair pipeline at desk spins: frames, exchange, order-free
    assembly, composite projection and the even-S exclusion rule."""

    name = "pairs-desk"
    SPIN_PAIRS = tuple((a, b) for a in range(1, 5) for b in range(1, 5))  # (2s_a, 2s_b)

    def make_round(self, rng: random.Random) -> list:
        pairs = list(self.SPIN_PAIRS)
        rng.shuffle(pairs)
        return [self._input(rng, ta, tb) for ta, tb in pairs]

    def warmup_inputs(self, rng: random.Random) -> list:
        return self.make_round(rng)

    @staticmethod
    def _input(rng: random.Random, ta: int, tb: int) -> PairInput:
        p_a, p_b = _noncollinear_pair(rng)
        dim = ta + 1
        raw = tuple(
            complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim * dim)
        )
        return PairInput(
            ta=ta,
            tb=tb,
            p_a=p_a,
            p_b=p_b,
            m_a=_twice_m(rng, ta),
            m_b=_twice_m(rng, tb),
            r_bs_a=_unit_quaternion(rng),
            r_bs_b=_unit_quaternion(rng),
            rot_a=_unit_quaternion(rng),
            rot_b=_unit_quaternion(rng),
            raw=raw,
            r_common=_unit_quaternion(rng),
        )

    def op(self, x: PairInput, checks: Checks) -> None:
        s_a, s_b = TwiceSpin(x.ta), TwiceSpin(x.tb)
        p_a, p_b = Vec3(*x.p_a), Vec3(*x.p_b)

        # c09: helicity frames and the half-turn between them on both sheets
        f_a = helicity_frame(p_a, p_b, tag="a")
        f_b = helicity_frame(p_b, p_a, tag="b")
        q_plus = relative_rotation(f_b, f_a, sheet=1)
        q_minus = relative_rotation(f_b, f_a, sheet=-1)
        checks.exact(
            q_minus.components() == tuple(-c for c in q_plus.components()),
            "the two sheets negate exactly",
        )
        axes_a = np.array([[v.x, v.y, v.z] for v in (f_a.xhat, f_a.yhat, f_a.zhat)]).T
        axes_b = np.array([[v.x, v.y, v.z] for v in (f_b.xhat, f_b.yhat, f_b.zhat)]).T
        for q in (q_plus, q_minus):
            residual = np.abs(to_matrix3(q) @ axes_b - axes_a).max()
            checks.within(residual, TOL_GEOM, "half-turn maps frame to frame")

        # c03: order-dependent exchange under both kept-rotation conventions;
        # the full turn lands on the particle first in slot 1 (FIRST) or in
        # slot 2 (SECOND)
        d1 = ParticleDescriptor(
            Q="a", p=p_a, s=s_a, m=s_a.component(x.m_a),
            base=FrameTag.HELICITY, R_BS=UnitQuaternion(*x.r_bs_a),
        )
        d2 = ParticleDescriptor(
            Q="b", p=p_b, s=s_b, m=s_b.component(x.m_b),
            base=FrameTag.HELICITY, R_BS=IDENTITY,
        )
        ordered = OrderedDescription([d1, d2])
        st_first, ph_first = exchange_order_dependent(ordered, ExchangeCase.FIRST)
        st_second, ph_second = exchange_order_dependent(ordered, ExchangeCase.SECOND)
        checks.exact(ph_first == parity_sign(x.ta), "FIRST phase is (-1)^(2s_a)")
        checks.exact(ph_second == parity_sign(x.tb), "SECOND phase is (-1)^(2s_b)")
        discrepancy = parity_sign(x.ta + x.tb)
        checks.within(
            _max_amplitude_diff(st_second.amplitudes, st_first.amplitudes, discrepancy),
            TOL_ALGEBRA,
            "cases differ by (-1)^(2s_a+2s_b)",
        )

        # c04: pure permutation of an order-free description is the identity
        da = ParticleDescriptor(
            Q="a", p=p_a, s=s_a, m=s_a.component(x.m_a),
            base=FrameTag.CANONICAL, R_BS=UnitQuaternion(*x.r_bs_a),
        )
        db = ParticleDescriptor(
            Q="b", p=p_b, s=s_b, m=s_b.component(x.m_b),
            base=FrameTag.CANONICAL, R_BS=UnitQuaternion(*x.r_bs_b),
        )
        state = assemble_pair_canonical_orderfree(
            da, db, UnitQuaternion(*x.rot_a), UnitQuaternion(*x.rot_b)
        )
        permuted = pure_permute(state)
        checks.exact(
            permuted.desc_a == state.desc_a and permuted.desc_b == state.desc_b,
            "pure_permute keeps the descriptor pair",
        )
        checks.within(
            _max_amplitude_diff(permuted.amplitudes, state.amplitudes),
            TOL_ALGEBRA,
            "pure_permute is the identity",
        )

        # composite projection on both sheets: unitary, and the sheets differ
        # by (-1)^(2s_b) on every amplitude
        norm2 = sum(abs(v) ** 2 for v in state.amplitudes.values())
        plus = project_composite(state, 1)
        minus = project_composite(state, -1)
        for proj in (plus, minus):
            total = sum(abs(v) ** 2 for v in proj.amplitudes.values())
            checks.within(abs(total - norm2), TOL_WEIGHT, "weights sum to the norm^2")
        sign_b = parity_sign(x.tb)
        checks.within(
            _max_amplitude_diff(minus.amplitudes, plus.amplitudes, sign_b),
            TOL_ALGEBRA,
            "sheets differ by (-1)^(2s_b)",
        )

        # c05: a pseudo-antisymmetrized identical-spin pair has no odd-S weight
        dim = x.ta + 1
        raw = np.array(x.raw, dtype=complex).reshape(dim, dim)
        psi = pseudo_antisymmetrize(raw, s_a)
        ea = ParticleDescriptor(
            Q="a", p=p_a, s=s_a, m=s_a.component(x.ta),
            base=FrameTag.CANONICAL, R_BS=IDENTITY,
        )
        eb = ParticleDescriptor(
            Q="b", p=p_b, s=s_a, m=s_a.component(x.ta),
            base=FrameTag.CANONICAL, R_BS=IDENTITY,
        )
        r = UnitQuaternion(*x.r_common)
        proj = project_composite(pair_state_from_matrix(ea, eb, psi), (r, r))
        odd = sum(
            abs(v) ** 2 for (S, _), v in proj.amplitudes.items() if (S.twice // 2) % 2
        )
        checks.within(odd, TOL_ALGEBRA, "odd-S weight of the identical pair")


class Proofs:
    """The two exhaustive enumerations: pairwise sign flips and commuting
    subset-spin families."""

    name = "proofs"
    N_RANGE = tuple(range(2, 21))
    FAMILY_SIZES = (3, 4)

    def make_round(self, rng: random.Random) -> list:
        ns = list(self.N_RANGE)
        rng.shuffle(ns)
        return ns

    def warmup_inputs(self, rng: random.Random) -> list:
        return [2, 3, 4]

    def op(self, n: int, checks: Checks) -> None:
        rows = impossibility_report(n)
        checks.exact([row[0] for row in rows] == list(range(2, n + 1)), "report rows")
        for k, satisfiable, count in rows:
            # "every pair flips" 2-colours K_k: possible only for k = 2 (a
            # triangle has no 2-colouring), and a connected 2-colourable
            # graph has exactly two colourings
            want = 2 if k == 2 else 0
            checks.exact(
                satisfiable == (want > 0) and count == want, f"N={k} witnesses"
            )
        for size in self.FAMILY_SIZES:
            checks.exact(
                max_commuting_pairset(size, HALF) == size - 1,
                f"commuting family at N={size} is N-1",
            )


def run_cli_process(argv: list[str], env: dict) -> tuple[int, bytes, int]:
    """Run one CLI process; return its exit code, its merged stdout and
    stderr, and its peak resident set size in KiB."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class CliReports:
    """One `python -m spinframes <subcommand>` process per op."""

    name = "cli-reports"

    def __init__(self, src: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.peak_child_kib = 0

    def make_round(self, rng: random.Random) -> list:
        axis = ",".join(map(repr, _unit_vector(rng)))
        p_a, p_b = _noncollinear_pair(rng)
        argvs = [
            ["dmatrix", "--s2", str(rng.randint(1, 12)), f"--axis={axis}",
             f"--angle={rng.uniform(-4 * math.pi, 4 * math.pi)!r}"],
            ["exchange", "--sa2", str(rng.randint(1, 8)), "--sb2", str(rng.randint(1, 8)),
             "--case", rng.choice(("first", "second"))],
            ["exclusion", "--s2", str(rng.randint(1, 12))],
            ["impossibility", "--n", str(rng.randint(2, 12))],
            ["frames", "--pa=" + ",".join(map(repr, p_a)), "--pb=" + ",".join(map(repr, p_b))],
        ]
        rng.shuffle(argvs)
        return argvs

    def warmup_inputs(self, rng: random.Random) -> list:
        return self.make_round(rng)

    def op(self, argv: list[str], checks: Checks) -> None:
        code, out, rss = run_cli_process(
            [sys.executable, "-m", "spinframes", *argv], self.env
        )
        self.peak_child_kib = max(self.peak_child_kib, rss)
        checks.exact(code == 0, f"{argv[0]} exit code {code}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            in_process = cli.main(list(argv))
        checks.exact(in_process == 0, f"{argv[0]} in-process exit code {in_process}")
        checks.exact(out == buf.getvalue().encode(), f"{argv[0]} bytes differ in-process")
        text = out.decode(errors="replace")
        checks.exact(_claims_hold(argv, text), f"{argv[0]} report claims")


def _arg(argv: list[str], flag: str) -> str:
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    raise KeyError(flag)


def _claims_hold(argv: list[str], text: str) -> bool:
    """The report's claims, recomputed from integer parity."""
    command = argv[0]
    lines = text.splitlines()
    if command == "dmatrix":
        ts = int(_arg(argv, "--s2"))
        order = list(range(ts, -ts - 1, -2))
        labels = [f"({r}, {c}) " for r in order for c in order]
        return (
            len(lines) == 2 + len(labels)
            and lines[0].startswith(f"dmatrix: s2={ts} ")
            and lines[1] == "m2_order: " + " ".join(map(str, order))
            and all(line.startswith(lab) for line, lab in zip(lines[2:], labels))
        )
    if command == "exchange":
        ta, tb = int(_arg(argv, "--sa2")), int(_arg(argv, "--sb2"))
        phase = parity_sign(ta if _arg(argv, "--case") == "first" else tb)
        return text == f"phase={phase:+d} case_discrepancy={parity_sign(ta + tb):+d}\n"
    if command == "exclusion":
        ts = int(_arg(argv, "--s2"))
        even = range(0, 2 * ts + 1, 4)  # doubled S with S even
        return text == "allowed_S2: " + " ".join(map(str, even)) + "\n"
    if command == "impossibility":
        n = int(_arg(argv, "--n"))
        return text == "".join(
            f"N={k} satisfiable={'true' if k == 2 else 'false'} "
            f"witnesses={2 if k == 2 else 0}\n"
            for k in range(2, n + 1)
        )
    if command == "frames":
        return len(lines) == 7 and lines[-1] == "opposite_sheets_negate: true"
    raise ValueError(f"unknown subcommand {command!r}")


def make(name: str, src: Path):
    """The workload called name; src is the directory holding spinframes."""
    if name == CliReports.name:
        return CliReports(src)
    for cls in (RotateHighspin, PairsDesk, Proofs):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")


NAMES = (RotateHighspin.name, PairsDesk.name, Proofs.name, CliReports.name)
