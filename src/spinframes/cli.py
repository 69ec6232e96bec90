"""Plain-text report commands.

Every subcommand is deterministic: fixed inputs give byte-identical output.
Exit codes: 0 when the report ran and its claims hold, 1 if a claim fails
(which a correct library never produces), 2 on input errors, and 141, as for
SIGPIPE, when the reader closes the output before the report is written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TextIO

from .antisym_checker import impossibility_report, n2_only_pattern, report_lines
from .exactnum import EPS, TwiceSpin, exclusion_check, fmt15, m_range, order_dependence_phase
from .frames import (
    CollinearMomentaError,
    _frame_residual,
    bisector_axis,
    helicity_frame,
    relative_rotation,
)
from .rotations import IDENTITY, UnitQuaternion, Vec3, from_axis_angle
from .states import (
    ExchangeCase,
    FrameTag,
    OrderedDescription,
    ParticleDescriptor,
    exchange_order_dependent,
)
from .wigner import wigner_D


def _parse_vec(text: str) -> Vec3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated components, got {text!r}")
    return Vec3(float(parts[0]), float(parts[1]), float(parts[2]))


def _fmt_vec(v: Vec3) -> str:
    return f"{fmt15(v.x)},{fmt15(v.y)},{fmt15(v.z)}"


def _fmt_quat(q: UnitQuaternion) -> str:
    return ",".join(fmt15(c) for c in q.components())


def cmd_dmatrix(args: argparse.Namespace, out: TextIO) -> int:
    s = TwiceSpin(args.s2)
    axis = _parse_vec(args.axis)
    q = from_axis_angle(axis, args.angle)
    mat = wigner_D(s, q)
    out.write(
        f"dmatrix: s2={s.twice} axis={_fmt_vec(axis)} angle={fmt15(args.angle)}\n"
    )
    out.write("m2_order: " + " ".join(str(t) for t in mat.m_order()) + "\n")
    for m_row in m_range(s):
        for m_col in m_range(s):
            v = mat.entry(m_row, m_col)
            out.write(f"({m_row}, {m_col}) {fmt15(v.real)} {fmt15(v.imag)}\n")
    return 0


# Fixed demonstration geometry for the exchange report: a back-to-back pair
# at polar angle pi/4 in the x-z plane, both spins stretched, slot-1 frame at
# the identity.
_EXCHANGE_P_A = Vec3(math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4))
_EXCHANGE_P_B = Vec3(-math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4))


def cmd_exchange(args: argparse.Namespace, out: TextIO) -> int:
    s_a = TwiceSpin(args.sa2)
    s_b = TwiceSpin(args.sb2)
    d1, d2 = (
        ParticleDescriptor(Q=q, p=p, s=s, m=s.twice, base=FrameTag.HELICITY, R_BS=IDENTITY)
        for q, p, s in (("a", _EXCHANGE_P_A, s_a), ("b", _EXCHANGE_P_B, s_b))
    )
    ordered = OrderedDescription([d1, d2])
    state_first, phase_first = exchange_order_dependent(ordered, ExchangeCase.FIRST)
    state_second, phase_second = exchange_order_dependent(ordered, ExchangeCase.SECOND)
    # the cases differ by one full turn on each particle
    discrepancy = order_dependence_phase([1, 1], [s_a, s_b])
    residual = max(
        abs(state_second.amplitudes.get(k, 0j) - discrepancy * v)
        for k, v in state_first.amplitudes.items()
    )
    if residual > 10 * EPS:
        out.write("case discrepancy check failed\n")
        return 1
    phase = phase_first if args.case == "first" else phase_second
    out.write(f"phase={phase:+d} case_discrepancy={discrepancy:+d}\n")
    return 0


def cmd_exclusion(args: argparse.Namespace, out: TextIO) -> int:
    allowed = sorted(S.twice for S in exclusion_check(TwiceSpin(args.s2)))
    out.write("allowed_S2: " + " ".join(str(t) for t in allowed) + "\n")
    return 0


def cmd_impossibility(args: argparse.Namespace, out: TextIO) -> int:
    rows = impossibility_report(args.n)
    for line in report_lines(rows):
        out.write(line + "\n")
    return 0 if n2_only_pattern(rows) else 1


def cmd_frames(args: argparse.Namespace, out: TextIO) -> int:
    p_a = _parse_vec(args.pa)
    p_b = _parse_vec(args.pb)
    frame_a = helicity_frame(p_a, p_b, tag="a")
    frame_b = helicity_frame(p_b, p_a, tag="b")
    k = bisector_axis(p_a, p_b)
    out.write(f"frames: pa={_fmt_vec(p_a)} pb={_fmt_vec(p_b)}\n")
    for name, f in (("frame_a", frame_a), ("frame_b", frame_b)):
        out.write(
            f"{name}: x={_fmt_vec(f.xhat)} y={_fmt_vec(f.yhat)} z={_fmt_vec(f.zhat)}\n"
        )
    out.write(f"bisector: {_fmt_vec(k)}\n")
    sheets = {}
    for sheet in (1, -1):
        q = relative_rotation(frame_b, frame_a, sheet)
        sheets[sheet] = q
        residual = _frame_residual(q, frame_b, frame_a)
        out.write(
            f"sheet={sheet:+d}: q={_fmt_quat(q)} residual={fmt15(residual)}\n"
        )
    negated = all(
        a == -b for a, b in zip(sheets[1].components(), sheets[-1].components())
    )
    out.write(f"opposite_sheets_negate: {'true' if negated else 'false'}\n")
    return 0 if negated else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinframes",
        description="Reports on double-cover spin state conventions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dmatrix", help="spin-s rotation matrix entries")
    p.add_argument("--s2", type=int, required=True, help="doubled spin, e.g. 1 for spin 1/2")
    p.add_argument("--axis", required=True, help="rotation axis x,y,z")
    p.add_argument("--angle", type=float, required=True, help="angle in radians")
    p.set_defaults(handler=cmd_dmatrix)

    p = sub.add_parser("exchange", help="order-dependent exchange phases")
    p.add_argument("--sa2", type=int, required=True, help="doubled spin of particle a")
    p.add_argument("--sb2", type=int, required=True, help="doubled spin of particle b")
    p.add_argument("--case", choices=("first", "second"), required=True)
    p.set_defaults(handler=cmd_exchange)

    p = sub.add_parser("exclusion", help="allowed composite spins of an identical pair")
    p.add_argument("--s2", type=int, required=True, help="doubled spin")
    p.set_defaults(handler=cmd_exclusion)

    p = sub.add_parser("impossibility", help="pairwise sign-flip satisfiability by N")
    p.add_argument("--n", type=int, required=True, help="largest particle count")
    p.set_defaults(handler=cmd_impossibility)

    p = sub.add_parser("frames", help="helicity frames and the relating half-turn")
    p.add_argument("--pa", required=True, help="momentum of particle a as x,y,z")
    p.add_argument("--pb", required=True, help="momentum of particle b as x,y,z")
    p.set_defaults(handler=cmd_frames)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the report to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    opened = None
    if args.out:
        try:
            opened = open(args.out, "w")
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
        out = opened
    try:
        code = args.handler(args, out)
        # flush here, so that a reader that closed early is caught below
        out.flush()
        return code
    except BrokenPipeError:
        # the buffered rest goes to devnull, so the flush at exit stays
        # silent; the exit code is the one shells report for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    except CollinearMomentaError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if opened is not None:
            opened.close()


if __name__ == "__main__":
    sys.exit(main())
