"""Plain-text report commands.

Every subcommand is deterministic: fixed inputs give byte-identical output.
Exit codes: 0 when the report ran and its claims hold, 1 if a claim fails
(which a correct library never produces), 2 on input errors and when the
report cannot be written (an --out that cannot be opened, a full disk or a
failed device, for --out and stdout alike), and 141, as for SIGPIPE, when
the reader closes the output before the report is written.

Each handler imports the modules it uses when it runs, so a process loads
only its own subcommand's layers; exactnum, which every report formats
with, is the one layer imported here.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn, TextIO

from .exactnum import EPS, TwiceSpin, exclusion_check, fmt15, fmt15_complex, fmt15_join, m_range

if TYPE_CHECKING:
    from .rotations import Vec3


def _parse_vec(text: str, flag: str) -> Vec3:
    from .rotations import Vec3

    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{flag} must have three comma-separated components, got {text!r}")
    values = []
    for name, part in zip("xyz", parts):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{flag} component {name} must be a number, got {part!r}") from None
    return Vec3(*values)


def cmd_dmatrix(args: argparse.Namespace, out: TextIO) -> int:
    from .rotations import from_axis_angle
    from .wigner import wigner_D

    s = TwiceSpin(args.s2)
    axis = _parse_vec(args.axis, "--axis")
    q = from_axis_angle(axis, args.angle)
    mat = wigner_D(s, q)
    axis_text = fmt15_join(axis.components())
    out.write(f"dmatrix: s2={s.twice} axis={axis_text} angle={fmt15(args.angle)}\n")
    out.write("m2_order: " + " ".join(str(t) for t in mat.m_order()) + "\n")
    for m_row in m_range(s):
        for m_col in m_range(s):
            out.write(f"({m_row}, {m_col}) {fmt15_complex(mat.entry(m_row, m_col))}\n")
    return 0


# Fixed demonstration geometry for the exchange report: a back-to-back pair
# at polar angle pi/4 in the x-z plane, both spins stretched, slot-1 frame at
# the identity.
_EXCHANGE_P_A = (math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4))
_EXCHANGE_P_B = (-math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4))


def cmd_exchange(args: argparse.Namespace, out: TextIO) -> int:
    from .rotations import IDENTITY, Vec3
    from .states import (
        ExchangeCase,
        FrameTag,
        OrderedDescription,
        ParticleDescriptor,
        exchange_order_dependent,
    )

    s_a = TwiceSpin(args.sa2)
    s_b = TwiceSpin(args.sb2)
    d1, d2 = (
        ParticleDescriptor(
            Q=q, p=Vec3(*xyz), s=s, m=s.twice, base=FrameTag.HELICITY, R_BS=IDENTITY
        )
        for q, xyz, s in (("a", _EXCHANGE_P_A, s_a), ("b", _EXCHANGE_P_B, s_b))
    )
    ordered = OrderedDescription([d1, d2])
    state_first, phase_first = exchange_order_dependent(ordered, ExchangeCase.FIRST)
    state_second, phase_second = exchange_order_dependent(ordered, ExchangeCase.SECOND)
    # FIRST turns slot 1's particle, SECOND slot 2's: they differ by (-1)^(2s_a + 2s_b)
    discrepancy = phase_first * phase_second
    if abs(state_second.to_matrix() - discrepancy * state_first.to_matrix()).max() > 10 * EPS:
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
    from .antisym_checker import impossibility_report, n2_only_pattern, report_lines

    rows = impossibility_report(args.n)
    for line in report_lines(rows):
        out.write(line + "\n")
    return 0 if n2_only_pattern(rows) else 1


def cmd_frames(args: argparse.Namespace, out: TextIO) -> int:
    from .frames import _frame_residual, bisector_axis, helicity_frame, relative_rotation

    p_a = _parse_vec(args.pa, "--pa")
    p_b = _parse_vec(args.pb, "--pb")
    frame_a = helicity_frame(p_a, p_b, tag="a")
    frame_b = helicity_frame(p_b, p_a, tag="b")
    k = bisector_axis(p_a, p_b)
    out.write(f"frames: pa={fmt15_join(p_a.components())} pb={fmt15_join(p_b.components())}\n")
    for name, f in (("frame_a", frame_a), ("frame_b", frame_b)):
        x, y, z = (fmt15_join(v.components()) for v in (f.xhat, f.yhat, f.zhat))
        out.write(f"{name}: x={x} y={y} z={z}\n")
    out.write(f"bisector: {fmt15_join(k.components())}\n")
    sheets = {}
    for sheet in (1, -1):
        q = relative_rotation(frame_b, frame_a, sheet)
        sheets[sheet] = q
        residual = _frame_residual(q, frame_b, frame_a)
        out.write(
            f"sheet={sheet:+d}: q={fmt15_join(q.components())} residual={fmt15(residual)}\n"
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


def _drop_stdout() -> None:
    """Point stdout at devnull, so the flush of its buffered rest is silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # a report bound for --out is rendered into memory and the file opened
    # only once the handler has returned, so rejected input leaves an
    # existing file as it was
    out = io.StringIO() if args.out else sys.stdout
    try:
        code = args.handler(args, out)
        if args.out:
            with open(args.out, "w") as opened:
                opened.write(out.getvalue())
        # flush here, so that a reader that closed early is caught below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the exit code is the one shells report for SIGPIPE
        _drop_stdout()
        return 141
    except OSError as exc:
        # the report could not be written: bad output, not a failed claim
        if not args.out:
            _drop_stdout()
        print(f"error: cannot write {'--out' if args.out else 'stdout'}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        # a report that never loaded frames cannot have raised its error
        frames = sys.modules.get(f"{__package__}.frames")
        if frames is not None and isinstance(exc, frames.CollinearMomentaError):
            print(str(exc), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Entry point of the console script and of `python -m spinframes`.

    Runs main, flushes both streams and leaves by os._exit, which skips the
    interpreter's teardown (numpy's module cleanup and the shutdown of its
    BLAS threads) once the report is written. An argparse exit or an
    uncaught exception takes the normal exit path.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
