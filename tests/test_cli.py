"""End-to-end command-line runs through a real subprocess: golden report
bytes, exit codes, determinism, and the error paths. The failed-claim exit
(1), which a correct library never reaches, runs in process, with the
library call behind each claim patched to break it."""

import contextlib
import io
import os
import subprocess
import sys

from spinframes import ExchangeCase, antisym_checker, cli, frames, states

FULL_TURN = "6.283185307179586"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "spinframes", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_dmatrix_full_turn_halfon():
    r = run_cli("dmatrix", "--s2", "1", "--axis", "0,0,1", "--angle", FULL_TURN)
    assert r.returncode == 0
    assert r.stdout == (
        "dmatrix: s2=1 axis=0,0,1 angle=6.28318530717959\n"
        "m2_order: 1 -1\n"
        "(1, 1) -1 -1.22464679914735e-16\n"
        "(1, -1) 0 0\n"
        "(-1, 1) 0 0\n"
        "(-1, -1) -1 1.22464679914735e-16\n"
    )
    assert r.stderr == ""


def test_dmatrix_full_turn_fullon():
    r = run_cli("dmatrix", "--s2", "2", "--axis", "0,0,1", "--angle", FULL_TURN)
    assert r.returncode == 0
    assert r.stdout == (
        "dmatrix: s2=2 axis=0,0,1 angle=6.28318530717959\n"
        "m2_order: 2 0 -2\n"
        "(2, 2) 1 2.44929359829471e-16\n"
        "(2, 0) 0 0\n"
        "(2, -2) 0 0\n"
        "(0, 2) 0 0\n"
        "(0, 0) 1 0\n"
        "(0, -2) 0 0\n"
        "(-2, 2) 0 0\n"
        "(-2, 0) 0 0\n"
        "(-2, -2) 1 -2.44929359829471e-16\n"
    )


def test_dmatrix_third_turn_about_y():
    r = run_cli("dmatrix", "--s2", "1", "--axis", "0,1,0", "--angle", "1.0471975512")
    assert r.returncode == 0
    assert r.stdout == (
        "dmatrix: s2=1 axis=0,1,0 angle=1.0471975512\n"
        "m2_order: 1 -1\n"
        "(1, 1) 0.866025403783588 0\n"
        "(1, -1) -0.500000000001473 0\n"
        "(-1, 1) 0.500000000001473 0\n"
        "(-1, -1) 0.866025403783588 0\n"
    )


def test_dmatrix_golden_bytes():
    # bytes of the report before rotation axes were rescaled by powers of two
    r = run_cli("dmatrix", "--s2", "3", "--axis", "0.1,0.9,-0.2", "--angle", "2.1")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == (
        "dmatrix: s2=3 axis=0.1,0.9,-0.2 angle=2.1\n"
        "m2_order: 3 1 -1 -3\n"
        "(3, 3) 0.0709475036371317 0.132398216628815\n"
        "(3, 1) -0.279801429652511 -0.305885236659955\n"
        "(3, -1) 0.552183141297722 0.362513641781529\n"
        "(3, -3) -0.574490133528489 -0.19804360728475\n"
        "(1, 3) 0.340122544293659 0.237004795110381\n"
        "(1, 1) -0.573341114216747 -0.215560806764337\n"
        "(1, -1) 0.128193762827644 0.0142437514252938\n"
        "(1, -3) 0.654239151525247 -0.0910686258963609\n"
        "(-1, 3) 0.654239151525247 0.0910686258963609\n"
        "(-1, 1) -0.128193762827644 0.0142437514252937\n"
        "(-1, -1) -0.573341114216747 0.215560806764337\n"
        "(-1, -3) -0.340122544293659 0.237004795110381\n"
        "(-3, 3) 0.574490133528489 -0.19804360728475\n"
        "(-3, 1) 0.552183141297722 -0.362513641781529\n"
        "(-3, -1) 0.279801429652511 -0.305885236659955\n"
        "(-3, -3) 0.0709475036371317 -0.132398216628815\n"
    )


def test_dmatrix_extreme_axis_scales():
    unit = run_cli("dmatrix", "--s2", "1", "--axis", "1,0,0", "--angle", "1.0")
    assert unit.stdout.splitlines()[2:] == [
        "(1, 1) 0.877582561890373 0",
        "(1, -1) 0 -0.479425538604203",
        "(-1, 1) 0 -0.479425538604203",
        "(-1, -1) 0.877582561890373 0",
    ]
    for axis in ("1e200,0,0", "1e-200,0,0", "1e-10,0,0"):
        r = run_cli("dmatrix", "--s2", "1", "--axis", axis, "--angle", "1.0")
        assert (r.returncode, r.stderr) == (0, ""), axis
        assert r.stdout.splitlines()[2:] == unit.stdout.splitlines()[2:]


def test_dmatrix_non_finite_input_named():
    for args, message in (
        (("--axis", "nan,0,0", "--angle", "1.0"), "error: rotation axis nan,0.0,0.0 is not finite\n"),
        (("--axis", "0,0,1", "--angle", "inf"), "error: rotation angle inf is not finite\n"),
    ):
        r = run_cli("dmatrix", "--s2", "1", *args)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message)


def test_exchange_phase_lines():
    cases = {
        ("1", "1", "first"): "phase=-1 case_discrepancy=+1\n",
        ("1", "1", "second"): "phase=-1 case_discrepancy=+1\n",
        ("1", "2", "first"): "phase=-1 case_discrepancy=-1\n",
        ("1", "2", "second"): "phase=+1 case_discrepancy=-1\n",
        ("2", "2", "first"): "phase=+1 case_discrepancy=+1\n",
        ("2", "2", "second"): "phase=+1 case_discrepancy=+1\n",
    }
    for (sa2, sb2, case), want in cases.items():
        r = run_cli("exchange", "--sa2", sa2, "--sb2", sb2, "--case", case)
        assert r.returncode == 0, r.stderr
        assert r.stdout == want


def test_exchange_at_every_supported_spin(capsys):
    # in process, all 338 argument sets: each sign from integer parity
    for ta in range(13):
        for tb in range(13):
            for case in ("first", "second"):
                args = ["exchange", "--sa2", str(ta), "--sb2", str(tb), "--case", case]
                assert cli.main(args) == 0, args
                phase = -1 if (ta if case == "first" else tb) % 2 else 1
                discrepancy = -1 if (ta + tb) % 2 else 1
                want = f"phase={phase:+d} case_discrepancy={discrepancy:+d}\n"
                assert capsys.readouterr() == (want, ""), args


def test_exclusion_lines():
    for s2, want in (("1", "0"), ("2", "0 4"), ("3", "0 4"), ("4", "0 4 8")):
        r = run_cli("exclusion", "--s2", s2)
        assert r.returncode == 0
        assert r.stdout == f"allowed_S2: {want}\n"


def test_exclusion_spin_is_bounded():
    r = run_cli("exclusion", "--s2", "12")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "allowed_S2: 0 4 8 12 16 20 24\n"
    for s2 in ("13", "1000000000000"):
        # unbounded, the second one runs for hours
        r = run_cli("exclusion", "--s2", s2, timeout=30)
        assert (r.returncode, r.stdout) == (2, ""), s2
        assert r.stderr == f"error: 2s={s2} exceeds supported maximum 12\n"


def test_impossibility_report_and_exit():
    r = run_cli("impossibility", "--n", "4")
    assert r.returncode == 0
    assert r.stdout == (
        "N=2 satisfiable=true witnesses=2\n"
        "N=3 satisfiable=false witnesses=0\n"
        "N=4 satisfiable=false witnesses=0\n"
    )
    r = run_cli("impossibility", "--n", "2")
    assert r.returncode == 0
    assert r.stdout == "N=2 satisfiable=true witnesses=2\n"


def test_frames_report():
    r = run_cli("frames", "--pa", "1,0,1", "--pb=-1,0,1")
    assert r.returncode == 0
    assert r.stdout == (
        "frames: pa=1,0,1 pb=-1,0,1\n"
        "frame_a: x=-0.707106781186547,0,0.707106781186547 y=0,-1,0"
        " z=0.707106781186547,0,0.707106781186547\n"
        "frame_b: x=0.707106781186547,0,0.707106781186547 y=0,1,0"
        " z=-0.707106781186547,0,0.707106781186547\n"
        "bisector: 0,0,1\n"
        "sheet=+1: q=0,0,0,1 residual=0\n"
        "sheet=-1: q=0,0,0,-1 residual=0\n"
        "opposite_sheets_negate: true\n"
    )


def test_frames_golden_bytes():
    # bytes of the reports before momenta were rescaled by powers of two
    cases = {
        ("--pa", "0.3,0.4,0.5", "--pb=-0.3,0.7,0.5"): (
            "frames: pa=0.3,0.4,0.5 pb=-0.3,0.7,0.5\n"
            "frame_a: x=-0.847569456587386,0.522968388107111,0.0901669634667432"
            " y=-0.318788356531669,-0.637576713063338,0.701334384369672"
            " z=0.424264068711928,0.565685424949238,0.707106781186547\n"
            "frame_b: x=0.888785828419917,0.0559865088768452,0.454890384624367"
            " y=0.318788356531669,0.637576713063338,-0.701334384369672"
            " z=-0.329292779969071,0.768349819927832,0.548821299948452\n"
            "bisector: 0.0517646959628776,0.727124268491282,0.684551469520655\n"
            "sheet=+1: q=0,0.0517646959628777,0.727124268491282,0.684551469520655"
            " residual=4.15407418105522e-16\n"
            "sheet=-1: q=0,-0.0517646959628777,-0.727124268491282,-0.684551469520655"
            " residual=4.15407418105522e-16\n"
            "opposite_sheets_negate: true\n"
        ),
        ("--pa", "3e5,-2e5,1e5", "--pb=-1e-3,2e-3,5e-3"): (
            "frames: pa=300000,-200000,100000 pb=-0.001,0.002,0.005\n"
            "frame_a: x=-0.104828483672192,0.314485451016575,0.943456353049726"
            " y=-0.588348405414552,-0.784464540552736,0.196116135138184"
            " z=0.801783725737273,-0.534522483824849,0.267261241912424\n"
            "frame_b: x=0.787726361443376,-0.501280411827603,0.358057437019716"
            " y=0.588348405414552,0.784464540552736,-0.196116135138184"
            " z=-0.182574185835055,0.365148371670111,0.912870929175277\n"
            "bisector: 0.460914841855386,-0.126075321983129,0.878443237633641\n"
            "sheet=+1: q=0,0.460914841855386,-0.126075321983129,0.878443237633641"
            " residual=3.14018491736755e-16\n"
            "sheet=-1: q=0,-0.460914841855386,0.126075321983129,-0.878443237633641"
            " residual=3.14018491736755e-16\n"
            "opposite_sheets_negate: true\n"
        ),
    }
    for args, want in cases.items():
        r = run_cli("frames", *args)
        assert (r.returncode, r.stdout, r.stderr) == (0, want, "")


def test_frames_extreme_scales():
    unit = run_cli("frames", "--pa", "1,0,1", "--pb=-1,0,1").stdout.splitlines()
    r = run_cli("frames", "--pa", "1e200,0,1e200", "--pb=-1e200,0,1e200")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[1:] == unit[1:]
    r = run_cli("frames", "--pa", "1e-10,0,1e-10", "--pb=-1e-10,0,1e-10")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == (
        "frames: pa=1e-10,0,1e-10 pb=-1e-10,0,1e-10\n"
        "frame_a: x=-0.707106781186547,0,0.707106781186547 y=0,-1,0"
        " z=0.707106781186548,0,0.707106781186548\n"
        "frame_b: x=0.707106781186547,0,0.707106781186547 y=0,1,0"
        " z=-0.707106781186548,0,0.707106781186548\n"
        "bisector: 0,0,1\n"
        "sheet=+1: q=0,0,0,1 residual=0\n"
        "sheet=-1: q=0,0,0,-1 residual=0\n"
        "opposite_sheets_negate: true\n"
    )
    # 2e-200 short of antiparallel, and a zero momentum: both collinear
    for args in (
        ("--pa", "1e200,0,1", "--pb=-1e200,0,1"),
        ("--pa", "0,0,0", "--pb=-1,0,1"),
    ):
        r = run_cli("frames", *args)
        assert (r.returncode, r.stdout) == (2, ""), args
        assert r.stderr == "helicity frame undefined for collinear momenta\n"


def test_frames_swapped_arguments_swap_frames():
    fwd = run_cli("frames", "--pa", "1,0,1", "--pb=-1,0,1").stdout.splitlines()
    rev = run_cli("frames", "--pa=-1,0,1", "--pb", "1,0,1").stdout.splitlines()
    assert fwd[1].removeprefix("frame_a:") == rev[2].removeprefix("frame_b:")
    assert fwd[2].removeprefix("frame_b:") == rev[1].removeprefix("frame_a:")
    assert fwd[3] == rev[3]  # bisector does not depend on the order


def test_byte_determinism():
    for args in (
        ("dmatrix", "--s2", "3", "--axis", "0.1,0.9,-0.2", "--angle", "2.1"),
        ("frames", "--pa", "0.3,0.4,0.5", "--pb=-0.3,0.7,0.5"),
        ("impossibility", "--n", "6"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_collinear_momenta_exit_2():
    r = run_cli("frames", "--pa", "0,0,1", "--pb", "0,0,2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "helicity frame undefined for collinear momenta\n"


def test_input_errors_exit_2():
    checks = (
        ("dmatrix", "--s2", "13", "--axis", "0,0,1", "--angle", "1.0"),
        ("dmatrix", "--s2", "-1", "--axis", "0,0,1", "--angle", "1.0"),
        ("dmatrix", "--s2", "1", "--axis", "1,2", "--angle", "1.0"),
        ("dmatrix", "--s2", "1", "--axis", "0,0,0", "--angle", "1.0"),
        ("dmatrix", "--s2", "1", "--axis", "0,0,1", "--angle", "nan"),
        ("dmatrix", "--s2", "1", "--axis", "nan,0,0", "--angle", "1.0"),
        ("dmatrix", "--s2", "1", "--axis", "1,-inf,0", "--angle", "1.0"),
        ("impossibility", "--n", "1"),
        ("impossibility", "--n", "25"),
        ("frames", "--pa", "nan,0,1", "--pb=-1,0,1"),
        ("frames", "--pa", "inf,0,1", "--pb=-1,0,1"),
        ("frames", "--pa", "1,0,1", "--pb=-1,-inf,1"),
    )
    for args in checks:
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")


def test_argparse_rejections_exit_2():
    r = run_cli("exchange", "--sa2", "1", "--sb2", "1", "--case", "sideways")
    assert r.returncode == 2
    r = run_cli("exclusion")
    assert r.returncode == 2
    r = run_cli("nonsense")
    assert r.returncode == 2


def test_out_file_matches_stdout(tmp_path):
    direct = run_cli("exclusion", "--s2", "3")
    target = tmp_path / "report.txt"
    redirected = run_cli("exclusion", "--s2", "3", "--out", str(target))
    assert redirected.returncode == 0
    assert redirected.stdout == ""
    assert target.read_text() == direct.stdout


def test_unwritable_out_exit_2(tmp_path):
    target = tmp_path / "missing" / "report.txt"
    r = run_cli("exclusion", "--s2", "3", "--out", str(target))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_rejected_input_leaves_an_existing_out_file_unchanged(tmp_path, monkeypatch):
    # the file is opened only once the report is rendered
    target = tmp_path / "report.txt"
    target.write_text("earlier report\n")
    for args, err in (
        (("exclusion", "--s2", "99"), "error: 2s=99 exceeds supported maximum 12\n"),
        (("frames", "--pa", "1,0,0", "--pb", "2,0,0"),
         "helicity frame undefined for collinear momenta\n"),
    ):
        r = run_cli(*args, "--out", str(target))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", err), args
        assert target.read_text() == "earlier report\n"
    # a failed claim is no input error: its report is still written
    monkeypatch.setattr(antisym_checker, "n2_only_pattern", lambda rows: False)
    assert cli.main(["impossibility", "--n", "3", "--out", str(target)]) == 1
    assert target.read_text() == (
        "N=2 satisfiable=true witnesses=2\nN=3 satisfiable=false witnesses=0\n"
    )


def test_run_writes_everything_before_it_skips_teardown(tmp_path):
    # run() leaves by os._exit, so nothing buffered may be left behind: the
    # longest report, in full, through a pipe and through --out
    args = ("dmatrix", "--s2", "12", "--axis", "0.1,0.9,-0.2", "--angle", "2.1")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(args)) == 0
    want = buf.getvalue()
    assert len(want.splitlines()) == 2 + 13 * 13
    assert run_cli(*args).stdout == want
    target = tmp_path / "report.txt"
    r = run_cli(*args, "--out", str(target))
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")
    assert target.read_text() == want
    # the other subprocess tests here pin exits 2 and 141 through run();
    # argparse's own exit takes the normal way out
    r = run_cli("--help")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.startswith("usage: spinframes")
    # a failed claim exits 1 with its report, and the atexit hook shows
    # that the interpreter was not torn down
    script = """
import atexit, sys
import spinframes.antisym_checker as checker
from spinframes import cli
checker.n2_only_pattern = lambda rows: False
atexit.register(print, "teardown ran", file=sys.stderr)
sys.argv = ["spinframes", "impossibility", "--n", "3"]
cli.run()
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (
        1, "N=2 satisfiable=true witnesses=2\nN=3 satisfiable=false witnesses=0\n", ""
    )


# The spinframes modules each subcommand loads, cli and exactnum included.
LOADED = {
    ("exclusion", "--s2", "3"): ["cli", "exactnum"],
    ("impossibility", "--n", "4"): ["antisym_checker", "cli", "exactnum"],
    ("dmatrix", "--s2", "3", "--axis", "0,0,1", "--angle", "1"):
        ["cli", "exactnum", "rotations", "wigner"],
    ("frames", "--pa", "1,0,1", "--pb=-1,0,1"): ["cli", "exactnum", "frames", "rotations"],
    ("exchange", "--sa2", "1", "--sb2", "2", "--case", "first"):
        ["cli", "exactnum", "frames", "rotations", "states", "wigner"],
}


def test_each_subcommand_loads_only_its_own_modules():
    script = """
import contextlib, io, sys
from spinframes import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m.split(".")[1] for m in sys.modules if m.startswith("spinframes.")))
"""
    for args, modules in LOADED.items():
        r = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True
        )
        assert (r.returncode, r.stderr) == (0, ""), args
        assert r.stdout.split() == ["0", *modules], args


def test_closed_pipe_exits_quietly_and_claims_nothing():
    # a reader gone before the first byte, as under `| head -1`: no traceback,
    # and an exit code that is neither success, a failed claim nor bad input
    for args in (
        ("dmatrix", "--s2", "12", "--axis", "0,0,1", "--angle", "1"),
        ("exclusion", "--s2", "3"),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "spinframes", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (141, "")


def test_exchange_claim_failure_exits_1(monkeypatch, capsys):
    real = states.exchange_order_dependent

    def second_with_the_wrong_sign(ordered, case):
        state, phase = real(ordered, case)
        return (state.scaled(-1) if case is ExchangeCase.SECOND else state), phase

    monkeypatch.setattr(states, "exchange_order_dependent", second_with_the_wrong_sign)
    for sa2, sb2 in (("1", "2"), ("1", "1"), ("2", "2")):
        code = cli.main(["exchange", "--sa2", sa2, "--sb2", sb2, "--case", "first"])
        assert code == 1
        assert capsys.readouterr() == ("case discrepancy check failed\n", "")


def test_impossibility_claim_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(antisym_checker, "n2_only_pattern", lambda rows: False)
    assert cli.main(["impossibility", "--n", "3"]) == 1
    # the report itself is written; only the claim on it fails
    assert capsys.readouterr() == (
        "N=2 satisfiable=true witnesses=2\nN=3 satisfiable=false witnesses=0\n", ""
    )


def test_frames_claim_failure_exits_1(monkeypatch, capsys):
    real = frames.relative_rotation
    monkeypatch.setattr(
        frames, "relative_rotation", lambda frame, target, sheet: real(frame, target, 1)
    )
    assert cli.main(["frames", "--pa", "1,0,1", "--pb=-1,0,1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-3:] == [
        "sheet=+1: q=0,0,0,1 residual=0",
        "sheet=-1: q=0,0,0,1 residual=0",
        "opposite_sheets_negate: false",
    ]
