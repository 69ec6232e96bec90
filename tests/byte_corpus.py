"""The byte contract: seeded corpora of CLI runs and pair-state texts, and
one digest per entry.

The CLI corpus holds every `exchange` argv set, seeded `dmatrix` and
`frames` sets with components from 2^-1000 to 2^1000, every supported
`exclusion` spin, a spread of `impossibility` sizes, and the error paths
(bad flags, non-finite values, nearly collinear momenta, an `--out` that is
a directory). Each argv runs in process through `cli.main`, in a scratch
working directory, and its digest covers the argv, stdout, stderr, the exit
code and what `--out` wrote.

The state corpus draws 400 seeded descriptor pairs and renders, for each,
the ordered, exchanged (both cases), permuted and matrix-built states
(`dump()`, `sort_key()` and `content_key()`), and the composite projection
(`report_lines()`) on the sheet route and on the pair route, where the
Clebsch-Gordan bits surface. An entry that raises renders its error
instead.

tests/test_byte_contract.py compares both corpora with the digests in
tests/data/byte_contract.json. A change that moves report bytes on purpose
regenerates that file, from the root of a checkout, with

    PYTHONPATH=src python tests/byte_corpus.py --write

and names the moved entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from spinframes import (
    ExchangeCase,
    FrameTag,
    OrderedDescription,
    ParticleDescriptor,
    TwiceSpin,
    Vec3,
    assemble_ordered,
    exchange_order_dependent,
    from_axis_angle,
    pair_state_from_matrix,
    project_composite,
    pure_permute,
)
from spinframes import cli

DATA = Path(__file__).resolve().parent / "data" / "byte_contract.json"
OUT_NAME = "out.txt"
CLI_SEED = 2601
STATE_SEED = 2602
N_PAIRS = 400


def _digest(payload: object) -> str:
    text = json.dumps(payload, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _wide_float(rng: random.Random) -> str:
    """A float's repr: zero one time in ten, else a signed mantissa in
    [0.5, 1) scaled by 2^e, e uniform in [-1000, 1000]."""
    if rng.random() < 0.1:
        return "0"
    return repr(math.ldexp(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0), rng.randint(-1000, 1000)))


def _gauss_vec(rng: random.Random, exponent: int) -> list[float]:
    return [math.ldexp(rng.gauss(0.0, 1.0), exponent) for _ in range(3)]


def _vec_text(v: list[float]) -> str:
    return ",".join(repr(x) for x in v)


def cli_argvs() -> list[list[str]]:
    """Every argv set of the CLI corpus, in a fixed order."""
    rng = random.Random(CLI_SEED)
    argvs = [
        ["exchange", "--sa2", str(a), "--sb2", str(b), "--case", case]
        for a in range(13)
        for b in range(13)
        for case in ("first", "second")
    ]
    for _ in range(300):
        axis = ",".join(_wide_float(rng) for _ in range(3))
        angle = repr(rng.choice((rng.uniform(-20.0, 20.0), math.ldexp(rng.uniform(-1, 1), rng.randint(-60, 60)))))
        argvs.append(["dmatrix", "--s2", str(rng.randrange(13)), f"--axis={axis}", f"--angle={angle}"])
    for i in range(300):
        e_a, e_b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        p_a = _gauss_vec(rng, e_a)
        if i % 25 == 0:
            # exactly collinear: p_b a signed power-of-two multiple of p_a
            p_b = [math.ldexp(rng.choice((-1, 1)) * x, e_b - e_a) for x in p_a]
        else:
            p_b = _gauss_vec(rng, e_b)
        argvs.append(["frames", f"--pa={_vec_text(p_a)}", f"--pb={_vec_text(p_b)}"])
    argvs += [["exclusion", "--s2", str(t)] for t in [*range(13), -1, 13, 99]]
    argvs += [["impossibility", "--n", str(n)] for n in (2, 3, 4, 7, 12, 20, 1, 21)]
    argvs += [
        # bad flags
        ["exclusion", "--s2", "x"],
        ["exclusion"],
        ["exclusion", "--s2", "3", "--bogus"],
        ["dmatrix", "--s2", "1", "--axis", "0,0,1", "--angle", "abc"],
        ["dmatrix", "--s2", "1", "--axis", "0,0", "--angle", "1"],
        ["dmatrix", "--s2", "1", "--axis", "0,0,0", "--angle", "1"],
        ["dmatrix", "--s2", "13", "--axis", "0,0,1", "--angle", "1"],
        ["exchange", "--sa2", "13", "--sb2", "1", "--case", "first"],
        ["exchange", "--sa2", "1", "--sb2", "-1", "--case", "second"],
        ["frames", "--pa", "1,0,0", "--pb", "a,0,1"],
        # non-finite values
        ["dmatrix", "--s2", "2", "--axis", "0,0,1", "--angle", "nan"],
        ["dmatrix", "--s2", "2", "--axis", "0,0,1", "--angle", "inf"],
        ["dmatrix", "--s2", "2", "--axis", "nan,0,1", "--angle", "1"],
        ["dmatrix", "--s2", "2", "--axis", "0,-inf,1", "--angle", "1"],
        ["dmatrix", "--s2", "2", "--axis", "1e308,1e308,1e308", "--angle", "1"],
        ["frames", "--pa", "inf,0,1", "--pb", "0,1,0"],
        ["frames", "--pa", "1,0,1", "--pb", "0,nan,0"],
        # nearly collinear momenta: directions about 1e-8 apart, and 1e-300 apart
        [
            "frames",
            "--pa=-0.2530210960357105,-0.3022294347264799,-0.9190417257914899",
            "--pb=-0.2530211128203417,-0.3022294356384742,-0.9190417423666852",
        ],
        ["frames", "--pa", "1,0,0", "--pb", "1,1e-300,0"],
        # without the --flag=value form argparse reads a leading minus as a
        # flag: a usage error, not the nearly antiparallel pair it spells
        ["frames", "--pa", "1,0,0", "--pb", "-1,1e-17,0"],
        # --out: written in full, or a directory that cannot be opened
        ["exclusion", "--s2", "3", "--out", OUT_NAME],
        ["impossibility", "--n", "5", "--out", OUT_NAME],
        ["dmatrix", "--s2", "1", "--axis", "0,1,0", "--angle", "1", "--out", OUT_NAME],
        ["exchange", "--sa2", "1", "--sb2", "1", "--case", "first", "--out", OUT_NAME],
        ["frames", "--pa", "1,0,1", "--pb=-1,0,1", "--out", OUT_NAME],
        ["exclusion", "--s2", "3", "--out", "."],
        ["frames", "--pa", "1,0,1", "--pb=-1,0,1", "--out", "."],
    ]
    return argvs


def cli_name(argv: list[str]) -> str:
    return " ".join(argv)


def render_cli(argv: list[str]) -> tuple[str, str, int, str | None]:
    """(stdout, stderr, exit code, --out text or None) of one in-process
    run, in the current working directory. An argparse exit keeps only its
    last stderr line: the usage text above it is argparse's own layout,
    which varies between Python versions."""
    if os.path.exists(OUT_NAME):
        os.remove(OUT_NAME)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            err = io.StringIO(err.getvalue().splitlines()[-1])
    written = None
    if os.path.exists(OUT_NAME):
        written = Path(OUT_NAME).read_text()
        os.remove(OUT_NAME)
    return out.getvalue(), err.getvalue(), code, written


def cli_digests() -> dict[str, str]:
    """name -> digest over the CLI corpus; run it in a scratch directory."""
    digests = {}
    for argv in cli_argvs():
        digests[cli_name(argv)] = _digest([argv, *render_cli(argv)])
    return digests


def _rotation(rng: random.Random):
    axis = Vec3(*(rng.gauss(0.0, 1.0) for _ in range(3)))
    return from_axis_angle(axis, rng.uniform(-4 * math.pi, 4 * math.pi))


def _descriptor(rng: random.Random, q: str, p: Vec3, s: TwiceSpin) -> ParticleDescriptor:
    return ParticleDescriptor(
        Q=q,
        p=p,
        s=s,
        m=rng.choice(range(-s.twice, s.twice + 1, 2)),
        base=rng.choice((FrameTag.HELICITY, FrameTag.CANONICAL)),
        R_BS=_rotation(rng),
    )


def _state_text(state) -> str:
    keys = [d.sort_key() for d in (state.desc_a, state.desc_b)]
    contents = [d.content_key() for d in (state.desc_a, state.desc_b)]
    return f"{state.dump()}sort_keys: {keys!r}\ncontent_keys: {contents!r}\n"


def _exchanged_text(result) -> str:
    state, phase = result
    return f"phase={phase:+d}\n{_state_text(state)}"


def _projections_text(state, r_a, r_b) -> str:
    routes = [1, -1, (r_a, r_b)]
    if state.desc_a.s == state.desc_b.s:
        routes.append((r_a, r_a))  # both slots read one D matrix
    lines = []
    for route in routes:
        lines.append(f"route {route!r}")
        lines += project_composite(state, route).report_lines()
    return "\n".join(lines) + "\n"


def state_texts() -> list[tuple[str, str]]:
    """(name, text) over the state corpus, in a fixed order. An entry whose
    construction or rendering raises renders the error instead."""
    rng = random.Random(STATE_SEED)
    texts = []

    def record(name, make, render=_state_text):
        try:
            value = make()
            texts.append((name, render(value)))
            return value
        except (ValueError, TypeError) as exc:
            texts.append((name, f"{type(exc).__name__}: {exc}\n"))
            return None

    for i in range(N_PAIRS):
        s_a, s_b = TwiceSpin(rng.randrange(7)), TwiceSpin(rng.randrange(7))
        p_a = Vec3(*(rng.gauss(0.0, 1.0) for _ in range(3)))
        kind = rng.randrange(4)
        if kind == 0:
            # identical content: one Q, one momentum, one spin
            d1 = _descriptor(rng, "u", p_a, s_a)
            d2 = _descriptor(rng, "u", p_a, s_a)
        else:
            p_b = Vec3(*(rng.gauss(0.0, 1.0) for _ in range(3)))
            d1 = _descriptor(rng, "u" if kind == 1 else "a", p_a, s_a)
            d2 = _descriptor(rng, "u" if kind == 1 else "b", p_b, s_b)
        matrix = np.array(
            [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d2.s.dim)]
             for _ in range(d1.s.dim)]
        )
        r_a, r_b = _rotation(rng), _rotation(rng)
        name = f"pair{i:03d}"
        ordered = OrderedDescription([d1, d2])
        base = record(f"{name}/ordered", lambda: assemble_ordered(ordered))
        for case in ExchangeCase:
            record(
                f"{name}/{case.value.lower()}",
                lambda: exchange_order_dependent(ordered, case),
                _exchanged_text,
            )
        if base is not None:
            record(f"{name}/permuted", lambda: pure_permute(base))
        built = record(f"{name}/matrix", lambda: pair_state_from_matrix(d1, d2, matrix))
        for label, state in (("ordered", base), ("matrix", built)):
            if state is not None:
                record(f"{name}/composite/{label}", lambda: state, lambda st: _projections_text(st, r_a, r_b))
    return texts


def state_digests() -> dict[str, str]:
    return {name: _digest(text) for name, text in state_texts()}


def load() -> dict[str, dict[str, str]]:
    return json.loads(DATA.read_text())


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: PYTHONPATH=src python tests/byte_corpus.py --write", file=sys.stderr)
        return 2
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            data = {"cli": cli_digests(), "states": state_digests()}
        finally:
            os.chdir(here)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=0) + "\n")
    print(f"wrote {len(data['cli'])} CLI and {len(data['states'])} state digests to {DATA}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
