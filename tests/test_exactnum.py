"""Doubled-integer spin labels, exact factorials, parity signs, and the
coupling sign rules that live with them."""

import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinframes
from spinframes import (
    MAX_TWICE_SPIN,
    CGTable,
    TwiceSpin,
    Vec3,
    half_turn,
    m_range,
    order_dependence_phase,
    total_spins,
)
from spinframes.exactnum import N_FACT, factorial_exact, float_bits, fmt15, fmt15_join, neg_one_pow
from spinframes.exactnum import _show, fmt15_complex
from spinframes import cli, composite, exactnum, states


def test_twice_spin_parity_flags():
    assert TwiceSpin(1).is_halfon()
    assert not TwiceSpin(1).is_fullon()
    assert TwiceSpin(2).is_fullon()
    assert TwiceSpin(0).is_fullon()
    assert TwiceSpin(3).is_halfon()


def test_twice_spin_rejects_negative_and_nonint():
    with pytest.raises(ValueError):
        TwiceSpin(-1)
    with pytest.raises(TypeError):
        TwiceSpin(1.5)
    with pytest.raises(TypeError):
        TwiceSpin(True)


def test_component_validates_range_and_parity():
    s = TwiceSpin(3)
    assert s.component(3) == 3
    assert s.component(-1) == -1
    with pytest.raises(ValueError):
        s.component(5)
    with pytest.raises(ValueError):
        s.component(2)  # wrong parity for half-integer spin
    with pytest.raises(TypeError):
        s.component(1.0)
    with pytest.raises(TypeError):
        s.component(True)


def test_dim():
    assert TwiceSpin(0).dim == 1
    assert TwiceSpin(1).dim == 2
    assert TwiceSpin(4).dim == 5


def test_str_forms():
    assert str(TwiceSpin(1)) == "1/2"
    assert str(TwiceSpin(4)) == "2"


def test_factorial_small_values():
    assert factorial_exact(0) == 1
    assert factorial_exact(1) == 1
    assert factorial_exact(5) == 120


def test_factorial_20_against_iterated_product():
    acc = 1
    for i in range(1, 21):
        acc *= i
    assert acc == 2432902008176640000
    assert factorial_exact(20) == acc


def test_factorial_recurrence():
    for n in range(0, N_FACT):
        assert factorial_exact(n + 1) == (n + 1) * factorial_exact(n)


def test_factorial_bounds():
    factorial_exact(N_FACT)  # at the bound is fine
    with pytest.raises(ValueError):
        factorial_exact(N_FACT + 1)
    with pytest.raises(ValueError):
        factorial_exact(-1)
    with pytest.raises(TypeError):
        factorial_exact(2.0)


def test_m_range_descending():
    assert m_range(TwiceSpin(1)) == [1, -1]
    assert m_range(TwiceSpin(0)) == [0]
    assert m_range(TwiceSpin(4)) == [4, 2, 0, -2, -4]


def test_m_range_reaches_the_largest_total_spin_of_a_supported_pair():
    # the coupling of two spin-6 particles lists channels up to 2S = 24
    top = TwiceSpin(2 * MAX_TWICE_SPIN)
    assert m_range(top) == list(range(24, -25, -2))
    assert CGTable(TwiceSpin(MAX_TWICE_SPIN), TwiceSpin(MAX_TWICE_SPIN)).channels[-1] == (top, -24)
    with pytest.raises(ValueError, match=r"^2s=25 exceeds 24"):
        m_range(TwiceSpin(25))


def test_show_is_repr_and_cannot_raise():
    assert _show(1.5, -0.0, float("inf"), 3) == "1.5,-0.0,inf,3"
    assert _show((1, "a")) == "(1, 'a')"
    giant = 10**5000
    assert _show(giant) == f"<int of {giant.bit_length()} bits>"
    assert _show(-giant, 2.0) == f"<int of {giant.bit_length()} bits>,2.0"
    assert _show((giant, 0)) == "<tuple holding an int too large to show>"
    assert str(TwiceSpin(2 * giant)) == f"<int of {giant.bit_length()} bits>"


def test_neg_one_pow_values():
    assert neg_one_pow(1) == -1
    assert neg_one_pow(2) == 1
    assert neg_one_pow(3) == -1  # 2s for twice=3
    assert neg_one_pow(0) == 1
    assert neg_one_pow(-3) == -1


def test_neg_one_pow_involution():
    for k in range(-100, 101):
        assert neg_one_pow(k) * neg_one_pow(k) == 1


def test_neg_one_pow_rejects_nonint():
    with pytest.raises(TypeError):
        neg_one_pow(1.0)


def test_fmt15_deterministic_and_normalizes_negative_zero():
    assert fmt15(-0.0) == "0"
    assert fmt15(0.5) == "0.5"
    assert fmt15(2.0 / 3.0) == "0.666666666666667"


def test_fmt15_join_is_fmt15_comma_joined():
    assert fmt15_join((1.0, -0.0, 2.0 / 3.0)) == "1,0,0.666666666666667"
    assert fmt15_join((0.5, -1e-300, 1e300, -2.5)) == "0.5,-1e-300,1e+300,-2.5"
    assert fmt15_join(()) == ""


def test_fmt15_complex_is_the_amplitude_text():
    # each part through fmt15, so a signed zero prints as 0 in either place
    for v, want in (
        (complex(-0.0, -0.0), "0 0"),
        (complex(0.0, -0.0), "0 0"),
        (complex(-0.0, 0.5), "0 0.5"),
        (complex(-1.5, -0.0), "-1.5 0"),
        (complex(2.0 / 3.0, -1e-300), "0.666666666666667 -1e-300"),
        (complex(1e300, -2.5), "1e+300 -2.5"),
    ):
        assert fmt15_complex(v) == want
        assert fmt15_complex(v) == f"{fmt15(v.real)} {fmt15(v.imag)}"
    # numpy's complex scalars and plain floats read the same
    assert fmt15_complex(np.complex128(-0.0 - 0.25j)) == "0 -0.25"
    assert fmt15_complex(-0.0) == "0 0"


def test_float_bits_are_the_uint64_patterns_and_part_signed_zeros():
    values = (0.0, -0.0, 1.0, -5e-324, 1e300, math.inf, -math.inf, 2.0 / 3.0)
    for n in (3, 4, 7):
        for start in range(len(values) - n + 1):
            part = values[start:start + n]
            want = tuple(struct.unpack("<Q", struct.pack("<d", x))[0] for x in part)
            assert float_bits(part) == want
    assert float_bits((0.0, 1.0, 2.0, 3.0)) != float_bits((-0.0, 1.0, 2.0, 3.0))
    assert float_bits((1, 0, -2, 0)) == float_bits((1.0, 0.0, -2.0, 0.0))


def test_index_is_the_position_in_m_range():
    for ts in range(MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        order = m_range(s)
        for tm in order:
            assert s.index(tm) == order.index(tm)
        for bad in (ts + 2, -ts - 2, ts + 1, ts - 1, 1.0, True, None):
            with pytest.raises((TypeError, ValueError)) as want:
                s.component(bad)
            with pytest.raises((TypeError, ValueError)) as got:
                s.index(bad)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


def test_total_spins_is_the_triangle_rule():
    for t1 in range(MAX_TWICE_SPIN + 1):
        for t2 in range(MAX_TWICE_SPIN + 1):
            want = [
                t
                for t in range(2 * MAX_TWICE_SPIN + 1)
                if abs(t1 - t2) <= t <= t1 + t2 and (t1 + t2 - t) % 2 == 0
            ]
            assert list(total_spins(TwiceSpin(t1), TwiceSpin(t2))) == want


def test_int_checks_name_their_argument():
    calls = (
        (TwiceSpin, "twice-spin"),
        (TwiceSpin(1).component, "twice-m"),
        (TwiceSpin(1).index, "twice-m"),
        (factorial_exact, "factorial argument"),
        (neg_one_pow, "exponent"),
        (lambda v: order_dependence_phase([v], [TwiceSpin(1)]), "turn count"),
        (lambda v: half_turn(Vec3(0.0, 0.0, 1.0), v), "sheet"),
    )
    for call, what in calls:
        for bad in (True, 1.0, "1", None):
            with pytest.raises(TypeError) as got:
                call(bad)
            assert str(got.value) == f"{what} must be an int, got {bad!r}"


def test_moved_names_are_one_object_everywhere():
    # the benchmark tracer rebinds a function wherever the same object is bound
    bound = {
        composite: ("pseudo_antisymmetry_sign", "exclusion_check"),
        cli: ("exclusion_check",),
        states: ("order_dependence_phase",),
    }
    for module, names in bound.items():
        for name in names:
            assert getattr(module, name) is getattr(exactnum, name)
            assert getattr(spinframes, name) is getattr(exactnum, name)


def test_exactnum_loads_alone_without_numpy():
    path = Path(__file__).resolve().parents[1] / "src" / "spinframes" / "exactnum.py"
    script = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("exactnum", {str(path)!r})
mod = importlib.util.module_from_spec(spec)
sys.modules["exactnum"] = mod
spec.loader.exec_module(mod)
allowed = mod.exclusion_check(mod.TwiceSpin(3))
assert allowed == {{mod.TwiceSpin(0), mod.TwiceSpin(4)}}, allowed
print("numpy" in sys.modules)
"""
    run = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
