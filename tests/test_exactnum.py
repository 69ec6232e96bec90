"""Doubled-integer spin labels, exact factorials, parity signs."""

import pytest

from spinframes import (
    N_FACT,
    TwiceSpin,
    factorial_exact,
    fmt15,
    m_range,
    neg_one_pow,
)


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
