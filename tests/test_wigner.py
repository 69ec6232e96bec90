"""Spin-s rotation matrices and coupling coefficients against independent
oracles: the angle-based reduced-matrix sum formula, a per-entry loop over
the Cayley-Klein monomials, sympy's Wigner D and Clebsch-Gordan coefficients
where sympy is installed, a ladder-operator construction of the coupling
table, and Racah's sum in exact rational arithmetic."""

import cmath
import hashlib
import math
import random

import numpy as np
import pytest

from oracles import cayley_klein_D, ladder_cg_table, little_d, plan_kernel_D, racah_fraction
from spinframes import (
    EPS,
    IDENTITY,
    MAX_TWICE_SPIN,
    CGTable,
    FrameTag,
    ParticleDescriptor,
    TwiceSpin,
    UnitQuaternion,
    Vec3,
    clebsch_gordan,
    compose,
    exchange_symmetry_sign,
    exclusion_check,
    from_axis_angle,
    half_turn,
    m_range,
    order_dependence_phase,
    rotate_sqf,
    total_spins,
    wigner_D,
)
from spinframes.wigner import _evaluate, _racah
from util import rand_quaternion, rand_unit_vec

YHAT = Vec3(0.0, 1.0, 0.0)
ZHAT = Vec3(0.0, 0.0, 1.0)


def test_identity_matrix_spin_half():
    mat = wigner_D(TwiceSpin(1), IDENTITY)
    assert np.allclose(mat.entries, np.eye(2), atol=1e-15)


def test_full_turn_signs():
    q = from_axis_angle(ZHAT, 2.0 * math.pi)
    half = wigner_D(TwiceSpin(1), q)
    assert np.abs(half.entries + np.eye(2)).max() < EPS
    one = wigner_D(TwiceSpin(2), q)
    assert np.abs(one.entries - np.eye(3)).max() < EPS


def test_y_rotation_matches_little_d_oracle():
    for ts in range(0, MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        order = m_range(s)
        for beta in (0.3, 1.1, 2.5, -0.7, 3.9):
            mat = wigner_D(s, from_axis_angle(YHAT, beta))
            for i, tmp in enumerate(order):
                for j, tm in enumerate(order):
                    got = mat.entries[i, j]
                    assert abs(got.imag) < EPS
                    assert abs(got.real - little_d(ts, tmp, tm, beta)) < EPS


def test_z_rotation_phases():
    # diagonal exp(-i m alpha): the phase convention everything else rests on
    for ts in (1, 2, 3, 4):
        s = TwiceSpin(ts)
        alpha = 0.9
        mat = wigner_D(s, from_axis_angle(ZHAT, alpha))
        for i, m in enumerate(m_range(s)):
            want = cmath.exp(-0.5j * m * alpha)
            assert abs(mat.entry(m, m) - want) < EPS
            for j, mc in enumerate(m_range(s)):
                if i != j:
                    assert abs(mat.entries[i, j]) < EPS


def test_matches_per_entry_loop_oracle():
    rng = random.Random(20)
    for ts in range(0, MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        for _ in range(5):
            q = rand_quaternion(rng)
            want = cayley_klein_D(ts, *q.components())
            assert np.abs(wigner_D(s, q).entries - want).max() < EPS


def kernel_test_rotations(rng):
    """Random rotations, rotations by 0, pi/2, pi and 2 pi about each axis,
    both sheets of the half-turn about each axis and a random one, and the
    quaternions +-1 on one component with zeros of either sign elsewhere,
    whose Cayley-Klein factors and powers carry signed zeros (-0.0 - 1j
    among them, whose first power 1 * x has the real part +0.0)."""
    axes = [Vec3(1.0, 0.0, 0.0), YHAT, ZHAT]
    qs = [rand_quaternion(rng) for _ in range(6)]
    qs += [
        from_axis_angle(k, angle)
        for k in axes
        for angle in (0.0, math.pi / 2.0, math.pi, 2.0 * math.pi)
    ]
    qs += [half_turn(k, sheet) for k in axes + [rand_unit_vec(rng)] for sheet in (1, -1)]
    qs += [
        UnitQuaternion(*(one if i == k else zero for i in range(4)))
        for k in range(4)
        for one in (1.0, -1.0)
        for zero in (0.0, -0.0)
    ]
    qs += [UnitQuaternion(-0.0, 0.0, -1.0, -0.0), UnitQuaternion(0.0, -0.0, -0.0, 1.0), -IDENTITY]
    return qs


def test_evaluator_is_bit_equal_to_the_plan_kernel():
    # tobytes, so that signed zeros count: the whole matrix carries the bits
    # of the plan kernel
    rng = random.Random(25)
    for ts in range(MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        for q in kernel_test_rotations(rng):
            want = plan_kernel_D(ts, *q.components())
            assert wigner_D(s, q).entries.tobytes() == want.tobytes()
            assert _evaluate(s, q).tobytes() == want.tobytes()


def test_rotate_sqf_is_bit_equal_to_a_column_of_the_plan_kernel():
    # every column pair assembly reads, signed zeros included
    rng = random.Random(26)
    p = Vec3(0.0, 0.0, 1.0)
    for ts in range(MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        for q in kernel_test_rotations(rng):
            want = plan_kernel_D(ts, *q.components())
            for index, tm in enumerate(m_range(s)):
                desc = ParticleDescriptor(
                    Q="u", p=p, s=s, m=tm, base=FrameTag.CANONICAL, R_BS=IDENTITY
                )
                column = rotate_sqf(desc, q)
                assert column.shape == (s.dim,)
                assert column.tobytes() == np.ascontiguousarray(want[:, index]).tobytes()


def test_evaluator_checks_the_spin():
    big = TwiceSpin(MAX_TWICE_SPIN + 1)
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        _evaluate(big, IDENTITY)


def test_spin_entry_points_name_a_spin_that_is_not_a_twice_spin():
    calls = (
        lambda v: wigner_D(v, IDENTITY),
        lambda v: CGTable(v, v),
        lambda v: CGTable(TwiceSpin(1), v),
        lambda v: clebsch_gordan(v, v, 1, 1, TwiceSpin(2), 2),
        exclusion_check,
        lambda v: order_dependence_phase([1], [v]),
        lambda v: order_dependence_phase([1, 1], [TwiceSpin(1), v]),
    )
    for call in calls:
        for bad in (1, 1.0):
            with pytest.raises(TypeError) as got:
                call(bad)
            assert str(got.value) == f"spin must be a TwiceSpin, got {bad!r}"


def test_double_cover_sign_random():
    # exact, not within a tolerance: every term is a degree-2s monomial
    rng = random.Random(21)
    for ts in range(0, MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        sign = (-1) ** ts
        for _ in range(30):
            q = rand_quaternion(rng)
            a = wigner_D(s, -q).entries
            b = sign * wigner_D(s, q).entries
            assert np.array_equal(a, b)


def test_returned_entries_are_not_shared():
    rng = random.Random(24)
    for ts in (0, 1, 4, MAX_TWICE_SPIN):
        s = TwiceSpin(ts)
        q = rand_quaternion(rng)
        first = wigner_D(s, q).entries
        want = first.copy()
        first[...] = 7.0
        second = wigner_D(s, q).entries
        assert np.array_equal(second, want)
        assert not np.shares_memory(first, second)


def test_matches_sympy_zyz_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum.spin import Rotation

    alpha, beta, gamma = 0.4, 1.3, -2.2
    q = compose(
        from_axis_angle(ZHAT, alpha),
        compose(from_axis_angle(YHAT, beta), from_axis_angle(ZHAT, gamma)),
    )
    for ts in (1, 5, 12):
        s = TwiceSpin(ts)
        mat = wigner_D(s, q)
        order = m_range(s)
        # a few entries only: each sympy entry costs tens of milliseconds
        for i, j in {(0, 0), (0, ts), (ts // 2, ts // 2), (1, ts - 1)}:
            want = Rotation.D(
                sympy.Rational(ts, 2),
                sympy.Rational(order[i], 2),
                sympy.Rational(order[j], 2),
                alpha,
                beta,
                gamma,
            ).doit()
            assert abs(mat.entries[i, j] - complex(want)) < EPS


def test_homomorphism_random():
    rng = random.Random(22)
    for ts in range(0, MAX_TWICE_SPIN + 1):
        s = TwiceSpin(ts)
        for _ in range(25):
            p = rand_quaternion(rng)
            q = rand_quaternion(rng)
            left = wigner_D(s, compose(p, q)).entries
            right = wigner_D(s, p).entries @ wigner_D(s, q).entries
            assert np.abs(left - right).max() < 1e-9


def test_unitarity_and_det_modulus():
    rng = random.Random(23)
    for ts in (1, 2, 3, 5):
        s = TwiceSpin(ts)
        for _ in range(20):
            mat = wigner_D(s, rand_quaternion(rng)).entries
            assert np.abs(mat @ mat.conj().T - np.eye(s.dim)).max() < 1e-10
            assert abs(abs(np.linalg.det(mat)) - 1.0) < 1e-10


def test_entry_accessor_and_m_order():
    s = TwiceSpin(2)
    mat = wigner_D(s, from_axis_angle(YHAT, 0.7))
    assert mat.m_order() == (2, 0, -2)
    top = s.component(2)
    bottom = s.component(-2)
    assert mat.entry(top, bottom) == pytest.approx(mat.entries[0, 2])
    with pytest.raises(ValueError):
        mat.entry(s.component(2), TwiceSpin(4).component(4))


def test_spin_bound():
    top, over = TwiceSpin(MAX_TWICE_SPIN), TwiceSpin(MAX_TWICE_SPIN + 1)
    wigner_D(top, IDENTITY)
    CGTable(top, top)
    with pytest.raises(ValueError, match="2s=13 exceeds supported maximum 12"):
        wigner_D(over, IDENTITY)
    for s1, s2 in ((over, top), (top, over), (TwiceSpin(0), over)):
        with pytest.raises(ValueError, match="2s=13 exceeds supported maximum 12"):
            CGTable(s1, s2)
        with pytest.raises(ValueError, match="2s=13 exceeds supported maximum 12"):
            clebsch_gordan(s1, s2, s1.twice, s2.twice, over, s1.twice + s2.twice)


def test_cg_frozen_values():
    half = TwiceSpin(1)
    zero = TwiceSpin(0)
    one = TwiceSpin(2)
    up, dn = half.component(1), half.component(-1)
    assert clebsch_gordan(half, half, up, dn, zero, zero.component(0)) == pytest.approx(
        0.7071067811865476, abs=1e-15
    )
    assert clebsch_gordan(half, half, dn, up, zero, zero.component(0)) == pytest.approx(
        -0.7071067811865476, abs=1e-15
    )
    assert clebsch_gordan(half, half, up, up, one, one.component(2)) == pytest.approx(1.0)
    assert clebsch_gordan(
        one, one, one.component(2), one.component(-2), one, one.component(0)
    ) == pytest.approx(0.7071067811865476, abs=1e-15)
    assert clebsch_gordan(
        one, one, one.component(-2), one.component(2), one, one.component(0)
    ) == pytest.approx(-0.7071067811865476, abs=1e-15)


def test_cg_against_ladder_oracle():
    for tj1, tj2 in ((1, 1), (2, 2), (1, 2), (3, 3), (2, 4), (3, 1), (4, 4), (6, 6)):
        s1, s2 = TwiceSpin(tj1), TwiceSpin(tj2)
        oracle = ladder_cg_table(tj1, tj2)
        for m1 in m_range(s1):
            for m2 in m_range(s2):
                tM = m1 + m2
                for tS in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    if abs(tM) > tS:
                        continue
                    S = TwiceSpin(tS)
                    got = clebsch_gordan(s1, s2, m1, m2, S, S.component(tM))
                    want = oracle[(m1, m2, tS, tM)]
                    assert abs(got - want) < 1e-12


def test_cg_selection_rules_and_errors():
    half = TwiceSpin(1)
    one = TwiceSpin(2)
    up = half.component(1)
    # M != m1 + m2 is zero, not an error
    assert clebsch_gordan(half, half, up, up, one, one.component(0)) == 0.0
    # triangle violation and parity mismatch between twice-labels raise one error
    with pytest.raises(ValueError, match=r"2S=4 is not a coupling of 2s1=1 and 2s2=1 \("):
        clebsch_gordan(half, half, up, up, TwiceSpin(4), TwiceSpin(4).component(2))
    with pytest.raises(ValueError, match=r"2S=1 is not a coupling of 2s1=1 and 2s2=1 \("):
        clebsch_gordan(
            half, half, up, half.component(-1), TwiceSpin(1), TwiceSpin(1).component(1)
        )
    # m invalid for its spin
    with pytest.raises(ValueError):
        clebsch_gordan(half, half, one.component(2), up, one, one.component(2))
    # an invalid S raises off the M = m1 + m2 diagonal too, from either door
    table = CGTable(half, half)
    dn = half.component(-1)
    for read in (table.coefficient, lambda *m_S_M: clebsch_gordan(half, half, *m_S_M)):
        for tm2, tS, tM in ((dn, 1, 1), (up, 4, 0)):
            with pytest.raises(
                ValueError, match=rf"2S={tS} is not a coupling of 2s1=1 and 2s2=1 \("
            ):
                read(up, tm2, TwiceSpin(tS), tM)


def test_cg_table_orthonormality_both_ways():
    for tj1, tj2 in ((1, 1), (2, 2), (1, 2), (3, 2)):
        s1, s2 = TwiceSpin(tj1), TwiceSpin(tj2)
        table = CGTable(s1, s2)
        labels = [(m1, m2) for m1 in m_range(s1) for m2 in m_range(s2)]
        couplings = [
            (S, S.component(tM))
            for S in map(TwiceSpin, total_spins(s1, s2))
            for tM in range(S.twice, -S.twice - 1, -2)
        ]
        # completeness over (S, M) for fixed product labels
        for m1, m2 in labels:
            for m1p, m2p in labels:
                acc = sum(
                    table.coefficient(m1, m2, S, M) * table.coefficient(m1p, m2p, S, M)
                    for S, M in couplings
                )
                want = 1.0 if (m1, m2) == (m1p, m2p) else 0.0
                assert abs(acc - want) < 1e-12
        # orthonormality over product labels for fixed couplings
        for S, M in couplings:
            for Sp, Mp in couplings:
                acc = sum(
                    table.coefficient(m1, m2, S, M) * table.coefficient(m1, m2, Sp, Mp)
                    for m1, m2 in labels
                )
                want = 1.0 if (S, M) == (Sp, Mp) else 0.0
                assert abs(acc - want) < 1e-12


def test_cg_table_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import clebsch_gordan as sympy_cg

    half = sympy.Rational(1, 2)
    for tj1, tj2 in ((1, 1), (2, 3), (3, 4), (8, 8)):
        s1, s2 = TwiceSpin(tj1), TwiceSpin(tj2)
        table = CGTable(s1, s2)
        labels = [(m1, m2) for m1 in m_range(s1) for m2 in m_range(s2)]
        checked = 0
        for row, (m1, m2) in enumerate(labels):
            for col, (S, M) in enumerate(table.channels):
                got = table.matrix[row, col]
                if M != m1 + m2:
                    assert got == 0.0
                    continue
                want = float(
                    sympy_cg(
                        tj1 * half, tj2 * half, S.twice * half,
                        m1 * half, m2 * half, M * half,
                    )
                )
                assert abs(got - want) <= EPS
                assert table.coefficient(m1, m2, S, M) == got
                checked += 1
        # every coefficient the pair has, once each
        assert checked == sum(
            1
            for m1, m2 in labels
            for S in map(TwiceSpin, total_spins(s1, s2))
            if abs(m1 + m2) <= S.twice
        )


def test_cg_matrix_is_orthogonal():
    for tj1 in range(7):
        for tj2 in range(7):
            c = CGTable(TwiceSpin(tj1), TwiceSpin(tj2)).matrix
            eye = np.eye(c.shape[0])
            assert c.shape == eye.shape
            assert np.abs(c.T @ c - eye).max() <= 1e-12
            assert np.abs(c @ c.T - eye).max() <= 1e-12


def test_cg_tables_are_pinned_bit_for_bit():
    # sha256 of every table's channel labels and little-endian matrix bytes,
    # 2s1, 2s2 in 0..12: a changed bit, channel order or layout changes it
    digest = hashlib.sha256()
    for tj1 in range(MAX_TWICE_SPIN + 1):
        for tj2 in range(MAX_TWICE_SPIN + 1):
            t = CGTable(TwiceSpin(tj1), TwiceSpin(tj2))
            digest.update(repr([(S.twice, tM) for S, tM in t.channels]).encode())
            digest.update(t.matrix.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "32f4e7fd015a7eff719c95ecb111e658ddcb8251bafc687248897f48146a70a2"
    )


def test_integer_racah_sum_equals_the_exact_rational_one_bit_for_bit():
    # every valid label with 2s1, 2s2 <= 12: the integer sum over one common
    # denominator and the sum of exact fractions round to the same float
    count = 0
    for tj1 in range(MAX_TWICE_SPIN + 1):
        for tj2 in range(MAX_TWICE_SPIN + 1):
            s1, s2 = TwiceSpin(tj1), TwiceSpin(tj2)
            for tS in total_spins(s1, s2):
                for tm1 in m_range(s1):
                    for tm2 in m_range(s2):
                        if abs(tm1 + tm2) <= tS:
                            got = _racah(tj1, tj2, tS, tm1, tm2)
                            assert got.hex() == racah_fraction(tj1, tj2, tS, tm1, tm2).hex()
                            count += 1
    assert count == 45045


def test_clebsch_gordan_reads_the_table():
    # every valid label of every pair up to 2s = 6, on and off the diagonal
    for tj1 in range(7):
        for tj2 in range(7):
            s1, s2 = TwiceSpin(tj1), TwiceSpin(tj2)
            table = CGTable(s1, s2)
            for m1 in m_range(s1):
                for m2 in m_range(s2):
                    for S in map(TwiceSpin, total_spins(s1, s2)):
                        for tM in m_range(S):
                            got = clebsch_gordan(s1, s2, m1, m2, S, tM)
                            assert got == table.coefficient(m1, m2, S, tM)


def test_cg_column_is_the_channel_index():
    # the column that the channel layout fixes is the one a scan finds
    for tj1 in range(MAX_TWICE_SPIN + 1):
        for tj2 in range(MAX_TWICE_SPIN + 1):
            table = CGTable(TwiceSpin(tj1), TwiceSpin(tj2))
            for col, (S, tM) in enumerate(table.channels):
                assert table._column(S, tM) == table.channels.index((S, tM)) == col


def test_cg_table_is_read_only():
    table = CGTable(TwiceSpin(2), TwiceSpin(3))
    with pytest.raises(ValueError):
        table.matrix[0, 0] = 0.5


def test_cg_tables_of_one_pair_share_the_plan():
    s1, s2 = TwiceSpin(3), TwiceSpin(4)
    first, second = CGTable(s1, s2), CGTable(s1, s2)
    assert first.matrix is second.matrix
    assert first.channels is second.channels
    assert CGTable(s2, s1).matrix is not first.matrix


def test_cg_table_out_of_range_total_spin():
    table = CGTable(TwiceSpin(1), TwiceSpin(1))
    with pytest.raises(ValueError):
        table.coefficient(
            TwiceSpin(1).component(1),
            TwiceSpin(1).component(1),
            TwiceSpin(4),
            TwiceSpin(4).component(2),
        )


def test_exchange_symmetry_sign_examples():
    assert exchange_symmetry_sign(TwiceSpin(1), TwiceSpin(0)) == -1
    assert exchange_symmetry_sign(TwiceSpin(1), TwiceSpin(2)) == 1
    assert exchange_symmetry_sign(TwiceSpin(2), TwiceSpin(4)) == 1


def test_exchange_symmetry_sign_matches_direct_swap():
    for ts in range(1, 7):
        s = TwiceSpin(ts)
        oracle = ladder_cg_table(ts, ts)
        for tS in range(0, 2 * ts + 1, 2):
            S = TwiceSpin(tS)
            sign = exchange_symmetry_sign(s, S)
            assert sign == (-1) ** ((2 * ts - tS) // 2)
            seen = False
            for (tm1, tm2, tJ, tM), v in oracle.items():
                if tJ != tS or tm1 == tm2 or abs(v) < 1e-9:
                    continue
                assert abs(oracle[(tm2, tm1, tJ, tM)] - sign * v) < 1e-9
                seen = True
            if tS < 2 * ts:
                assert seen  # swap comparison actually exercised


def test_exchange_symmetry_sign_invalid():
    with pytest.raises(ValueError):
        exchange_symmetry_sign(TwiceSpin(1), TwiceSpin(1))  # odd total
    with pytest.raises(ValueError):
        exchange_symmetry_sign(TwiceSpin(1), TwiceSpin(4))  # beyond 2s
