"""Composite-spin projection, the even-S exclusion rule, and commuting
families of subset spin operators."""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from spinframes import (
    EPS,
    IDENTITY,
    CGTable,
    FrameTag,
    ParticleDescriptor,
    TwiceSpin,
    UnitQuaternion,
    Vec3,
    bisector_axis,
    build_pair_spin_operator,
    exchange_symmetry_sign,
    exclusion_check,
    half_turn,
    max_commuting_pairset,
    order_dependence_phase,
    pair_state_from_matrix,
    project_composite,
    pseudo_antisymmetrize,
    pseudo_antisymmetry_sign,
    wigner_D,
)
from spinframes import composite
from oracles import max_pairwise_commuting, plan_kernel_D, project_composite_loop
from util import figure_pair, rand_quaternion

HALF = TwiceSpin(1)
ONE = TwiceSpin(2)


def slot_pair(ts_a: int, ts_b: int):
    """Distinct-content slot handles on a mirrored momentum pair."""
    p_a, p_b = figure_pair(math.pi / 4.0)
    sa, sb = TwiceSpin(ts_a), TwiceSpin(ts_b)
    da = ParticleDescriptor(
        Q="a", p=p_a, s=sa, m=sa.component(sa.twice), base=FrameTag.CANONICAL, R_BS=IDENTITY
    )
    db = ParticleDescriptor(
        Q="b", p=p_b, s=sb, m=sb.component(sb.twice), base=FrameTag.CANONICAL, R_BS=IDENTITY
    )
    return da, db


def rand_matrix(rng, rows, cols):
    return np.array(
        [
            [rng.gauss(0.0, 1.0) + 1j * rng.gauss(0.0, 1.0) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def eig_multiset(matrix, digits=9):
    return Counter(round(float(x), digits) for x in np.linalg.eigvalsh(matrix))


def test_stretched_pair_all_weight_at_top():
    da, db = slot_pair(1, 1)
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 0] = 1.0  # both helicities at +1/2
    state = pair_state_from_matrix(da, db, mat)
    proj = project_composite(state, (IDENTITY, IDENTITY))
    assert abs(proj.amplitude(ONE, ONE.component(2)) - 1.0) < EPS
    assert abs(proj.weight(ONE) - 1.0) < EPS
    assert proj.weight(TwiceSpin(0)) < EPS
    assert abs(proj.total_weight() - 1.0) < EPS


def test_pseudo_antisymmetrized_halfons_couple_to_singlet_only():
    rng = random.Random(51)
    da, db = slot_pair(1, 1)
    for _ in range(20):
        psi = pseudo_antisymmetrize(rand_matrix(rng, 2, 2), HALF)
        state = pair_state_from_matrix(da, db, psi)
        proj = project_composite(state, (IDENTITY, IDENTITY))
        assert proj.weight(ONE) < 1e-12
        assert abs(proj.weight(TwiceSpin(0)) - 1.0) < 1e-12


def test_symmetric_spin1_pair_has_no_odd_channel():
    rng = random.Random(52)
    da, db = slot_pair(2, 2)
    for _ in range(20):
        psi = pseudo_antisymmetrize(rand_matrix(rng, 3, 3), ONE)
        state = pair_state_from_matrix(da, db, psi)
        proj = project_composite(state, (IDENTITY, IDENTITY))
        assert proj.weight(ONE) < 1e-12
        assert abs(proj.weight(TwiceSpin(0)) + proj.weight(TwiceSpin(4)) - 1.0) < 1e-12


def test_projection_is_unitary():
    rng = random.Random(53)
    for ts_a, ts_b in ((1, 1), (2, 2), (1, 2), (3, 2), (2, 4)):
        da, db = slot_pair(ts_a, ts_b)
        mat = rand_matrix(rng, da.s.dim, db.s.dim)
        mat = mat / np.linalg.norm(mat)
        state = pair_state_from_matrix(da, db, mat)
        proj = project_composite(state, (rand_quaternion(rng), rand_quaternion(rng)))
        assert abs(proj.total_weight() - 1.0) < 1e-10


def test_channel_weights_invariant_under_simultaneous_rotation():
    rng = random.Random(54)
    for ts_a, ts_b in ((1, 1), (2, 2), (1, 4)):
        da, db = slot_pair(ts_a, ts_b)
        mat = rand_matrix(rng, da.s.dim, db.s.dim)
        mat = mat / np.linalg.norm(mat)
        state = pair_state_from_matrix(da, db, mat)
        base = project_composite(state, (IDENTITY, IDENTITY))
        for _ in range(5):
            r = rand_quaternion(rng)
            turned = project_composite(state, (r, r))
            for tS in range(abs(ts_a - ts_b), ts_a + ts_b + 1, 2):
                S = TwiceSpin(tS)
                assert abs(turned.weight(S) - base.weight(S)) < 1e-10


def test_sheet_route_matches_explicit_half_turn():
    rng = random.Random(55)
    for ts_a, ts_b in ((1, 1), (0, 3), (2, 1), (3, 4), (6, 5)):
        da, db = slot_pair(ts_a, ts_b)
        mat = rand_matrix(rng, da.s.dim, db.s.dim)
        mat = mat / np.linalg.norm(mat)
        state = pair_state_from_matrix(da, db, mat)
        k = bisector_axis(state.desc_a.p, state.desc_b.p)
        for sheet in (1, -1):
            via_sheet = project_composite(state, sheet)
            via_pair = project_composite(state, (IDENTITY, half_turn(k, sheet)))
            assert via_sheet.amplitudes == via_pair.amplitudes


def test_opposite_sheets_differ_by_global_halfon_sign():
    # exact: the two sheets' half-turns negate componentwise, and wigner_D
    # turns that into (-1)^(2s_b) bit for bit
    rng = random.Random(56)
    for ts_a in range(13):
        for ts_b in range(13):
            da, db = slot_pair(ts_a, ts_b)
            mat = rand_matrix(rng, da.s.dim, db.s.dim)
            mat = mat / np.linalg.norm(mat)
            state = pair_state_from_matrix(da, db, mat)
            sign = order_dependence_phase([1], [state.desc_b.s])
            assert sign == (-1) ** ts_b
            plus = project_composite(state, 1)
            minus = project_composite(state, -1)
            assert list(minus.amplitudes) == list(plus.amplitudes)
            for (S, M), v in plus.amplitudes.items():
                assert minus.amplitude(S, M) == sign * v
            # same physics either way: channel weights agree
            for tS in range(abs(ts_a - ts_b), ts_a + ts_b + 1, 2):
                S = TwiceSpin(tS)
                assert plus.weight(S) == minus.weight(S)


def test_sheet_route_validation():
    da, db = slot_pair(1, 1)
    state = pair_state_from_matrix(da, db, np.eye(2, dtype=complex) / math.sqrt(2.0))
    for bad in (0, 2, -3):
        with pytest.raises(ValueError, match="sheet"):
            project_composite(state, bad)
    # bool is an int subclass, but True is not a sheet
    for bad in (True, False):
        with pytest.raises(TypeError, match="sheet"):
            project_composite(state, bad)


def test_sheet_route_rejects_non_finite_momentum():
    # a canonical pair never builds a helicity frame; its momenta meet the
    # finite check where the descriptor is built, before any state exists
    da, db = slot_pair(1, 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="momentum .* is not finite"):
            state = pair_state_from_matrix(
                replace(da, p=Vec3(bad, 0.0, 1.0)), db, np.eye(2, dtype=complex) / math.sqrt(2.0)
            )
            project_composite(state, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_amplitudes_rejected(bad):
    da, db = slot_pair(1, 2)
    psi = np.zeros((2, 3), dtype=complex)
    psi[1, 2] = complex(0.0, bad)
    with pytest.raises(ValueError, match="amplitude matrix has non-finite entries"):
        pair_state_from_matrix(da, db, psi)
    square = np.eye(2, dtype=complex)
    square[0, 1] = bad
    with pytest.raises(ValueError, match="amplitude matrix has non-finite entries"):
        pseudo_antisymmetrize(square, HALF)


def loop_projection(state, route):
    """The same projection by the entry-by-entry loop oracle, keyed by
    doubled labels."""
    if isinstance(route, int):
        k = bisector_axis(state.desc_a.p, state.desc_b.p)
        route = (IDENTITY, half_turn(k, route))
    s_a, s_b = state.desc_a.s, state.desc_b.s
    d_a = wigner_D(s_a, route[0]).entries
    d_b = wigner_D(s_b, route[1]).entries
    table = CGTable(s_a, s_b)

    def coefficient(tma, tmb, tS, tM):
        return table.coefficient(tma, tmb, TwiceSpin(tS), tM)

    common = d_a @ state.to_matrix() @ d_b.T
    return project_composite_loop(common, s_a.twice, s_b.twice, coefficient)


def assert_matches_loop(state, route):
    proj = project_composite(state, route)
    want = loop_projection(state, route)
    assert [(S.twice, M) for S, M in proj.amplitudes] == list(want)
    for (S, M), v in proj.amplitudes.items():
        assert abs(v - want[(S.twice, M)]) <= EPS


def test_projection_matches_loop_oracle_all_small_spins():
    rng = random.Random(57)
    for ts_a in range(7):
        for ts_b in range(7):
            da, db = slot_pair(ts_a, ts_b)
            mat = rand_matrix(rng, da.s.dim, db.s.dim)
            state = pair_state_from_matrix(da, db, mat / np.linalg.norm(mat))
            for route in (1, -1, (rand_quaternion(rng), rand_quaternion(rng))):
                assert_matches_loop(state, route)


def test_projection_matches_loop_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.floats(-1.0, 1.0)

    @st.composite
    def quaternions(draw):
        comps = draw(st.tuples(unit, unit, unit, unit).filter(
            lambda c: math.fsum(x * x for x in c) > 1e-6
        ))
        n = math.sqrt(math.fsum(x * x for x in comps))
        return UnitQuaternion(*(x / n for x in comps))

    @st.composite
    def cases(draw):
        ts_a, ts_b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        n = (ts_a + 1) * (ts_b + 1)
        parts = draw(st.lists(unit, min_size=2 * n, max_size=2 * n))
        mat = np.array(parts[:n]) + 1j * np.array(parts[n:])
        route = draw(st.sampled_from((1, -1)) | st.tuples(quaternions(), quaternions()))
        return ts_a, ts_b, mat.reshape(ts_a + 1, ts_b + 1), route

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        ts_a, ts_b, mat, route = case
        da, db = slot_pair(ts_a, ts_b)
        assert_matches_loop(pair_state_from_matrix(da, db, mat), route)

    check()


def kernel_projection(state, route):
    """The projection with both D matrices from the whole-matrix plan
    kernel, and the package's coupling table, as raw float bits."""
    s_a, s_b = state.desc_a.s, state.desc_b.s
    if isinstance(route, int):
        q_b = half_turn(bisector_axis(state.desc_a.p, state.desc_b.p), route)
        common = state.to_matrix() @ plan_kernel_D(s_b.twice, *q_b.components()).T
    else:
        d_a = plan_kernel_D(s_a.twice, *route[0].components())
        d_b = plan_kernel_D(s_b.twice, *route[1].components())
        common = d_a @ state.to_matrix() @ d_b.T
    return (common.reshape(-1) @ CGTable(s_a, s_b).matrix).tobytes()


def test_projection_bit_equal_to_the_plan_kernel():
    rng = random.Random(59)
    for ts_a in range(7):
        for ts_b in range(7):
            da, db = slot_pair(ts_a, ts_b)
            mat = rand_matrix(rng, da.s.dim, db.s.dim)
            state = pair_state_from_matrix(da, db, mat / np.linalg.norm(mat))
            r, r2 = rand_quaternion(rng), rand_quaternion(rng)
            routes = [1, -1, (r, r2), (IDENTITY, half_turn(Vec3(0.0, 0.0, 1.0), -1))]
            if ts_a == ts_b:
                # one evaluation serves both slots
                routes += [(r, r), (IDENTITY, IDENTITY)]
                routes.append((r, UnitQuaternion(*r.components())))
            for route in routes:
                proj = project_composite(state, route)
                got = np.array(list(proj.amplitudes.values()), dtype=complex)
                assert got.tobytes() == kernel_projection(state, route), (ts_a, ts_b, route)


def test_pair_route_evaluates_once_when_spins_and_rotation_bits_agree(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(composite, name, wrapped)

    counting("wigner_D", composite.wigner_D)
    r = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    # == matches 0.0 with -0.0, the bits do not
    signed = UnitQuaternion(1.0, -0.0, 0.0, 0.0)
    assert signed == r
    rng = random.Random(60)
    for (ts_a, ts_b), route, want in (
        ((2, 2), (r, r), {"wigner_D": 1}),
        ((2, 2), (r, UnitQuaternion(1.0, 0.0, 0.0, 0.0)), {"wigner_D": 1}),
        ((2, 2), [r, r], {"wigner_D": 1}),
        ((2, 2), (r, signed), {"wigner_D": 2}),
        ((2, 3), (r, r), {"wigner_D": 2}),
        ((2, 2), 1, {"wigner_D": 1}),
    ):
        counts.clear()
        da, db = slot_pair(ts_a, ts_b)
        state = pair_state_from_matrix(da, db, rand_matrix(rng, da.s.dim, db.s.dim))
        proj = project_composite(state, route)
        assert counts == want
        got = np.array(list(proj.amplitudes.values()), dtype=complex)
        assert got.tobytes() == kernel_projection(state, route)


def test_sheet_route_reads_the_stored_bisector(monkeypatch):
    da, db = slot_pair(1, 2)
    state = pair_state_from_matrix(da, db, np.ones((2, 3), dtype=complex))
    calls = []
    monkeypatch.setattr(
        "spinframes.states.bisector_axis",
        lambda p, q: calls.append(1) or bisector_axis(p, q),
    )
    for sheet in (1, -1, 1):
        project_composite(state, sheet)
    assert calls == [1]


def test_route_must_be_a_sheet_or_two_quaternions():
    da, db = slot_pair(1, 1)
    state = pair_state_from_matrix(da, db, np.eye(2, dtype=complex) / math.sqrt(2.0))
    for bad in (
        (1, 1), 1.0, True, None, "1", (IDENTITY,), (IDENTITY, IDENTITY, IDENTITY),
        [IDENTITY], (IDENTITY, 1), (1.0, 0.0, 0.0, 0.0),
        iter((IDENTITY, IDENTITY)),
    ):
        with pytest.raises(TypeError, match="route must be an int sheet"):
            project_composite(state, bad)


def test_pseudo_antisymmetrize_requires_an_array():
    for bad in ([[1, 0], [0, 1]], ((1, 0), (0, 1)), [[math.nan, 0], [0, 1]], 2.0):
        with pytest.raises(TypeError, match="psi must be a numpy array"):
            pseudo_antisymmetrize(bad, HALF)


def test_amplitude_matrices_must_have_the_exact_2d_shape():
    # one check serves both entry points; without it a 1-D psi fails with
    # an IndexError and a 3-D one comes back as a 3-D "projection"
    for bad in (np.ones(2), np.ones((2, 2, 2)), np.ones((2, 2, 1)), np.ones((1, 2))):
        with pytest.raises(ValueError, match=r"psi shape .* is not \(2, 2\)"):
            pseudo_antisymmetrize(bad, HALF)
    da, db = slot_pair(1, 2)
    for bad in (np.ones(6), np.ones((2, 3, 1)), np.ones((3, 2))):
        with pytest.raises(ValueError, match=r"matrix shape .* is not \(2, 3\)"):
            pair_state_from_matrix(da, db, bad)


def test_amplitude_matrices_must_hold_numbers():
    # a str or object array used to fail inside np.isfinite with numpy's
    # message, and a bool or timedelta array passed as numbers
    for dtype in (str, object, bool, "m8[s]"):
        with pytest.raises(TypeError, match="psi must hold numbers, got dtype"):
            pseudo_antisymmetrize(np.ones((2, 2), dtype=dtype), HALF)
    da, db = slot_pair(1, 2)
    for dtype in (str, object, bool):
        with pytest.raises(TypeError, match="matrix must hold numbers, got dtype"):
            pair_state_from_matrix(da, db, np.ones((2, 3), dtype=dtype))
    # int, unsigned, float and complex arrays are numbers
    for dtype in (int, np.uint8, float, complex):
        pair_state_from_matrix(da, db, np.ones((2, 3), dtype=dtype))
    for dtype in (int, float, complex):
        pseudo_antisymmetrize(np.triu(np.ones((2, 2), dtype=dtype)), HALF)


def test_projections_do_not_share_amplitudes():
    rng = random.Random(58)
    da, db = slot_pair(3, 2)
    mat = rand_matrix(rng, da.s.dim, db.s.dim)
    state = pair_state_from_matrix(da, db, mat / np.linalg.norm(mat))
    first = project_composite(state, 1)
    second = project_composite(state, 1)
    assert first.amplitudes is not second.amplitudes
    key = next(iter(first.amplitudes))
    before = second.amplitudes[key]
    first.amplitudes[key] = 7.0
    assert second.amplitudes[key] == before
    assert project_composite(state, 1).amplitudes[key] == before


def test_amplitude_label_validation():
    da, db = slot_pair(1, 1)
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 0] = 1.0
    proj = project_composite(pair_state_from_matrix(da, db, mat), (IDENTITY, IDENTITY))
    with pytest.raises(ValueError):
        proj.amplitude(ONE, HALF.component(1))


def test_report_lines_golden():
    da, db = slot_pair(1, 1)
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 0] = 1.0
    proj = project_composite(pair_state_from_matrix(da, db, mat), (IDENTITY, IDENTITY))
    assert proj.report_lines() == [
        "0 0 0 0",
        "2 2 1 0",
        "2 0 0 0",
        "2 -2 0 0",
    ]


def test_pseudo_antisymmetrize_shapes_and_parity():
    rng = random.Random(57)
    psi = rand_matrix(rng, 2, 2)
    anti = pseudo_antisymmetrize(psi, HALF)
    assert np.abs(anti + anti.T).max() < EPS
    assert abs(np.linalg.norm(anti) - 1.0) < EPS
    sym = pseudo_antisymmetrize(rand_matrix(rng, 3, 3), ONE)
    assert np.abs(sym - sym.T).max() < EPS
    # the kept eigenspace is the one of a full turn on spin s, exactly
    for ts in range(1, 7):
        s = TwiceSpin(ts)
        psi = pseudo_antisymmetrize(rand_matrix(rng, s.dim, s.dim), s)
        assert np.array_equal(psi.T, order_dependence_phase([1], [s]) * psi)
    with pytest.raises(ValueError, match="shape"):
        pseudo_antisymmetrize(rand_matrix(rng, 3, 3), HALF)
    with pytest.raises(ValueError, match="annihilates"):
        pseudo_antisymmetrize(np.eye(2, dtype=complex), HALF)


def test_pseudo_antisymmetry_sign_examples_and_even_rule():
    assert pseudo_antisymmetry_sign(HALF, TwiceSpin(0)) == 1
    assert pseudo_antisymmetry_sign(HALF, TwiceSpin(2)) == -1
    assert pseudo_antisymmetry_sign(ONE, TwiceSpin(4)) == 1
    for ts in range(13):
        s = TwiceSpin(ts)
        for tS in range(0, 2 * ts + 1, 2):
            S = TwiceSpin(tS)
            want = 1 if tS % 4 == 0 else -1  # +1 exactly when S is an even integer
            assert pseudo_antisymmetry_sign(s, S) == want
            # the coupling swap sign times one full turn on spin s
            full_turn = order_dependence_phase([1], [s])
            assert want == exchange_symmetry_sign(s, S) * full_turn


def test_exclusion_examples():
    assert exclusion_check(HALF) == {TwiceSpin(0)}
    assert exclusion_check(ONE) == {TwiceSpin(0), TwiceSpin(4)}
    assert exclusion_check(TwiceSpin(3)) == {TwiceSpin(0), TwiceSpin(4)}


def test_exclusion_check_rejects_spin_above_bound():
    exclusion_check(TwiceSpin(12))
    with pytest.raises(ValueError, match="2s=13 exceeds supported maximum 12"):
        exclusion_check(TwiceSpin(13))


def test_exclusion_is_even_spins_for_all_small_s():
    for ts in range(13):
        s = TwiceSpin(ts)
        want = {TwiceSpin(t) for t in range(0, 2 * ts + 1, 4)}
        assert exclusion_check(s) == want


def test_operator_eigenvalues_frozen():
    op = build_pair_spin_operator(2, HALF, {1, 2})
    assert eig_multiset(op.matrix) == Counter({0.0: 1, 2.0: 3})
    op = build_pair_spin_operator(3, HALF, {1, 2})
    assert eig_multiset(op.matrix) == Counter({0.0: 2, 2.0: 6})
    op = build_pair_spin_operator(3, HALF, {1, 2, 3})
    assert eig_multiset(op.matrix) == Counter({0.75: 4, 3.75: 4})
    op = build_pair_spin_operator(2, ONE, {1, 2})
    assert eig_multiset(op.matrix) == Counter({0.0: 1, 2.0: 3, 6.0: 5})


def test_operator_hermitian_and_metadata():
    op = build_pair_spin_operator(3, HALF, {1, 3})
    assert np.abs(op.matrix - op.matrix.conj().T).max() < EPS
    assert op.subset == frozenset({1, 3})
    assert op.matrix.shape == (8, 8)


def test_operator_bounds():
    with pytest.raises(ValueError, match="N="):
        build_pair_spin_operator(6, HALF, {1, 2})
    with pytest.raises(ValueError, match="2s="):
        build_pair_spin_operator(2, TwiceSpin(3), {1, 2})
    with pytest.raises(ValueError, match="two particles"):
        build_pair_spin_operator(3, HALF, {1})
    with pytest.raises(ValueError, match="within"):
        build_pair_spin_operator(3, HALF, {1, 7})


def test_operator_rejects_non_int_labels():
    # {1.0, 2} and {True, 2} built an operator; 2.5 failed inside numpy
    for subset in ({1.0, 2}, {True, 2}):
        with pytest.raises(TypeError, match="subset label"):
            build_pair_spin_operator(3, HALF, subset)
    for n in (2.5, True, np.int64(3)):
        with pytest.raises(TypeError, match="N must be an int"):
            build_pair_spin_operator(n, HALF, {1, 2})


def test_overlapping_pair_operators_do_not_commute():
    ops = {
        pair: build_pair_spin_operator(3, HALF, set(pair)).matrix
        for pair in ((1, 2), (1, 3), (2, 3))
    }
    for x, y in (((1, 2), (2, 3)), ((1, 2), (1, 3)), ((1, 3), (2, 3))):
        resid = np.abs(ops[x] @ ops[y] - ops[y] @ ops[x]).max()
        assert resid > 0.1
    # whereas the full-set operator commutes with each pair operator
    full = build_pair_spin_operator(3, HALF, {1, 2, 3}).matrix
    for mat in ops.values():
        assert np.abs(full @ mat - mat @ full).max() < EPS


def test_max_commuting_pairset_counts():
    assert max_commuting_pairset(2, HALF) == 1
    assert max_commuting_pairset(3, HALF) == 2
    assert max_commuting_pairset(4, HALF) == 3


def test_max_commuting_pairset_without_size_bounds():
    assert max_commuting_pairset(5, HALF) == 4
    assert max_commuting_pairset(3, ONE) == 2
    assert max_commuting_pairset(4, TwiceSpin(0)) == 11
    with pytest.raises(ValueError, match="non-negative"):
        max_commuting_pairset(-1, HALF)


def test_max_commuting_pairset_rejects_non_int_sizes():
    # each was accepted: 1.5, 0, 4.0 and an np.int64 came back
    for n, s in ((2.5, HALF), (True, HALF), (3.0, TwiceSpin(0)), (np.int64(4), HALF)):
        with pytest.raises(TypeError, match="N must be an int"):
            max_commuting_pairset(n, s)


def subsets_of_at_least_two(n):
    return [
        frozenset(c)
        for size in range(2, n + 1)
        for c in itertools.combinations(range(1, n + 1), size)
    ]


def test_max_commuting_pairset_matches_dense_search_oracle():
    for n in (2, 3, 4):
        for ts in (0, 1, 2):
            s = TwiceSpin(ts)
            ops = [
                build_pair_spin_operator(n, s, a).matrix
                for a in subsets_of_at_least_two(n)
            ]
            assert max_commuting_pairset(n, s) == max_pairwise_commuting(ops), (n, ts)


def test_subset_operators_commute_iff_nested_or_disjoint():
    for n in (3, 4, 5):
        for ts in (1, 2):
            s = TwiceSpin(ts)
            subsets = subsets_of_at_least_two(n)
            ops = [build_pair_spin_operator(n, s, a).matrix for a in subsets]
            for (a, x), (b, y) in itertools.combinations(zip(subsets, ops), 2):
                laminar = a <= b or b <= a or not a & b
                resid = np.abs(x @ y - y @ x).max()
                assert (resid <= EPS) == laminar, (n, ts, sorted(a), sorted(b))
