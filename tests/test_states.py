"""Descriptor bookkeeping, order-free pair assembly on the content-keyed
basis, and the exchange phases of order-dependent descriptions."""

import dataclasses
import functools
import math
import random
import struct

import numpy as np
import pytest

from oracles import little_d, plan_kernel_D
from spinframes import (
    EPS,
    IDENTITY,
    CollinearMomentaError,
    ExchangeCase,
    FrameTag,
    OrderedDescription,
    PairState,
    ParticleDescriptor,
    TwiceSpin,
    UnitQuaternion,
    Vec3,
    assemble_ordered,
    assemble_pair_canonical_orderfree,
    bisector_axis,
    compose,
    exchange_order_dependent,
    from_axis_angle,
    half_turn,
    helicity_frame,
    inverse,
    m_range,
    order_dependence_phase,
    pair_state_from_matrix,
    pure_permute,
    quaternion_close,
    rotate_sqf,
)
from spinframes import states
from util import (
    figure_pair,
    rand_descriptor,
    rand_noncollinear_pair,
    rand_quaternion,
    rand_unit_vec,
)

ZHAT = Vec3(0.0, 0.0, 1.0)
YHAT = Vec3(0.0, 1.0, 0.0)


def make_desc(q_label, p, ts, tm, base=FrameTag.CANONICAL, r=IDENTITY):
    s = TwiceSpin(ts)
    return ParticleDescriptor(Q=q_label, p=p, s=s, m=s.component(tm), base=base, R_BS=r)


def rand_matrix_like(rng, rows, cols):
    return np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)] for _ in range(rows)]
    )


def test_descriptor_validates_projection():
    with pytest.raises(ValueError):
        make_desc("u", ZHAT, 1, 2)
    with pytest.raises(ValueError):
        make_desc("u", ZHAT, 2, 1)


def test_descriptor_rejects_a_non_str_content_label():
    # sorting a non-str Q against a str one would fail inside PairState, so
    # the descriptor rejects it first, before the projection and momentum
    # checks and before any key is built
    for bad in (1, b"a", None):
        with pytest.raises(TypeError, match=f"Q must be a str, got {type(bad).__name__}"):
            make_desc(bad, ZHAT, 1, 1)
        with pytest.raises(TypeError, match="Q must be a str"):
            ParticleDescriptor(
                Q=bad, p=Vec3(math.nan, 0.0, 1.0), s=TwiceSpin(1), m=2,
                base=FrameTag.CANONICAL, R_BS=IDENTITY,
            )


def test_descriptor_names_a_field_of_the_wrong_type():
    # each of these used to be an AttributeError naming no field
    good = dict(
        Q="a", p=Vec3(0.0, 0.0, 1.0), s=TwiceSpin(1), m=1,
        base=FrameTag.HELICITY, R_BS=IDENTITY,
    )
    for name, bad, message in (
        ("s", 1, "s must be a TwiceSpin, got int"),
        ("base", "HELICITY", "base must be a FrameTag, got str"),
        ("R_BS", (1.0, 0.0, 0.0, 0.0), "R_BS must be a UnitQuaternion, got tuple"),
        ("p", (0.0, 0.0, 1.0), "p must be a Vec3, got tuple"),
    ):
        with pytest.raises(TypeError) as got:
            ParticleDescriptor(**{**good, name: bad})
        assert str(got.value) == message


def test_content_key_is_bit_exact_on_momenta():
    d1 = make_desc("u", Vec3(0.0, 0.0, 1.0), 1, 1)
    d2 = make_desc("u", Vec3(-0.0, 0.0, 1.0), 1, 1)
    # +0.0 and -0.0 are distinct content labels even though they compare ==
    assert d1.content_key() != d2.content_key()
    assert d1.content_key() == make_desc("u", Vec3(0.0, 0.0, 1.0), 1, -1).content_key()
    assert d1.content_key() != make_desc("d", Vec3(0.0, 0.0, 1.0), 1, 1).content_key()
    assert d1.content_key() != make_desc("u", Vec3(0.0, 0.0, 1.0), 3, 3).content_key()


def per_call_keys(d):
    """content_key and sort_key rebuilt from the fields, one struct call per
    float."""

    def bits(x):
        return struct.unpack("<Q", struct.pack("<d", x))[0]

    content = (d.Q, (bits(d.p.x), bits(d.p.y), bits(d.p.z)), d.s.twice)
    rotation = tuple(bits(c) for c in d.R_BS.components())
    return content, (content, d.m, d.base.value, rotation)


def test_cached_keys_match_per_call_bits():
    rng = random.Random(52)
    momenta = [
        Vec3(-0.0, 0.0, 1.0),
        Vec3(0.0, -0.0, -0.0),
        Vec3(1, 0, -2),
        Vec3(3, -0.0, 0),
        Vec3(-5e-324, 1e300, -1),
    ]
    momenta += [rand_unit_vec(rng).scaled(rng.uniform(0.1, 10.0)) for _ in range(300)]
    for i, p in enumerate(momenta):
        base = FrameTag.HELICITY if i % 2 else FrameTag.CANONICAL
        d = rand_descriptor(rng, rng.choice("udsc"), p, base=base)
        assert (d.content_key(), d.sort_key()) == per_call_keys(d)
        flipped = dataclasses.replace(d, R_BS=-d.R_BS)
        assert (flipped.content_key(), flipped.sort_key()) == per_call_keys(flipped)
    # integer components key as the floats they equal; -0.0 keys apart from 0.0
    d_int = make_desc("u", Vec3(1, 0, -2), 1, 1, r=-IDENTITY)
    assert d_int.content_key() == make_desc("u", Vec3(1.0, 0.0, -2.0), 1, 1).content_key()
    assert d_int.sort_key() == per_call_keys(d_int)[1]
    assert d_int.content_key() != make_desc("u", Vec3(1.0, -0.0, -2.0), 1, 1).content_key()


def test_replace_recomputes_cached_keys():
    d = make_desc("u", Vec3(0.0, 0.0, 1.0), 1, 1)
    three_half = TwiceSpin(3)
    for changes in (
        {"Q": "d"},
        {"p": Vec3(-0.0, 0.0, 1.0)},
        {"s": three_half, "m": three_half.component(1)},
        {"m": d.s.component(-1)},
        {"base": FrameTag.HELICITY},
        {"R_BS": -IDENTITY},
    ):
        e = dataclasses.replace(d, **changes)
        assert (e.content_key(), e.sort_key()) == per_call_keys(e)
        assert e.sort_key() != d.sort_key()
    with pytest.raises(ValueError):
        dataclasses.replace(d, _content_key=())


def test_cached_keys_stay_out_of_eq_hash_and_repr():
    r = UnitQuaternion(0.0, 0.6, 0.0, -0.8)
    d = make_desc("u", Vec3(0.5, -0.0, 1), 1, -1, base=FrameTag.HELICITY, r=r)
    twin = make_desc("u", Vec3(0.5, -0.0, 1), 1, -1, base=FrameTag.HELICITY, r=r)
    assert repr(d) == (
        "ParticleDescriptor(Q='u', p=Vec3(x=0.5, y=-0.0, z=1), s=TwiceSpin(twice=1), "
        "m=-1, base=<FrameTag.HELICITY: 'HELICITY'>, "
        "R_BS=UnitQuaternion(w=0.0, x=0.6, y=0.0, z=-0.8))"
    )
    assert d == twin and d is not twin
    assert hash(d) == hash(twin) == hash((d.Q, d.p, d.s, d.m, d.base, d.R_BS))
    # == compares fields by value, not the keys' bit patterns: -0.0 == 0.0
    positive_zero = dataclasses.replace(d, p=Vec3(0.5, 0.0, 1))
    assert positive_zero.content_key() != d.content_key()
    assert positive_zero == d and hash(positive_zero) == hash(d)
    visible = [f.name for f in dataclasses.fields(d) if f.init or f.compare or f.repr]
    assert visible == ["Q", "p", "s", "m", "base", "R_BS"]


def test_descriptor_str():
    d = make_desc("u", Vec3(0.5, -0.0, 1.0), 1, -1)
    assert str(d) == "Q=u p=0.5,0,1 2s=1 2m=-1 base=CANONICAL R_BS=1,0,0,0"


def test_rotate_sqf_identity_and_negated_identity():
    rng = random.Random(41)
    for ts in (1, 2, 3, 4):
        for tm in range(-ts, ts + 1, 2):
            d = make_desc("u", rand_unit_vec(rng), ts, tm)
            col = rotate_sqf(d, IDENTITY)
            want = np.zeros(ts + 1, dtype=complex)
            want[(ts - tm) // 2] = 1.0
            assert np.abs(col - want).max() < EPS
            col_neg = rotate_sqf(d, -IDENTITY)
            assert np.abs(col_neg - (-1) ** ts * want).max() < EPS


def test_rotate_sqf_matches_little_d_column():
    beta = 1.234
    q = from_axis_angle(YHAT, beta)
    for ts in (1, 2, 3):
        for tm in range(-ts, ts + 1, 2):
            d = make_desc("u", ZHAT, ts, tm)
            col = rotate_sqf(d, q)
            for i, tmp in enumerate(range(ts, -ts - 1, -2)):
                assert abs(col[i].imag) < EPS
                assert abs(col[i].real - little_d(ts, tmp, tm, beta)) < EPS


def test_assemble_identity_rotations_is_point_mass():
    p_a, p_b = figure_pair(0.8)
    da = make_desc("u", p_a, 1, 1)
    db = make_desc("d", p_b, 2, 0)
    state = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    # amplitude() indexes by the stored (canonically ordered) descriptors
    point = (state.desc_a.m, state.desc_b.m)
    for la in m_range(state.desc_a.s):
        for lb in m_range(state.desc_b.s):
            want = 1.0 if (la, lb) == point else 0.0
            assert abs(state.amplitude(la, lb) - want) < EPS
    assert abs(state.norm() - 1.0) < EPS


def test_amplitude_checks_each_label_against_its_spin():
    p_a, p_b = figure_pair(0.8)
    state = assemble_pair_canonical_orderfree(
        make_desc("u", p_a, 1, 1), make_desc("d", p_b, 2, 0), IDENTITY, IDENTITY
    )
    ta, tb = state.desc_a.s.twice, state.desc_b.s.twice
    for la, lb in ((ta + 2, tb), (ta, tb + 2), (ta - 1, tb), (ta, tb - 1)):
        with pytest.raises(ValueError):
            state.amplitude(la, lb)
    for la, lb in ((float(ta), tb), (ta, True)):
        with pytest.raises(TypeError):
            state.amplitude(la, lb)


def test_assemble_norm_one_for_random_rotations():
    rng = random.Random(42)
    for _ in range(50):
        da = rand_descriptor(rng, "u", rand_unit_vec(rng))
        db = rand_descriptor(rng, "d", rand_unit_vec(rng))
        state = assemble_pair_canonical_orderfree(
            da, db, rand_quaternion(rng), rand_quaternion(rng)
        )
        assert abs(state.norm() - 1.0) < 1e-10


def test_assemble_matrix_is_outer_product():
    rng = random.Random(43)
    da = rand_descriptor(rng, "u", rand_unit_vec(rng))
    db = rand_descriptor(rng, "d", rand_unit_vec(rng))
    ra, rb = rand_quaternion(rng), rand_quaternion(rng)
    state = assemble_pair_canonical_orderfree(da, db, ra, rb)
    want = np.outer(rotate_sqf(state.desc_a, ra if state.desc_a is da else rb),
                    rotate_sqf(state.desc_b, rb if state.desc_b is db else ra))
    assert np.abs(state.to_matrix() - want).max() < EPS


def test_negating_one_rotation_flips_halfon_state_only():
    p_a, p_b = figure_pair(0.6)
    ra = from_axis_angle(YHAT, 0.4)
    rb = from_axis_angle(ZHAT, 1.3)
    for ts, sign in ((1, -1.0), (3, -1.0), (2, 1.0), (4, 1.0)):
        da = make_desc("u", p_a, 1, 1)
        db = make_desc("d", p_b, ts, ts - 2)
        plus = assemble_pair_canonical_orderfree(da, db, ra, rb)
        minus = assemble_pair_canonical_orderfree(da, db, ra, -rb)
        assert minus.allclose(plus.scaled(sign))


def test_assemble_is_argument_order_free():
    rng = random.Random(44)
    for _ in range(20):
        da = rand_descriptor(rng, "u", rand_unit_vec(rng))
        db = rand_descriptor(rng, "d", rand_unit_vec(rng))
        ra, rb = rand_quaternion(rng), rand_quaternion(rng)
        fwd = assemble_pair_canonical_orderfree(da, db, ra, rb)
        rev = assemble_pair_canonical_orderfree(db, da, rb, ra)
        assert fwd.desc_a == rev.desc_a and fwd.desc_b == rev.desc_b
        assert fwd.allclose(rev, tol=0.0)


def test_pure_permute_is_identity():
    rng = random.Random(45)
    for _ in range(50):
        da = rand_descriptor(rng, "u", rand_unit_vec(rng))
        db = rand_descriptor(rng, "d", rand_unit_vec(rng))
        state = assemble_pair_canonical_orderfree(
            da, db, rand_quaternion(rng), rand_quaternion(rng)
        )
        assert pure_permute(state).allclose(state, tol=0.0)


def test_merged_content_adds_amplitudes_and_permutes_trivially():
    p = Vec3(0.0, 0.0, 1.0)
    da = make_desc("u", p, 1, 1)
    db = make_desc("u", p, 1, -1)
    state = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    assert state.merged_content()
    # the (up, down) and (down, up) descriptions land on the same joint label
    swapped = assemble_pair_canonical_orderfree(db, da, IDENTITY, IDENTITY)
    assert state.allclose(swapped, tol=0.0)
    assert pure_permute(state).allclose(state, tol=0.0)
    key = next(k for k, v in state.amplitudes.items() if abs(v) > 0.5)
    assert key[0][1] == -1 and key[1][1] == 1  # unordered label, sorted
    with pytest.raises(ValueError, match="merged"):
        state.to_matrix()


def test_collinearity_enforced_only_for_helicity_base():
    p = Vec3(0.0, 0.0, 1.0)
    da_h = make_desc("u", p, 1, 1, base=FrameTag.HELICITY)
    db_h = make_desc("d", p.scaled(-1.0), 1, 1, base=FrameTag.HELICITY)
    with pytest.raises(CollinearMomentaError):
        assemble_pair_canonical_orderfree(da_h, db_h, IDENTITY, IDENTITY)
    da_c = make_desc("u", p, 1, 1)
    db_c = make_desc("d", p, 1, 1)
    assemble_pair_canonical_orderfree(da_c, db_c, IDENTITY, IDENTITY)


def test_helicity_pairs_rejected_like_helicity_frame():
    # the frame-free check raises what helicity_frame raises, word for word;
    # a non-finite momentum raises it already where the descriptor is built
    v = Vec3(0.3, -0.2, 0.9)
    zero = Vec3(0.0, 0.0, 0.0)
    cases = (
        (v, v.scaled(2.0)),
        (v, v.scaled(-0.5)),
        (zero, v),
        (v, zero),
        (Vec3(math.nan, 0.0, 1.0), v),
        (v, Vec3(0.0, math.inf, 1.0)),
        (Vec3(-math.inf, 0.0, 0.0), Vec3(math.nan, 0.0, 0.0)),
    )
    helicity, canonical = FrameTag.HELICITY, FrameTag.CANONICAL
    for p_a, p_b in cases:
        with pytest.raises(ValueError) as want:
            helicity_frame(p_a, p_b)
        finite = all(math.isfinite(c) for p in (p_a, p_b) for c in (p.x, p.y, p.z))
        for base_a, base_b in ((helicity, helicity), (helicity, canonical), (canonical, helicity)):
            if not finite:
                with pytest.raises(ValueError) as got:
                    make_desc("u", p_a, 1, 1, base=base_a)
                    make_desc("d", p_b, 1, -1, base=base_b)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
                continue
            da = make_desc("u", p_a, 1, 1, base=base_a)
            db = make_desc("d", p_b, 1, -1, base=base_b)
            for build in (
                lambda: assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY),
                lambda: pair_state_from_matrix(da, db, np.eye(2, dtype=complex)),
            ):
                with pytest.raises(ValueError) as got:
                    build()
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
        if not finite:
            continue
        # canonical-based descriptions carry their frames independently
        da = make_desc("u", p_a, 1, 1)
        db = make_desc("d", p_b, 1, -1)
        assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
        pair_state_from_matrix(da, db, np.eye(2, dtype=complex))


def test_pair_state_from_matrix_round_trip():
    rng = random.Random(46)
    p_a, p_b = figure_pair(1.1)
    # labels chosen already in canonical order so rows stay attached to da
    for ts_a in range(7):
        for ts_b in range(7):
            da = make_desc("a", p_a, ts_a, ts_a)
            db = make_desc("b", p_b, ts_b, -ts_b)
            mat = rand_matrix_like(rng, ts_a + 1, ts_b + 1)
            state = pair_state_from_matrix(da, db, mat)
            assert state.to_matrix().shape == mat.shape
            assert np.abs(state.to_matrix() - mat).max() == 0.0, (ts_a, ts_b)
            # a real matrix reads back with zero imaginary parts
            real = pair_state_from_matrix(da, db, mat.real)
            assert np.abs(real.to_matrix() - mat.real).max() == 0.0
    da = make_desc("a", p_a, 1, 1)
    db = make_desc("b", p_b, 2, 0)
    mat = rand_matrix_like(rng, 2, 3)
    with pytest.raises(ValueError, match="shape"):
        pair_state_from_matrix(da, db, mat.T)
    with pytest.raises(ValueError, match="identical"):
        pair_state_from_matrix(da, make_desc("a", p_a, 1, -1), np.eye(2))


def per_entry_amplitudes(da, db, col_a, col_b):
    """The joint amplitudes written out entry by entry: unordered labels,
    rows lam_a descending, merged labels adding."""
    amps = {}
    for i, la in enumerate(range(da.s.twice, -da.s.twice - 1, -2)):
        for j, lb in enumerate(range(db.s.twice, -db.s.twice - 1, -2)):
            key = tuple(sorted([(da.content_key(), la), (db.content_key(), lb)]))
            amps[key] = amps.get(key, 0j) + complex(col_a[i]) * complex(col_b[j])
    return amps


def test_matrix_of_descriptors_sorting_second_is_transposed():
    rng = random.Random(52)
    p_a, p_b = figure_pair(0.9)
    for ts_a, ts_b in ((1, 2), (3, 0), (2, 4), (4, 4)):
        # "z" sorts after "b" by content, so the stored pair is (db, da)
        da = make_desc("z", p_a, ts_a, ts_a)
        db = make_desc("b", p_b, ts_b, ts_b)
        mat = rand_matrix_like(rng, ts_a + 1, ts_b + 1)
        state = pair_state_from_matrix(da, db, mat)
        assert state.desc_a is db and state.desc_b is da
        assert np.array_equal(state.to_matrix(), mat.T)
        for i, la in enumerate(m_range(da.s)):
            for j, lb in enumerate(m_range(db.s)):
                assert state.amplitude(lb, la) == mat[i, j]


def test_assembly_bit_equal_to_per_entry_products():
    # bit for bit, not within EPS: np.outer rounds some complex products
    # differently from one scalar multiply per entry
    rng = random.Random(53)
    for trial in range(300):
        merged = trial % 3 == 0
        ts_a = rng.randint(0, 6)
        ts_b = ts_a if merged else rng.randint(0, 6)
        p_a = rand_unit_vec(rng)
        p_b = p_a if merged else rand_unit_vec(rng)
        da = make_desc("u", p_a, ts_a, rng.choice(range(-ts_a, ts_a + 1, 2)))
        db = make_desc(
            "u" if merged else rng.choice("dz"), p_b, ts_b,
            rng.choice(range(-ts_b, ts_b + 1, 2)),
        )
        ra, rb = rand_quaternion(rng), rand_quaternion(rng)
        state = assemble_pair_canonical_orderfree(da, db, ra, rb)
        assert state.merged_content() == merged
        want = per_entry_amplitudes(da, db, rotate_sqf(da, ra), rotate_sqf(db, rb))
        assert list(state.amplitudes) == list(want)
        for key, v in want.items():
            got = state.amplitudes[key]
            assert (got.real, got.imag) == (v.real, v.imag), (trial, key)
            assert math.copysign(1.0, got.real) == math.copysign(1.0, v.real)
            assert math.copysign(1.0, got.imag) == math.copysign(1.0, v.imag)


def test_assembly_bit_equal_to_the_plan_kernel():
    # each column comes from the one-column plan of the same builder and
    # must carry the plan kernel's bits, signed zeros included, into the
    # per-entry products
    rng = random.Random(58)
    for trial in range(200):
        merged = trial % 4 == 0
        ts_a = rng.randint(0, 12)
        ts_b = ts_a if merged else rng.randint(0, 12)
        p_a = rand_unit_vec(rng)
        p_b = p_a if merged else rand_unit_vec(rng)
        da = make_desc("u", p_a, ts_a, rng.choice(range(-ts_a, ts_a + 1, 2)))
        db = make_desc(
            "u" if merged else rng.choice("dz"), p_b, ts_b,
            rng.choice(range(-ts_b, ts_b + 1, 2)),
        )
        ra, rb = rng.choice(
            [
                (rand_quaternion(rng), rand_quaternion(rng)),
                (half_turn(ZHAT, 1), half_turn(ZHAT, -1)),
                (from_axis_angle(YHAT, math.pi / 2.0), IDENTITY),
            ]
        )
        col_a = plan_kernel_D(ts_a, *ra.components())[:, da.s.index(da.m)]
        col_b = plan_kernel_D(ts_b, *rb.components())[:, db.s.index(db.m)]
        want = per_entry_amplitudes(da, db, col_a, col_b)
        state = assemble_pair_canonical_orderfree(da, db, ra, rb)
        assert list(state.amplitudes) == list(want)
        got = np.array(list(state.amplitudes.values()), dtype=complex)
        assert got.tobytes() == np.array(list(want.values()), dtype=complex).tobytes()
        assert rotate_sqf(da, ra).tobytes() == np.ascontiguousarray(col_a).tobytes()


def test_dump_matches_per_entry_rendering():
    rng = random.Random(54)
    for trial in range(60):
        merged = trial % 2 == 0
        ts_a = rng.randint(0, 4)
        ts_b = ts_a if merged else rng.randint(0, 4)
        p_a = rand_unit_vec(rng)
        p_b = p_a if merged else rand_unit_vec(rng)
        da = make_desc("u", p_a, ts_a, ts_a)
        db = make_desc("u" if merged else "d", p_b, ts_b, -ts_b)
        state = assemble_pair_canonical_orderfree(
            da, db, rand_quaternion(rng), rand_quaternion(rng)
        )
        lines = [f"pair: {state.desc_a} ; {state.desc_b}"]
        if merged:
            entries = [
                (l1, l2, v) for ((_, l1), (_, l2)), v in
                sorted(state.amplitudes.items(), reverse=True)
            ]
        else:
            entries = [
                (la, lb, state.amplitude(la, lb))
                for la in m_range(state.desc_a.s)
                for lb in m_range(state.desc_b.s)
            ]
        for l1, l2, v in entries:
            lines.append(f"({l1}, {l2}) {format(v.real + 0.0, '.15g')} "
                         f"{format(v.imag + 0.0, '.15g')}")
        assert state.dump() == "\n".join(lines) + "\n"


def test_dump_lists_absent_distinct_labels_as_zero():
    p_a, p_b = figure_pair(0.4)
    da = make_desc("a", p_a, 1, 1)
    db = make_desc("b", p_b, 2, 0)
    full = pair_state_from_matrix(da, db, np.arange(6, dtype=complex).reshape(2, 3))
    sparse = PairState(
        desc_a=full.desc_a,
        desc_b=full.desc_b,
        amplitudes={k: v for k, v in full.amplitudes.items() if v != 0},
    )
    assert len(sparse.amplitudes) == 5
    assert sparse.dump() == full.dump()
    assert np.array_equal(sparse.to_matrix(), full.to_matrix())


def test_joint_basis_is_built_once_per_content_pair(monkeypatch):
    calls = []
    build = states._joint_keys.__wrapped__

    @functools.lru_cache(maxsize=16)
    def counted(key_a, key_b):
        calls.append((key_a, key_b))
        return build(key_a, key_b)

    monkeypatch.setattr(states, "_joint_keys", counted)
    p_a, p_b = figure_pair(0.7)
    da, db = make_desc("a", p_a, 3, 1), make_desc("b", p_b, 2, 0)
    state = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    state.to_matrix()
    state.dump()
    pair_state_from_matrix(da, db, state.to_matrix())
    assert calls == [(da.content_key(), db.content_key())]
    keys = counted(da.content_key(), db.content_key())
    assert type(keys) is tuple and len(keys) == 12
    assert list(keys) == list(per_entry_amplitudes(da, db, [1] * 4, [1] * 3))


def test_assembly_evaluates_one_matrix_per_particle(monkeypatch):
    calls = []
    evaluate = states._evaluate

    def recorded(s, q):
        calls.append(s.twice)
        return evaluate(s, q)

    monkeypatch.setattr(states, "_evaluate", recorded)
    p_a, p_b = figure_pair(0.6)
    da, db = make_desc("a", p_a, 3, -1), make_desc("b", p_b, 2, 2)
    assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    assert calls == [3, 2]


def test_to_matrix_reads_any_amplitude_dict():
    # assembled and matrix-built states list their amplitudes in basis order;
    # a dict in another order, with a label missing, or keyed by equal but
    # distinct tuples reads the same matrix key by key
    rng = random.Random(61)
    p_a, p_b = figure_pair(0.8)
    da, db = make_desc("a", p_a, 3, 1), make_desc("b", p_b, 2, 0)
    mat = rand_matrix_like(rng, 4, 3)
    state = pair_state_from_matrix(da, db, mat)
    keys = list(state.amplitudes)
    variants = {
        "reversed": {k: state.amplitudes[k] for k in reversed(keys)},
        "missing": {k: v for k, v in state.amplitudes.items() if k != keys[5]},
        "copied keys": {
            ((k1[0], k1[1]), (k2[0], k2[1])): v for (k1, k2), v in state.amplitudes.items()
        },
    }
    want_missing = mat.copy()
    want_missing[5 // 3, 5 % 3] = 0.0
    for name, amps in variants.items():
        got = PairState(desc_a=da, desc_b=db, amplitudes=amps).to_matrix()
        want = want_missing if name == "missing" else mat
        assert got.tobytes() == want.tobytes(), name
    assert state.to_matrix().tobytes() == mat.tobytes()
    state.amplitudes[keys[0]] = 7.0
    assert state.to_matrix()[0, 0] == 7.0


def test_pair_state_builds_its_bisector_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        states, "bisector_axis", lambda p, q: calls.append((p, q)) or bisector_axis(p, q)
    )
    p_a, p_b = figure_pair(0.4)
    da, db = make_desc("b", p_a, 1, 1), make_desc("a", p_b, 2, 0)
    state = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    twin = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    before = repr(state)
    assert calls == []  # built on first use, not on construction
    assert state.bisector is state.bisector
    # from the stored (canonical) descriptor order
    assert calls == [(p_b, p_a)]
    assert state.bisector == bisector_axis(p_b, p_a)
    assert repr(state) == before
    assert state != twin and hash(state) != hash(twin)  # identity, as before
    # derived from the descriptors, never from the mutable amplitudes
    state.amplitudes.clear()
    assert state.bisector == twin.bisector


def test_scaled_rejects_a_non_finite_factor():
    p_a, p_b = figure_pair(0.3)
    state = assemble_pair_canonical_orderfree(
        make_desc("u", p_a, 1, 1), make_desc("d", p_b, 2, 0), IDENTITY, IDENTITY
    )
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1)):
        with pytest.raises(ValueError, match="scale factor .* is not finite"):
            state.scaled(bad)
    assert state.scaled(2).norm() == 2.0 * state.norm()
    assert state.scaled(1j).allclose(state.scaled(-1j).scaled(-1.0))


def test_pair_state_from_matrix_requires_an_array():
    p_a, p_b = figure_pair(0.3)
    da, db = make_desc("a", p_a, 2, 0), make_desc("b", p_b, 1, 1)
    # type before shape, before finiteness, before the content check
    for bad in ([[1, 2, 3], [4, 5, 6]], ((1, 0),) * 3, [[math.nan] * 2] * 3, 1.0):
        with pytest.raises(TypeError, match="matrix must be a numpy array"):
            pair_state_from_matrix(da, db, bad)
        with pytest.raises(TypeError, match="matrix must be a numpy array"):
            pair_state_from_matrix(da, da, bad)


def test_ordered_description_derives_later_rotations():
    p_a, p_b = figure_pair(math.pi / 4.0)
    r1 = rand_quaternion(random.Random(47))
    d1 = make_desc("u", p_a, 1, 1, r=r1)
    d2 = make_desc("d", p_b, 1, -1, r=rand_quaternion(random.Random(48)))
    od = OrderedDescription([d1, d2])
    assert od.slots[0].R_BS is r1  # slot 1 untouched
    assert od.half_turns == (half_turn(bisector_axis(p_a, p_b), 1),)
    assert od.slots[1].R_BS == compose(r1, od.half_turns[0])
    r21 = from_axis_angle(bisector_axis(p_a, p_b), math.pi)
    assert quaternion_close(od.slots[1].R_BS, compose(r1, r21))
    # the kept half-turns are derived data: out of == and repr
    assert od == OrderedDescription([d1, d2]) and "half_turns" not in repr(od)
    assert OrderedDescription([d1]).half_turns == ()
    # a third slot chains off the second
    p_c = Vec3(0.0, 0.5, 0.5)
    d3 = make_desc("w", p_c, 1, 1)
    od3 = OrderedDescription([d1, d2, d3])
    r32 = from_axis_angle(bisector_axis(p_b, p_c), math.pi)
    assert quaternion_close(od3.slots[2].R_BS, compose(od3.slots[1].R_BS, r32))
    with pytest.raises(ValueError):
        OrderedDescription([])


def test_exchange_identical_halfons():
    p_a, p_b = figure_pair(math.pi / 4.0)
    d1 = make_desc("u", p_a, 1, 1, base=FrameTag.HELICITY)
    d2 = make_desc("d", p_b, 1, -1, base=FrameTag.HELICITY)
    od = OrderedDescription([d1, d2])
    base_state = assemble_ordered(od)
    for case in (ExchangeCase.FIRST, ExchangeCase.SECOND):
        exchanged, phase = exchange_order_dependent(od, case)
        assert phase == -1
        assert np.abs(
            exchanged.to_matrix() - phase * base_state.to_matrix()
        ).max() < 10 * EPS


def test_exchange_fullons_is_symmetric():
    p_a, p_b = figure_pair(0.9)
    d1 = make_desc("u", p_a, 2, 2, r=rand_quaternion(random.Random(49)))
    d2 = make_desc("d", p_b, 2, 0)
    od = OrderedDescription([d1, d2])
    base_state = assemble_ordered(od)
    for case in (ExchangeCase.FIRST, ExchangeCase.SECOND):
        exchanged, phase = exchange_order_dependent(od, case)
        assert phase == 1
        assert np.abs(exchanged.to_matrix() - base_state.to_matrix()).max() < 10 * EPS


def test_exchange_mixed_spins_case_dependent():
    # slot 1 a halfon, slot 2 a fullon: the two cases disagree by a sign
    p_a, p_b = figure_pair(0.5)
    d1 = make_desc("u", p_a, 1, -1)
    d2 = make_desc("d", p_b, 2, 2)
    od = OrderedDescription([d1, d2])
    base_state = assemble_ordered(od)
    st_first, ph_first = exchange_order_dependent(od, ExchangeCase.FIRST)
    st_second, ph_second = exchange_order_dependent(od, ExchangeCase.SECOND)
    assert ph_first == -1 and ph_second == 1
    assert ph_first * ph_second == (-1) ** ((d1.s.twice + d2.s.twice))
    for state, phase in ((st_first, ph_first), (st_second, ph_second)):
        assert np.abs(state.to_matrix() - phase * base_state.to_matrix()).max() < 10 * EPS


def test_exchange_phase_depends_only_on_kept_slot_spin():
    rng = random.Random(50)
    for ts1, ts2 in ((0, 1), (1, 1), (1, 2), (2, 1), (3, 2), (2, 4), (3, 3), (4, 3)):
        p_a, p_b = figure_pair(rng.uniform(0.2, 1.3))
        d1 = make_desc("u", p_a, ts1, ts1, r=rand_quaternion(rng))
        d2 = make_desc("d", p_b, ts2, -ts2)
        od = OrderedDescription([d1, d2])
        _, ph_first = exchange_order_dependent(od, ExchangeCase.FIRST)
        _, ph_second = exchange_order_dependent(od, ExchangeCase.SECOND)
        assert ph_first == (-1) ** ts1
        assert ph_second == (-1) ** ts2
        # a full turn on the original slot 1 or slot 2
        assert ph_first == order_dependence_phase([1, 0], [d1.s, d2.s])
        assert ph_second == order_dependence_phase([0, 1], [d1.s, d2.s])


def test_exchange_reuses_the_stored_half_turn():
    # against the construction that rebuilt the exchanged description, and
    # with it the bisector and the half-turn, from scratch
    rng = random.Random(51)
    for _ in range(200):
        p_a, p_b = rand_noncollinear_pair(rng)
        base = rng.choice((FrameTag.CANONICAL, FrameTag.HELICITY))
        d1 = rand_descriptor(rng, "u", p_a, max_twice_spin=6, base=base)
        d2 = rand_descriptor(rng, rng.choice("ud"), p_b, max_twice_spin=6)
        od = OrderedDescription([d1, d2])
        d1, d2 = od.slots
        r21 = od.half_turns[0]
        assert half_turn(bisector_axis(d2.p, d1.p), 1) == r21
        for case, first_rotation, turns in (
            (ExchangeCase.FIRST, d2.R_BS, [1, 0]),
            (ExchangeCase.SECOND, compose(d1.R_BS, inverse(r21)), [0, 1]),
        ):
            rebuilt = OrderedDescription(
                [dataclasses.replace(d2, R_BS=first_rotation), d1]
            )
            want = assemble_ordered(rebuilt)
            state, phase = exchange_order_dependent(od, case)
            assert (state.desc_a, state.desc_b) == (want.desc_a, want.desc_b)
            if case is ExchangeCase.FIRST:
                # d2 already holds the kept rotation; it is not rebuilt
                assert any(d is d2 for d in (state.desc_a, state.desc_b))
            assert state.amplitudes == want.amplitudes
            assert phase == order_dependence_phase(turns, [d1.s, d2.s])


def test_exchange_requires_two_slots():
    p_a, p_b = figure_pair(0.4)
    d1 = make_desc("u", p_a, 1, 1)
    with pytest.raises(ValueError, match="two slots"):
        exchange_order_dependent(OrderedDescription([d1]), ExchangeCase.FIRST)
    with pytest.raises(ValueError, match="two slots"):
        assemble_ordered(OrderedDescription([d1]))
    d2 = make_desc("d", p_b, 1, 1)
    d3 = make_desc("w", Vec3(0.0, 1.0, 0.0), 1, 1)
    with pytest.raises(ValueError, match="two slots"):
        exchange_order_dependent(OrderedDescription([d1, d2, d3]), ExchangeCase.FIRST)


def test_order_dependence_phase():
    half = TwiceSpin(1)
    one = TwiceSpin(2)
    assert order_dependence_phase([1, 0], [half, half]) == -1
    assert order_dependence_phase([1, 1], [half, half]) == 1
    assert order_dependence_phase([1, 0], [one, half]) == 1
    assert order_dependence_phase([3, 2], [half, one]) == -1
    assert order_dependence_phase([], []) == 1
    with pytest.raises(ValueError):
        order_dependence_phase([1], [half, half])
    with pytest.raises(TypeError):
        order_dependence_phase([True, 0], [half, half])


def test_dump_golden():
    da = make_desc("d", ZHAT, 1, 1)
    db = make_desc("u", ZHAT, 1, -1)
    state = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    assert state.dump() == (
        "pair: Q=d p=0,0,1 2s=1 2m=1 base=CANONICAL R_BS=1,0,0,0 ; "
        "Q=u p=0,0,1 2s=1 2m=-1 base=CANONICAL R_BS=1,0,0,0\n"
        "(1, 1) 0 0\n"
        "(1, -1) 1 0\n"
        "(-1, 1) 0 0\n"
        "(-1, -1) 0 0\n"
    )


def test_allclose_requires_same_descriptors():
    p_a, p_b = figure_pair(0.3)
    da = make_desc("u", p_a, 1, 1)
    db = make_desc("d", p_b, 1, 1)
    s1 = assemble_pair_canonical_orderfree(da, db, IDENTITY, IDENTITY)
    s2 = assemble_pair_canonical_orderfree(
        make_desc("u", p_a, 1, -1), db, IDENTITY, IDENTITY
    )
    assert not s1.allclose(s2)
    assert s1.allclose(s1.scaled(1.0))
    assert not s1.allclose(s1.scaled(1.0 + 10 * EPS))
