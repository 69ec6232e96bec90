"""The package's one input rule, pinned over its whole public surface: a
wrong-typed argument to any public callable is a TypeError whose message
starts with the argument's name, a number too large for a float is a
ValueError that names it the same way, and a spin past its bound is a
ValueError that names 2s. An int with more digits than Python converts to
text gets the same errors, since no message prints it."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import spinframes
from spinframes import (
    IDENTITY,
    CGTable,
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
    build_constraints,
    build_pair_spin_operator,
    clebsch_gordan,
    compose,
    exchange_order_dependent,
    exchange_symmetry_sign,
    exclusion_check,
    exhaustive_satisfiable,
    from_axis_angle,
    half_turn,
    helicity_frame,
    impossibility_report,
    m_range,
    max_commuting_pairset,
    order_dependence_phase,
    pair_state_from_matrix,
    project_composite,
    pseudo_antisymmetrize,
    pseudo_antisymmetry_sign,
    pure_permute,
    relative_rotation,
    rotate_sqf,
    to_matrix3,
    total_spins,
    wigner_D,
)
from spinframes.antisym_checker import ExchangeConstraintSystem
from util import figure_pair

HALF = TwiceSpin(1)
ONE = TwiceSpin(2)
ZHAT = Vec3(0.0, 0.0, 1.0)
P_A, P_B = figure_pair(math.pi / 4.0)
# the shapes a wrong argument usually takes: a plain number for a package
# type, and a tuple of the components a Vec3 or UnitQuaternion would hold
QUAT = (1.0, 0.0, 0.0, 0.0)
VEC = (0.0, 0.0, 1.0)
# an int with more digits than Python converts to text (4300 by default)
GIANT = 10**5000

EXEMPT = (
    # constants
    "EPS", "EPS_GEOM", "MAX_TWICE_SPIN", "IDENTITY",
    # enums and exception types
    "ExchangeCase", "FrameTag", "CollinearMomentaError", "FrameMismatchError",
    # value types: the package builds tens of them per pair operation, so
    # their constructors check no component's type; a Vec3's components are
    # checked by the function they enter (rows below), and a UnitQuaternion's
    # norm test rejects components that are not real (test_rotations.py)
    "Vec3", "UnitQuaternion",
)


def desc(q="a", p=P_A, s=HALF, m=1, base=FrameTag.CANONICAL, r=IDENTITY):
    return ParticleDescriptor(Q=q, p=p, s=s, m=m, base=base, R_BS=r)


def ordered():
    return OrderedDescription([desc("u", P_A), desc("u", P_B)])


def state():
    return assemble_pair_canonical_orderfree(desc("a"), desc("b", P_B), IDENTITY, IDENTITY)


def frames():
    return helicity_frame(P_A, P_B), helicity_frame(P_B, P_A)


# (public callable, the argument's name in the message, the call)
ROWS = (
    ("TwiceSpin", "twice-spin", lambda: TwiceSpin(1.0)),
    ("m_range", "spin", lambda: m_range(1)),
    ("total_spins", "spin", lambda: total_spins(1, HALF)),
    ("total_spins", "spin", lambda: total_spins(HALF, 1.0)),
    ("order_dependence_phase", "turn count", lambda: order_dependence_phase([1.0], [HALF])),
    ("order_dependence_phase", "spin", lambda: order_dependence_phase([1], [1])),
    ("exchange_symmetry_sign", "spin", lambda: exchange_symmetry_sign(1, ONE)),
    ("exchange_symmetry_sign", "S", lambda: exchange_symmetry_sign(HALF, 2)),
    ("pseudo_antisymmetry_sign", "spin", lambda: pseudo_antisymmetry_sign(1, ONE)),
    ("pseudo_antisymmetry_sign", "S", lambda: pseudo_antisymmetry_sign(HALF, 2)),
    ("exclusion_check", "spin", lambda: exclusion_check(3)),
    ("compose", "q1", lambda: compose(QUAT, IDENTITY)),
    ("compose", "q2", lambda: compose(IDENTITY, QUAT)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(VEC, 1.0)),
    ("half_turn", "axis", lambda: half_turn(VEC, 1)),
    ("half_turn", "sheet", lambda: half_turn(ZHAT, 1.0)),
    ("to_matrix3", "q", lambda: to_matrix3(QUAT)),
    ("wigner_D", "spin", lambda: wigner_D(1, IDENTITY)),
    ("wigner_D", "rotation", lambda: wigner_D(HALF, QUAT)),
    ("CGTable", "spin", lambda: CGTable(HALF, 1)),
    ("CGTable.coefficient", "twice-m", lambda: CGTable(HALF, HALF).coefficient(1.0, 1, ONE, 2)),
    ("CGTable.coefficient", "twice-m", lambda: CGTable(HALF, HALF).coefficient(1, None, ONE, 2)),
    ("CGTable.coefficient", "S", lambda: CGTable(HALF, HALF).coefficient(1, 1, 2, 2)),
    ("CGTable.coefficient", "twice-m", lambda: CGTable(HALF, HALF).coefficient(1, 1, ONE, 2.0)),
    ("clebsch_gordan", "spin", lambda: clebsch_gordan(1, HALF, 1, 1, ONE, 2)),
    ("clebsch_gordan", "S", lambda: clebsch_gordan(HALF, HALF, 1, 1, 2, 2)),
    ("helicity_frame", "momentum", lambda: helicity_frame(VEC, P_B)),
    ("helicity_frame", "momentum", lambda: helicity_frame(P_A, None)),
    ("bisector_axis", "momentum", lambda: bisector_axis(P_A, VEC)),
    ("relative_rotation", "frame_from", lambda: relative_rotation(ZHAT, frames()[0], 1)),
    ("relative_rotation", "frame_to", lambda: relative_rotation(frames()[1], QUAT, 1)),
    ("relative_rotation", "sheet", lambda: relative_rotation(*frames(), True)),
    ("ParticleDescriptor", "Q", lambda: desc(q=1)),
    ("ParticleDescriptor", "p", lambda: desc(p=VEC)),
    ("ParticleDescriptor", "s", lambda: desc(s=1)),
    ("ParticleDescriptor", "twice-m", lambda: desc(m=1.0)),
    ("ParticleDescriptor", "base", lambda: desc(base="CANONICAL")),
    ("ParticleDescriptor", "R_BS", lambda: desc(r=QUAT)),
    ("PairState", "desc_a", lambda: PairState(desc_a=None, desc_b=desc(), amplitudes={})),
    ("PairState", "desc_b", lambda: PairState(desc_a=desc(), desc_b=1, amplitudes={})),
    ("PairState", "amplitudes", lambda: PairState(desc_a=desc(), desc_b=desc("b"), amplitudes=[1, 2])),
    ("PairState", "amplitudes", lambda: PairState(desc_a=desc(), desc_b=desc("b"), amplitudes=None)),
    ("PairState.scaled", "scale factor", lambda: state().scaled("x")),
    ("PairState.scaled", "scale factor", lambda: state().scaled(None)),
    ("PairState.scaled", "scale factor", lambda: state().scaled(True)),
    ("PairState.allclose", "other", lambda: state().allclose(3)),
    ("PairState.allclose", "other", lambda: state().allclose(None)),
    ("PairState.allclose", "tol", lambda: state().allclose(state(), "x")),
    ("PairState.allclose", "tol", lambda: state().allclose(state(), 1j)),
    ("PairState.allclose", "tol", lambda: state().allclose(state(), True)),
    ("OrderedDescription", "slot", lambda: OrderedDescription([desc(), "b"])),
    ("OrderedDescription", "slot", lambda: OrderedDescription([P_A])),
    ("rotate_sqf", "desc", lambda: rotate_sqf(HALF, IDENTITY)),
    ("rotate_sqf", "rotation", lambda: rotate_sqf(desc(), QUAT)),
    (
        "assemble_pair_canonical_orderfree", "desc_a",
        lambda: assemble_pair_canonical_orderfree(1, desc(), IDENTITY, IDENTITY),
    ),
    (
        "assemble_pair_canonical_orderfree", "desc_b",
        lambda: assemble_pair_canonical_orderfree(desc(), None, IDENTITY, IDENTITY),
    ),
    (
        "assemble_pair_canonical_orderfree", "rotation",
        lambda: assemble_pair_canonical_orderfree(desc("a"), desc("b"), IDENTITY, QUAT),
    ),
    ("assemble_ordered", "ordered", lambda: assemble_ordered([desc("u", P_A), desc("u", P_B)])),
    ("exchange_order_dependent", "ordered", lambda: exchange_order_dependent(1, ExchangeCase.FIRST)),
    ("exchange_order_dependent", "case", lambda: exchange_order_dependent(ordered(), "FIRST")),
    ("pair_state_from_matrix", "desc_a", lambda: pair_state_from_matrix(1, desc(), np.eye(2))),
    ("pair_state_from_matrix", "desc_b", lambda: pair_state_from_matrix(desc(), 1, np.eye(2))),
    (
        "pair_state_from_matrix", "matrix",
        lambda: pair_state_from_matrix(desc("a"), desc("b"), [[1.0, 0.0], [0.0, 0.0]]),
    ),
    ("pure_permute", "state", lambda: pure_permute(None)),
    ("project_composite", "state", lambda: project_composite(None, 1)),
    ("project_composite", "route", lambda: project_composite(state(), 1.0)),
    ("pseudo_antisymmetrize", "psi", lambda: pseudo_antisymmetrize([[0, 1], [0, 0]], HALF)),
    ("pseudo_antisymmetrize", "spin", lambda: pseudo_antisymmetrize(np.eye(2), 1)),
    ("build_pair_spin_operator", "N", lambda: build_pair_spin_operator(3.0, HALF, {1, 2})),
    ("build_pair_spin_operator", "spin", lambda: build_pair_spin_operator(3, 1, {1, 2})),
    ("build_pair_spin_operator", "subset label", lambda: build_pair_spin_operator(3, HALF, {1, 2.5})),
    ("max_commuting_pairset", "N", lambda: max_commuting_pairset(3.0, HALF)),
    ("max_commuting_pairset", "spin", lambda: max_commuting_pairset(3, 1)),
    ("build_constraints", "n_particles", lambda: build_constraints(3.0)),
    ("exhaustive_satisfiable", "system", lambda: exhaustive_satisfiable(((0, 1),))),
    ("impossibility_report", "N_max", lambda: impossibility_report(3.0)),
    ("CompositeProjection.amplitude", "S", lambda: project_composite(state(), 1).amplitude(2, 0)),
    ("CompositeProjection.weight", "S", lambda: project_composite(state(), 1).weight(2)),
    ("from_axis_angle", "rotation angle", lambda: from_axis_angle(ZHAT, "a")),
    ("from_axis_angle", "rotation angle", lambda: from_axis_angle(ZHAT, True)),
    ("order_dependence_phase", "n", lambda: order_dependence_phase(1, [HALF])),
    ("order_dependence_phase", "spins", lambda: order_dependence_phase([1], 1)),
    ("build_pair_spin_operator", "subset", lambda: build_pair_spin_operator(3, HALF, 5)),
    ("OrderedDescription", "slots", lambda: OrderedDescription(5)),
    ("helicity_frame", "tag", lambda: helicity_frame(P_A, P_B, tag=5)),
    # components that are not real numbers, named where the Vec3 enters
    ("helicity_frame", "momentum", lambda: helicity_frame(Vec3("a", 0.0, 0.0), P_B)),
    ("helicity_frame", "momentum", lambda: helicity_frame(P_A, Vec3(0.0, None, 1.0))),
    ("helicity_frame", "momentum", lambda: helicity_frame(Vec3(0.0, 0.0, 1 + 0j), P_B)),
    ("bisector_axis", "momentum", lambda: bisector_axis(Vec3("a", 0.0, 0.0), P_B)),
    ("bisector_axis", "momentum", lambda: bisector_axis(P_A, Vec3(0.0, None, 1.0))),
    ("bisector_axis", "momentum", lambda: bisector_axis(P_A, Vec3(0.0, 0.0, 1 + 0j))),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3("a", 0.0, 1.0), 1.0)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(None, 0.0, 1.0), 1.0)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(0.0, 0.0, 1 + 0j), 1.0)),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(0.0, "a", 1.0))),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(0.0, 0.0, None))),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(1 + 0j, 0.0, 1.0))),
    # numpy complex scalars, which math.isfinite would read as their real part
    ("helicity_frame", "momentum", lambda: helicity_frame(Vec3(np.complex128(1), 0.0, 0.0), P_B)),
    ("helicity_frame", "momentum", lambda: helicity_frame(P_A, Vec3(0.0, np.complex64(1), 1.0))),
    ("bisector_axis", "momentum", lambda: bisector_axis(Vec3(np.complex128(1), 0.0, 0.0), P_B)),
    ("bisector_axis", "momentum", lambda: bisector_axis(P_A, Vec3(0.0, np.complex64(1), 1.0))),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(0.0, 0.0, np.complex128(1)), 1.0)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(0.0, 0.0, np.complex64(1)), 1.0)),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(np.complex128(1), 0.0, 1.0))),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(0.0, np.complex64(1), 1.0))),
    # values whose repr would raise
    ("wigner_D", "spin", lambda: wigner_D(GIANT, IDENTITY)),
    ("compose", "q1", lambda: compose((GIANT, 0, 0, 0), IDENTITY)),
    ("half_turn", "axis", lambda: half_turn((0.0, 0.0, GIANT), 1)),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(GIANT, "a", 1.0))),
)
# numbers too large for a float, which math.isfinite meets with an
# OverflowError: named as the same argument's inf is, where it enters
HUGE = 10**400
VALUE_ROWS = (
    ("from_axis_angle", "rotation angle", lambda: from_axis_angle(ZHAT, HUGE)),
    ("from_axis_angle", "rotation angle", lambda: from_axis_angle(ZHAT, -HUGE)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(0.0, 0.0, HUGE), 1.0)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(HUGE, 0, 0), 1.0)),
    ("helicity_frame", "momentum", lambda: helicity_frame(Vec3(HUGE, 0.0, 0.0), P_B)),
    ("helicity_frame", "momentum", lambda: helicity_frame(P_A, Vec3(0.0, -HUGE, 1.0))),
    ("bisector_axis", "momentum", lambda: bisector_axis(Vec3(0.0, 0.0, HUGE), P_B)),
    ("bisector_axis", "momentum", lambda: bisector_axis(P_A, Vec3(HUGE, 0.0, 1.0))),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(0.0, HUGE, 1.0))),
    ("UnitQuaternion", "quaternion norm^2", lambda: UnitQuaternion(HUGE, 0.0, 0.0, 0.0)),
    ("UnitQuaternion", "quaternion norm^2", lambda: UnitQuaternion(0, 0, 0, -HUGE)),
    ("PairState.scaled", "scale factor", lambda: state().scaled(HUGE)),
    ("PairState.scaled", "scale factor", lambda: state().scaled(-HUGE)),
    ("PairState.allclose", "tol", lambda: state().allclose(state(), HUGE)),
    # and ones with more digits than the message could print
    ("from_axis_angle", "rotation angle", lambda: from_axis_angle(Vec3(0.0, 0.0, 1.0), GIANT)),
    ("from_axis_angle", "rotation axis", lambda: from_axis_angle(Vec3(0.0, GIANT, 1.0), 1.0)),
    ("helicity_frame", "momentum", lambda: helicity_frame(Vec3(GIANT, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))),
    ("bisector_axis", "momentum", lambda: bisector_axis(P_A, Vec3(0.0, 0.0, -GIANT))),
    ("ParticleDescriptor", "momentum", lambda: desc(p=Vec3(0.0, GIANT, 1.0))),
    ("PairState.scaled", "scale factor", lambda: state().scaled(GIANT)),
    ("PairState.allclose", "tol", lambda: state().allclose(state(), GIANT)),
    ("half_turn", "sheet", lambda: half_turn(ZHAT, GIANT)),
    ("TwiceSpin", "twice-spin", lambda: TwiceSpin(-GIANT)),
    ("impossibility_report", "N_max=<int", lambda: impossibility_report(GIANT)),
    ("build_constraints", "n_particles=<int", lambda: build_constraints(GIANT)),
    ("ExchangeConstraintSystem", "n_vars=<int", lambda: ExchangeConstraintSystem(n_vars=GIANT, constraints=())),
)
# spins past their bound: MAX_TWICE_SPIN, or for m_range twice that, the
# largest total spin 2S of a supported pair
SPIN_ROWS = (
    ("m_range", "2s=25", lambda: m_range(TwiceSpin(25))),
    ("m_range", "2s=100", lambda: m_range(TwiceSpin(100))),
    ("m_range", "2s=<int", lambda: m_range(TwiceSpin(GIANT))),
    ("wigner_D", "2s=<int", lambda: wigner_D(TwiceSpin(GIANT), IDENTITY)),
    ("exclusion_check", "2s=<int", lambda: exclusion_check(TwiceSpin(GIANT))),
    ("CGTable", "2s=<int", lambda: CGTable(HALF, TwiceSpin(GIANT))),
    ("build_pair_spin_operator", "2s=<int", lambda: build_pair_spin_operator(3, TwiceSpin(GIANT), {1, 2})),
)
# methods of objects that public callables return, checked like the callables
METHODS = {
    "CGTable.coefficient", "CompositeProjection.amplitude", "CompositeProjection.weight",
    "PairState.scaled", "PairState.allclose",
}


def _call_texts(table: str) -> list[str]:
    """Each row's call as written in this file, in row order, whitespace
    collapsed: so a row's test id follows from its content, wherever the
    row stands."""
    source = Path(__file__).read_text()
    rows = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == table
    )
    return [" ".join(ast.get_source_segment(source, row.elts[2].body).split()) for row in rows.elts]


def _ids(table: str, rows: tuple) -> list[str]:
    return [f"{name}-{what}-{text}" for (name, what, _), text in zip(rows, _call_texts(table), strict=True)]


IDS = _ids("ROWS", ROWS)
VALUE_IDS = _ids("VALUE_ROWS", VALUE_ROWS)
SPIN_IDS = _ids("SPIN_ROWS", SPIN_ROWS)


@pytest.mark.parametrize("name, what, call", ROWS, ids=IDS)
def test_wrong_type_is_a_type_error_naming_the_argument(name, what, call):
    with pytest.raises(TypeError) as got:
        call()
    assert str(got.value).startswith(f"{what} must be "), str(got.value)


@pytest.mark.parametrize("name, what, call", VALUE_ROWS, ids=VALUE_IDS)
def test_number_too_large_for_a_float_is_a_value_error_naming_the_argument(name, what, call):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value).startswith(f"{what} "), str(got.value)


@pytest.mark.parametrize("name, what, call", SPIN_ROWS, ids=SPIN_IDS)
def test_spin_past_its_bound_is_a_value_error_naming_2s(name, what, call):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value).startswith(f"{what}"), str(got.value)
    assert " exceeds " in str(got.value), str(got.value)


def test_sweep_ids_are_unique():
    assert len(IDS) == len(ROWS) and len(set(IDS)) == len(IDS)
    assert len(VALUE_IDS) == len(VALUE_ROWS) and len(set(VALUE_IDS)) == len(VALUE_IDS)
    assert len(SPIN_IDS) == len(SPIN_ROWS) and len(set(SPIN_IDS)) == len(SPIN_IDS)


def test_every_public_callable_has_a_row_or_an_exemption():
    rows = {name for name, _, _ in ROWS}
    assert not rows & set(EXEMPT)
    assert set(EXEMPT) <= set(spinframes.__all__)
    assert rows == (set(spinframes.__all__) - set(EXEMPT)) | METHODS
    for name in spinframes.__all__:
        if name not in EXEMPT:
            assert callable(getattr(spinframes, name)), name
