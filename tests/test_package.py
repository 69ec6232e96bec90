"""The package namespace: each public name is imported from its home module
on first use, and importing the package loads none of its modules."""

import importlib
import subprocess
import sys

import pytest

import spinframes


PUBLIC = {
    "EPS", "EPS_GEOM", "MAX_TWICE_SPIN", "IDENTITY",
    "TwiceSpin", "UnitQuaternion", "Vec3", "CGTable", "ParticleDescriptor",
    "PairState", "OrderedDescription", "ExchangeCase", "FrameTag",
    "CollinearMomentaError", "FrameMismatchError",
    "m_range", "total_spins", "order_dependence_phase", "exchange_symmetry_sign",
    "pseudo_antisymmetry_sign", "exclusion_check",
    "compose", "from_axis_angle", "half_turn", "to_matrix3",
    "wigner_D", "clebsch_gordan",
    "helicity_frame", "bisector_axis", "relative_rotation",
    "assemble_pair_canonical_orderfree", "assemble_ordered", "exchange_order_dependent",
    "pair_state_from_matrix", "pure_permute", "rotate_sqf",
    "project_composite", "pseudo_antisymmetrize", "build_pair_spin_operator",
    "max_commuting_pairset",
    "build_constraints", "exhaustive_satisfiable", "impossibility_report",
}

# importable from their home modules only
INTERNAL = {
    "exactnum": ("N_FACT", "factorial_exact", "neg_one_pow", "fmt15"),
    "antisym_checker": (
        "SatResult", "ParityLedger", "ExchangeConstraintSystem", "exchange_sign",
        "check_noninterference", "n2_only_pattern", "report_lines",
    ),
    "composite": ("CompositeProjection", "PairSpinOperator"),
    "wigner": ("WignerMatrix",),
    "frames": ("HelicityFrame", "cm_polar_relation"),
    "rotations": ("frame_to_quaternion", "inverse", "quaternion_close"),
}


def test_public_surface_is_pinned_and_internal_names_stay_home():
    assert len(spinframes.__all__) == len(PUBLIC) == 43
    assert set(spinframes.__all__) == PUBLIC
    for module, names in INTERNAL.items():
        home = importlib.import_module(f"spinframes.{module}")
        for name in names:
            assert hasattr(home, name), name
            assert not hasattr(spinframes, name), name


def test_every_public_name_is_its_home_modules_object():
    assert len(spinframes.__all__) == len(set(spinframes.__all__))
    listed = dir(spinframes)
    for name in spinframes.__all__:
        home = importlib.import_module(f"spinframes.{spinframes._HOME[name]}")
        value = getattr(spinframes, name)
        assert value is getattr(home, name), name
        # functions and classes were defined there, not re-bound from elsewhere
        if callable(value):
            assert value.__module__ == home.__name__, name
        assert name in listed, name
    namespace = {}
    exec("from spinframes import *", namespace)
    assert all(namespace[name] is getattr(spinframes, name) for name in spinframes.__all__)
    with pytest.raises(AttributeError, match="'spinframes' has no attribute 'no_such_name'"):
        spinframes.no_such_name  # noqa: B018


def test_import_loads_no_module_until_a_name_is_used():
    script = """
import sys
import spinframes
def loaded():
    return sorted(m.split(".")[1] for m in sys.modules if m.startswith("spinframes."))
print(*loaded(), sep=",")
spinframes.wigner_D
print(*loaded(), sep=",")
print("wigner_D" in vars(spinframes))
from spinframes import *
print(*loaded(), sep=",")
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == [
        "",
        "exactnum,rotations,wigner",
        "True",
        "antisym_checker,composite,exactnum,frames,rotations,states,wigner",
    ]
