"""Double-cover rotation bookkeeping for two-particle spin states.

Rotations are unit quaternions with q and -q kept distinct, spin labels are
doubled integers, and spin-s rotation matrices are evaluated so the
(-1)^(2s) sign of a full turn comes out of the arithmetic rather than a
convention switch. On top of that sit helicity-frame geometry, pair state
descriptions with their exchange phases, composite-spin projection with the
even-S exclusion rule, and the parity-ledger argument that universal pairwise
antisymmetrization cannot be a convention for three or more particles.

__all__ is the public surface; every other name is importable from its
home module only. A wrong-typed argument is a TypeError naming it, a bad
value a ValueError. Importing the package loads no spinframes submodule:
each public name is imported on first use (PEP 562), so a report loads only
what it needs. numpy is imported with the package only for the import-time
probe of bench/run.py, until that probe reads a missing entry as 0 ms
(ROADMAP item 1).
"""

import importlib

# Not needed by the package itself. bench/run.py measure_imports reads the
# cumulative import time of numpy under `import spinframes` and fails when
# numpy has no entry there, so the import stays until a missing entry reads
# as 0 ms (ROADMAP item 1).
import numpy  # noqa: F401

__version__ = "0.1.0"

_HOMES = {
    "antisym_checker": (
        "build_constraints",
        "exhaustive_satisfiable",
        "impossibility_report",
    ),
    "composite": (
        "build_pair_spin_operator",
        "max_commuting_pairset",
        "project_composite",
        "pseudo_antisymmetrize",
    ),
    "exactnum": (
        "EPS",
        "MAX_TWICE_SPIN",
        "TwiceSpin",
        "exchange_symmetry_sign",
        "exclusion_check",
        "m_range",
        "order_dependence_phase",
        "pseudo_antisymmetry_sign",
        "total_spins",
    ),
    "frames": (
        "CollinearMomentaError",
        "FrameMismatchError",
        "bisector_axis",
        "helicity_frame",
        "relative_rotation",
    ),
    "rotations": (
        "EPS_GEOM",
        "IDENTITY",
        "UnitQuaternion",
        "Vec3",
        "compose",
        "from_axis_angle",
        "half_turn",
        "to_matrix3",
    ),
    "states": (
        "ExchangeCase",
        "FrameTag",
        "OrderedDescription",
        "PairState",
        "ParticleDescriptor",
        "assemble_ordered",
        "assemble_pair_canonical_orderfree",
        "exchange_order_dependent",
        "pair_state_from_matrix",
        "pure_permute",
        "rotate_sqf",
    ),
    "wigner": ("CGTable", "clebsch_gordan", "wigner_D"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
