"""Double-cover rotation bookkeeping for two-particle spin states.

Rotations are unit quaternions with q and -q kept distinct, spin labels are
doubled integers, and spin-s rotation matrices are evaluated so the
(-1)^(2s) sign of a full turn comes out of the arithmetic rather than a
convention switch. On top of that sit helicity-frame geometry for
back-to-back pairs, order-free and order-dependent pair state descriptions
with their exchange phases, composite-spin projection with the even-S
exclusion rule, and the parity-ledger argument that universal pairwise
antisymmetrization cannot be a convention for three or more particles.
"""

from .antisym_checker import (
    ExchangeConstraintSystem,
    ParityLedger,
    SatResult,
    build_constraints,
    check_noninterference,
    exchange_sign,
    exhaustive_satisfiable,
    impossibility_report,
    n2_only_pattern,
    report_lines,
)
from .composite import (
    CompositeProjection,
    PairSpinOperator,
    build_pair_spin_operator,
    exclusion_check,
    max_commuting_pairset,
    project_composite,
    pseudo_antisymmetrize,
    pseudo_antisymmetry_sign,
)
from .exactnum import (
    EPS,
    N_FACT,
    TwiceM,
    TwiceSpin,
    complex_close,
    factorial_exact,
    fmt15,
    m_range,
    neg_one_pow,
)
from .frames import (
    CollinearMomentaError,
    FrameMismatchError,
    HelicityFrame,
    bisector_axis,
    cm_polar_relation,
    helicity_frame,
    relative_rotation,
)
from .rotations import (
    EPS_GEOM,
    IDENTITY,
    UnitQuaternion,
    Vec3,
    compose,
    frame_to_quaternion,
    from_axis_angle,
    half_turn,
    inverse,
    quaternion_close,
    to_matrix3,
)
from .states import (
    ExchangeCase,
    FrameTag,
    OrderedDescription,
    PairState,
    ParticleDescriptor,
    assemble_ordered,
    assemble_pair_canonical_orderfree,
    exchange_order_dependent,
    order_dependence_phase,
    pair_state_from_matrix,
    pure_permute,
    rotate_sqf,
)
from .wigner import (
    MAX_TWICE_SPIN,
    CGTable,
    WignerMatrix,
    clebsch_gordan,
    exchange_symmetry_sign,
    wigner_D,
)

__version__ = "0.1.0"
