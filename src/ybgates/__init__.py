"""Braid and Yang-Baxter two-qubit gates.

Construction of the X-type braid gate families and their spectral-parameter
deformations, numeric verification of the braid and Yang-Baxter relations,
Weyl-chamber geometry (nonlocal invariants, entangling power), Clifford /
matchgate / dual-unitary classification, and minimal-CNOT circuit synthesis
over {Rz, H, S, Sdg, T, Tdg, CNOT}.
"""

# defined before the submodules are imported, so `cli` can report it
__version__ = "0.1.0"

from .baxterize import (
    YbSpec,
    baxterize2,
    baxterize3,
    baxterized_gate,
    braid_limit_residual,
    build_yb,
    yb_ep,
    yb_nonlocal_closed,
    ybe_residual,
)
from .braid import (
    BraidSpec,
    braid_ep_closed,
    braid_nonlocal_closed,
    braid_residual,
    build_braid,
)
from .classify import (
    ClassificationReport,
    classify_gate,
    is_clifford,
    is_dual_unitary,
    is_matchgate,
    predict_conditions,
)
from .linalg import phase_distance, sym_unitary_eig
from .synth import (
    Circuit,
    GateOp,
    evaluate,
    synth_general,
    synth_riv,
    synth_zz,
    verify_circuit,
)
from .weyl import (
    KakDecomposition,
    canonicalize,
    chamber_location,
    core_gate,
    entangling_power,
    entangling_power_mc,
    extract_nonlocal,
    kak_decompose,
    min_cnot_count,
)
