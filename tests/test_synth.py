import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ybgates import synth
from ybgates.baxterize import YbSpec, build_yb
from ybgates.braid import BraidSpec, build_braid
from ybgates.linalg import I2, SZ, frob, kron, phase_distance
from ybgates.synth import (
    _OP_KEYS,
    _SHARED_OPS,
    _TEMPLATE_FRAMES,
    Circuit,
    GateOp,
    _core_template,
    evaluate,
    synth_general,
    synth_riv,
    synth_zz,
    verify_circuit,
)
from ybgates.weyl import (
    CHAMBER_TOL,
    CNOT,
    SWAP,
    canonicalize,
    core_gate,
    extract_nonlocal,
    min_cnot_count,
)

RNG = np.random.default_rng(47)
PI = math.pi
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def rx_matrix(theta: float) -> np.ndarray:
    return _H @ rz_matrix(theta) @ _H


# --- circuit IR ------------------------------------------------------------

def test_evaluate_empty_and_involution():
    assert frob(evaluate(Circuit()) - np.eye(4)) == 0.0
    c = Circuit([GateOp("H", (0,)), GateOp("H", (0,))])
    assert frob(evaluate(c) - np.eye(4)) < 1e-15


def test_evaluate_cnot():
    assert frob(evaluate(Circuit([GateOp("CNOT", (0, 1))])) - CNOT) == 0.0
    assert frob(GateOp("CNOT", (1, 0)).matrix() - _CNOTS[1, 0]) == 0.0


_GATES_2X2 = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]),
    "SDG": np.diag([1, -1j]),
    "T": np.diag([1, cmath.exp(0.25j * PI)]),
    "TDG": np.diag([1, cmath.exp(-0.25j * PI)]),
}
# CNOT by (control, target); control qubit 1 flips qubit 0, |01> <-> |11>
_CNOTS = {
    (0, 1): np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
}


def reference_matrix(op: GateOp) -> np.ndarray:
    """4x4 matrix of an op from the tests' own gate table, qubit 0 left."""
    if op.kind == "CNOT":
        return _CNOTS[op.qubits]
    g = rz_matrix(op.angle) if op.kind == "RZ" else _GATES_2X2[op.kind]
    return np.kron(g, I2) if op.qubits == (0,) else np.kron(I2, g)


@pytest.mark.parametrize("kind, qubits", sorted(_OP_KEYS),
                         ids=[f"{k}-{''.join(map(str, q))}" for k, q in sorted(_OP_KEYS)])
def test_op_table(kind, qubits):
    """Each op is the kron of its 2x2 gate, qubit 0 left, or its CNOT; the
    matrix is a fresh array, so writing to it leaves the next call alone."""
    for angle in (0.0, 0.3, -2.9, PI) if kind == "RZ" else (None,):
        op = GateOp(kind, qubits, angle)
        m = op.matrix()
        assert frob(m - reference_matrix(op)) < 1e-15, (kind, qubits, angle)
        m[:] = 2.0
        assert frob(op.matrix() - reference_matrix(op)) < 1e-15, (kind, qubits, angle)


one_qubit = st.sampled_from([(0,), (1,)])
single_ops = st.one_of(
    st.builds(GateOp, st.sampled_from(["H", "S", "SDG", "T", "TDG"]), one_qubit),
    st.builds(lambda q, t: GateOp("RZ", q, t), one_qubit, st.floats(-10, 10)),
)
cnots = st.sampled_from([GateOp("CNOT", (0, 1)), GateOp("CNOT", (1, 0))])
circuits = st.builds(
    Circuit,
    st.one_of(
        st.lists(st.one_of(single_ops, cnots), max_size=40),
        st.lists(single_ops, max_size=12),  # no CNOT
        st.builds(lambda ops, c: ops + [c], st.lists(st.one_of(single_ops, cnots), max_size=30),
                  cnots),  # ends in a CNOT
    ),
    st.floats(-PI, PI),
)


_CX01, _CX10 = GateOp("CNOT", (0, 1)), GateOp("CNOT", (1, 0))


@given(circuits)
@example(Circuit([_CX01, GateOp("H", (0,)), GateOp("RZ", (1,), 0.3)], 0.2))  # starts with a CNOT
@example(Circuit([GateOp("S", (0,)), _CX01, _CX10, GateOp("T", (1,))], -0.7))  # back-to-back CNOTs
@example(Circuit([_CX01, _CX10] * 15, 1.1))  # 30 CNOTs in a row, 31 segments
@example(Circuit([GateOp("H", (0,)), GateOp("RZ", (1,), 2.0), _CX01, GateOp("S", (1,))], PI))
@example(Circuit([GateOp("TDG", (1,)), _CX10, GateOp("RZ", (0,), -1.0)], -PI))
def test_evaluate_matches_per_op_product(c):
    """The 2x2-accumulator evaluation equals the product of the tests' own
    4x4 op matrices."""
    u = np.eye(4, dtype=complex)
    for op in c.ops:
        u = reference_matrix(op) @ u
    assert frob(evaluate(c) - cmath.exp(1j * c.phase) * u) <= 1e-13


def test_evaluate_application_order():
    # S then H on one qubit: matrix product is H @ S
    c = Circuit([GateOp("S", (0,)), GateOp("H", (0,))])
    s, h = GateOp("S", (0,)).matrix(), GateOp("H", (0,)).matrix()
    assert frob(evaluate(c) - h @ s) < 1e-15


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("CNOT", (0, 0))
    with pytest.raises(ValueError):
        GateOp("H", (2,))
    with pytest.raises(ValueError):
        GateOp("RZ", (0,), math.inf)
    with pytest.raises(ValueError):
        GateOp("H", (0,), 0.3)
    with pytest.raises(ValueError):
        GateOp("Q", (0,))


@pytest.mark.parametrize("qubits", [[0, 1], (np.int64(0), np.int8(1)), (False, True), np.array([0, 1])])
def test_gateop_normalises_qubits(qubits):
    """Lists, numpy ints and bools for (0, 1) become a tuple of Python ints."""
    control, target = qubits
    for op, want in ((GateOp("CNOT", qubits), (0, 1)), (GateOp("RZ", [target], 0.3), (1,)),
                     (GateOp("H", (control,)), (0,))):
        assert type(op.qubits) is tuple and op.qubits == want
        assert all(type(q) is int for q in op.qubits)
    with pytest.raises(ValueError):
        GateOp("CNOT", [control, control])
    with pytest.raises(ValueError):
        GateOp("H", list(qubits))


@pytest.mark.parametrize("qubits", [(1.5,), (0.9, 1), ("1",), (None,), (1 + 0j,), (np.True_,)])
def test_gateop_rejects_non_integer_qubits(qubits):
    """A qubit must be an integer: nothing is truncated, parsed or cast."""
    kind = "CNOT" if len(qubits) == 2 else "H"
    with pytest.raises(ValueError):
        GateOp(kind, qubits)
    with pytest.raises(ValueError):
        GateOp("RZ", qubits[:1], 0.3)


def test_shared_ops_equal_fresh_ones_and_are_frozen():
    assert set(_SHARED_OPS) == {(k, (q,)) for k in ("H", "S", "SDG", "T", "TDG") for q in (0, 1)} | {
        ("CNOT", (0, 1)), ("CNOT", (1, 0))}
    for (kind, qubits), op in _SHARED_OPS.items():
        assert op == GateOp(kind, qubits)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.qubits = (1,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.angle = 0.3
    # every angle-free op that synthesis emits is a shared instance
    shared = {id(op) for op in _SHARED_OPS.values()}
    circuits = [synth_general(unitary_group.rvs(4, random_state=RNG)), synth_zz(0.3),
                synth_riv(1.3, 0.6), synth_general(SWAP)]
    for c in circuits:
        for op in c.ops:
            assert op.kind == "RZ" or id(op) in shared, op


def test_s_t_rz_interchangeability():
    for kind, theta in (("S", PI / 2), ("SDG", -PI / 2), ("T", PI / 4), ("TDG", -PI / 4)):
        a = GateOp(kind, (1,)).matrix()
        b = GateOp("RZ", (1,), theta).matrix()
        assert phase_distance(a, b) < 1e-12


# --- single-qubit Euler decomposition --------------------------------------

def test_euler_zxz_examples():
    assert np.allclose(synth._euler_entries(*np.eye(2).ravel().tolist())[:3], 0.0)
    a, b, g, ph = synth._euler_entries(*rz_matrix(0.7).ravel().tolist())
    assert (a, b, g) == pytest.approx((0.7, 0.0, 0.0))


def test_euler_zxz_random_reconstruction():
    for _ in range(200):
        v = unitary_group.rvs(2, random_state=RNG)
        a, b, g, ph = synth._euler_entries(*v.ravel().tolist())
        rec = cmath.exp(1j * ph) * rz_matrix(a) @ rx_matrix(b) @ rz_matrix(g)
        assert frob(rec - v) < 1e-10


def test_euler_zxz_gimbal_cases():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    for v in (h, np.array([[0, 1], [1, 0]], dtype=complex), rz_matrix(2.2), np.eye(2)):
        a, b, g, ph = synth._euler_entries(*v.ravel().tolist())
        rec = cmath.exp(1j * ph) * rz_matrix(a) @ rx_matrix(b) @ rz_matrix(g)
        assert frob(rec - v) < 1e-10


def _haar_su2(seed):
    v = unitary_group.rvs(2, random_state=np.random.default_rng(seed))
    return v / cmath.sqrt(np.linalg.det(v))


seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-PI, PI)


def _check_euler(v):
    a, b, g, ph = synth._euler_entries(*v.ravel().tolist())
    assert -PI < a <= PI and -PI < g <= PI and 0 <= b <= PI
    rec = cmath.exp(1j * ph) * rz_matrix(a) @ rx_matrix(b) @ rz_matrix(g)
    assert frob(rec - v) <= 1e-10
    return b, g


@given(seeds, angles)
def test_euler_zxz_reconstructs_haar_times_phase(seed, phase):
    _check_euler(cmath.exp(1j * phase) * _haar_su2(seed))


@given(angles, st.floats(0, 1e-13), st.booleans(), angles, angles)
def test_euler_zxz_near_gimbal_lock(alpha, delta, near_pi, gamma, phase):
    """Middle angle within 1e-13 of 0 or of pi."""
    beta = PI - delta if near_pi else delta
    v = cmath.exp(1j * phase) * rz_matrix(alpha) @ rx_matrix(beta) @ rz_matrix(gamma)
    # gamma is folded into alpha there
    assert _check_euler(v) == ((PI, 0.0) if near_pi else (0.0, 0.0))


# --- template synthesis ----------------------------------------------------

def test_synth_zz_against_exponential():
    for theta in (0.0, PI, 0.37, -2.2):
        c = synth_zz(theta)
        target = sla.expm(-0.5j * theta * kron(SZ, SZ))
        assert verify_circuit(c, target) < 1e-12
        assert c.cnot_count == 2


def test_synth_general_random():
    for _ in range(300):
        u = unitary_group.rvs(4, random_state=RNG)
        c = synth_general(u)
        assert verify_circuit(c, u) < 1e-7
        assert c.cnot_count == min_cnot_count(extract_nonlocal(u))


def test_synth_general_decomposes_once(monkeypatch):
    """synth_general runs one KAK per call, through the module binding
    `synth.kak_decompose`, so a tracer wrapping that name sees every one."""
    calls = []
    kak = synth.kak_decompose
    monkeypatch.setattr(synth, "kak_decompose", lambda u: calls.append(u) or kak(u))
    gates = [np.eye(4, dtype=complex), CNOT, SWAP, core_gate([PI / 2, PI / 4, 0])]
    gates += [unitary_group.rvs(4, random_state=np.random.default_rng(s)) for s in range(4)]
    for u in gates:
        calls.clear()
        synth_general(u)
        assert len(calls) == 1


def test_synth_general_landmarks():
    cases = [
        (SWAP, 3),
        (CNOT, 1),
        (np.eye(4, dtype=complex), 0),
        (core_gate([PI / 2, PI / 4, 0]), 2),
        (build_braid(BraidSpec("IV", (1.3,))), 1),
    ]
    for u, n in cases:
        c = synth_general(u)
        assert c.cnot_count == n
        assert verify_circuit(c, u) < 1e-7


def _chamber_points(rng, k=40):
    """Canonical chamber points in the interior and on each face."""
    pts = {"interior": [canonicalize(rng.uniform(-4, 4, 3)) for _ in range(k)]}
    x, y, z = (rng.uniform(0, 1, k) for _ in range(3))
    s, t = np.maximum(x, y), np.minimum(x, y)
    # a3 = 0 base, a1 <= pi/2
    pts["a3=0"] = [np.array([PI / 2 * p, PI / 2 * q, 0.0]) for p, q in zip(s, t)]
    # a1 = a2 face
    pts["a1=a2"] = [np.array([PI / 2 * p, PI / 2 * p, PI / 2 * q]) for p, q in zip(s, t)]
    # a2 = a3 face
    pts["a2=a3"] = [
        np.array([PI * p * (1 - q / 2), PI / 2 * p * q, PI / 2 * p * q]) for p, q in zip(x, z)
    ]
    # a1 + a2 = pi face
    pts["a1+a2=pi"] = [np.array([PI - PI / 2 * p, PI / 2 * p, PI / 2 * q]) for p, q in zip(s, t)]
    return pts


def test_template_frames():
    """Each n-CNOT skeleton is e^{i theta} (F1 x F2) core_gate(a) (F3 x F4)."""
    pts = _chamber_points(np.random.default_rng(3))
    cases = {
        0: [np.zeros(3)],
        1: [np.array([PI / 2, 0.0, 0.0])],
        2: pts["a3=0"] + [np.array([PI / 2, PI / 2, 0.0])],
        3: [a for face in pts.values() for a in face],
    }
    for n, points in cases.items():
        f1, f2, f3, f4, theta = _TEMPLATE_FRAMES[n]
        for a in points:
            expected = cmath.exp(1j * theta) * kron(f1, f2) @ core_gate(a) @ kron(f3, f4)
            got = evaluate(Circuit(_core_template(a, n)))
            assert frob(got - expected) < 1e-12, (n, a)


def _local(seed):
    rng = np.random.default_rng(seed)
    return kron(unitary_group.rvs(2, random_state=rng), unitary_group.rvs(2, random_state=rng))


# Barycentric weights over the chamber vertices O, A1, A2, A3; a zero
# weight puts the point on a face, two zeros on an edge.
_VERTICES = np.array([[0, 0, 0], [PI, 0, 0], [PI / 2, PI / 2, 0], [PI / 2, PI / 2, PI / 2]])
_LANDMARKS = [(0, 0, 0), (PI / 2, 0, 0), (PI / 2, PI / 2, 0), (PI / 2, PI / 2, PI / 2)]
chamber_point = st.one_of(
    st.lists(st.floats(0, 1), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 1e-3)
    .map(lambda w: canonicalize(np.asarray(w) @ _VERTICES / sum(w))),
    st.sampled_from(_LANDMARKS).map(np.array),
)


@given(chamber_point, seeds, seeds)
def test_synth_general_exact_with_phase(a, left, right):
    u = _local(left) @ core_gate(a) @ _local(right)
    c = synth_general(u)
    # frob, not verify_circuit: the declared global phase must be right too
    assert frob(evaluate(c) - u) <= 1e-7
    assert c.cnot_count == min_cnot_count(a)


def test_synth_general_gate_set():
    u = unitary_group.rvs(4, random_state=RNG)
    for op in synth_general(u).ops:
        assert op.kind in ("H", "S", "SDG", "T", "TDG", "RZ", "CNOT")
        if op.kind == "RZ":
            assert math.isfinite(op.angle)
            assert -PI < op.angle <= PI


def test_corrupted_circuit_detected():
    u = unitary_group.rvs(4, random_state=RNG)
    c = synth_general(u)
    broken = Circuit(list(c.ops), c.phase)
    for i, op in enumerate(broken.ops):
        if op.kind == "RZ":
            broken.ops[i] = GateOp("RZ", op.qubits, op.angle + 0.05)
            break
    assert verify_circuit(broken, u) > 1e-3
    dropped = Circuit([op for op in c.ops if op.kind != "CNOT"], c.phase)
    assert verify_circuit(dropped, u) > 1e-3


def test_synth_riv():
    for p1, chi in [(0.0, 0.0), (0.0, PI / 4), (1.3, 0.6), (2.2, 1.1), (4.0, -0.4)]:
        c = synth_riv(p1, chi)
        target = build_yb(YbSpec("IV", 1, chi, (p1,)))
        assert verify_circuit(c, target) < 1e-10
        assert c.cnot_count == 2
    assert phase_distance(evaluate(synth_riv(0.9, 0.0)), np.eye(4)) < 1e-10
    assert phase_distance(
        evaluate(synth_riv(0.0, PI / 4)), build_braid(BraidSpec("IV", (0.0,)))
    ) < 1e-10


def per_op_unitary(c: Circuit) -> np.ndarray:
    """The circuit as a product of 4x4 op matrices built here, with its phase."""
    cnots = {(0, 1): CNOT, (1, 0): SWAP @ CNOT @ SWAP}
    u = np.eye(4, dtype=complex)
    for op in c.ops:
        if op.kind == "CNOT":
            g = cnots[op.qubits]
        else:
            g2 = rz_matrix(op.angle) if op.kind == "RZ" else _GATES_2X2[op.kind]
            g = np.kron(g2, I2) if op.qubits == (0,) else np.kron(I2, g2)
        u = g @ u
    return cmath.exp(1j * c.phase) * u


def _cell_point(vertices, weights):
    """Barycentric point of the chamber cell spanned by the given vertices:
    one vertex, an edge, or a face."""
    w = np.zeros(4)
    for i, x in zip(sorted(vertices), weights):
        w[i] = x
    return tuple(w @ _VERTICES / w.sum())


cell_points = st.builds(_cell_point, st.sets(st.integers(0, 3), min_size=1, max_size=3),
                        st.lists(st.floats(0.05, 1), min_size=3, max_size=3))
# 0 < a3 < CHAMBER_TOL with a1 > pi/2: the base fold flips a3 and KAK keeps -a3
base_band_points = st.builds(
    lambda s, t, z: (PI / 2 + PI / 2 * s, PI / 2 * (1 - s) * t, 0.9 * CHAMBER_TOL * z),
    st.floats(0.01, 0.99), st.floats(0, 1), st.floats(0.01, 1),
)


@given(st.one_of(cell_points, base_band_points), seeds, seeds)
@example((2.0, 0.5, 5e-8), 0, 1)
@example((PI / 2, 0.0, 0.0), 2, 3)
@example((PI / 2, PI / 2, PI / 2), 4, 5)
def test_synth_general_on_dressed_boundary_points(raw, left, right):
    """Faces, edges, vertices and the base band: the circuit, multiplied out
    op by op, is the gate with its phase, with the minimal CNOT count."""
    u = _local(left) @ core_gate(raw) @ _local(right)
    c = synth_general(u)
    assert frob(per_op_unitary(c) - u) <= 1e-7
    assert c.cnot_count == min_cnot_count(extract_nonlocal(u))


def _check_ops(c: Circuit) -> None:
    """Every op equals the one GateOp(...) validates, RZ angles are finite
    Python floats in (-pi, pi], and qubits are tuples of Python ints."""
    for op in c.ops:
        assert op == GateOp(op.kind, op.qubits, op.angle)
        assert type(op.qubits) is tuple and all(type(q) is int for q in op.qubits)
        if op.kind == "RZ":
            assert type(op.angle) is float and math.isfinite(op.angle)
            assert -PI < op.angle <= PI


@given(st.one_of(seeds.map(lambda s: unitary_group.rvs(4, random_state=np.random.default_rng(s))),
                 st.builds(lambda raw, left, right: _local(left) @ core_gate(raw) @ _local(right),
                           st.one_of(cell_points, base_band_points), seeds, seeds)))
@example(np.eye(4))
@example(SWAP)
def test_synthesized_ops_are_valid_gate_ops(u):
    """The ops synth_general builds without validation are the validated ones."""
    _check_ops(synth_general(u))


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@example(PI, -PI)
@example(0.0, 0.0)
@example(206.28125, 1.4334321826230805e-303)  # the phase of a KAK check underflows
def test_synth_zz_and_riv_ops_are_valid_gate_ops(x, y):
    _check_ops(synth_zz(x))
    _check_ops(synth_riv(x, y))


@pytest.mark.parametrize("v", [
    np.full((2, 2), np.nan),
    np.array([[1, np.nan], [0, 1]]),
    np.array([[np.inf, 0], [0, 1]]),
    np.array([[1, 0], [-np.inf, 1]]),
    np.zeros((2, 2)),
    np.array([[1, 1], [1, 1]]),
])
def test_euler_zxz_rejects_nan_inf_and_singular_input(v):
    with pytest.raises(ValueError):
        synth._euler_entries(*v.ravel().tolist())
