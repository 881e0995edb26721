"""Two-qubit circuit synthesis over the gate set {Rz, H, S, Sdg, T, Tdg, CNOT}.

Circuits are ordered gate lists in application order (the leftmost
diagram gate comes first); qubit 0 is the left tensor factor.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .baxterize import YbSpec, build_yb
from .linalg import I2, SX, SZ, dagger, kron_entries, phase_distance
from .weyl import kak_decompose, min_cnot_count

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = dagger(_S)
_T = np.diag([1, cmath.exp(0.25j * math.pi)]).astype(complex)


_FIXED_1Q = {"H": _H, "S": _S, "SDG": _SDG, "T": _T, "TDG": dagger(_T)}
# Every angle-free single-qubit gate as its entries (g00, g01, g10, g11).
_ENTRIES_1Q = {kind: tuple(g.ravel().tolist()) for kind, g in _FIXED_1Q.items()}
# A CNOT permutes basis states: row order of CNOT @ m for each (control, target).
_CNOT_ROWS = {(0, 1): (0, 1, 3, 2), (1, 0): (0, 3, 2, 1)}
_ID_2X2 = (1 + 0j, 0j, 0j, 1 + 0j)
# Every valid (kind, qubits) key.
_OP_KEYS = frozenset([(kind, (q,)) for kind in (*_ENTRIES_1Q, "RZ") for q in (0, 1)]
                     + [("CNOT", qubits) for qubits in _CNOT_ROWS])


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple
    angle: float | None = None

    def __post_init__(self):
        # operator.index makes each qubit a Python int; it refuses floats,
        # strings, None, complex values and numpy bools with a TypeError,
        # as hashing refuses a kind that is not hashable
        try:
            qubits = tuple(map(operator.index, self.qubits))
            valid = (self.kind, qubits) in _OP_KEYS
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"no gate {self.kind!r} on qubits {self.qubits!r}")
        object.__setattr__(self, "qubits", qubits)
        if self.kind == "RZ":
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError("RZ needs a finite angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def matrix(self) -> np.ndarray:
        """4x4 matrix of the op, qubit 0 the left factor: its one-op circuit."""
        return evaluate(Circuit([self]))


# One shared instance of every angle-free op: GateOp is frozen, so circuits
# may hold the same instance any number of times.
_SHARED_OPS = {key: GateOp(*key) for key in _OP_KEYS if key[0] != "RZ"}


@dataclass
class Circuit:
    ops: list = field(default_factory=list)
    phase: float = 0.0

    @property
    def cnot_count(self) -> int:
        return sum(1 for op in self.ops if op.kind == "CNOT")


def _mul(x: tuple, y: tuple) -> tuple:
    """Entries of the product of two 2x2 matrices given as their entries."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def evaluate(c: Circuit) -> np.ndarray:
    """Unitary of the circuit, including its declared global phase.

    The single-qubit ops between two CNOTs act on one 2x2 accumulator per
    qubit, held as four Python complex entries: RZ scales its rows by
    exp(-+i theta/2), the other kinds multiply in their fixed entries.  Each
    CNOT, and the end of the circuit, closes a segment: the 16 entries of
    the kron of the two accumulators, rows permuted by the CNOT.  The phase
    is folded into the last segment's qubit-0 accumulator, and the segments
    become one (n, 4, 4) array, multiplied from the first on.
    """
    entries: list = []
    acc = [_ID_2X2, _ID_2X2]
    for op in c.ops:
        kind = op.kind
        if kind == "CNOT":
            entries += kron_entries(*acc, _CNOT_ROWS[op.qubits])
            acc = [_ID_2X2, _ID_2X2]
            continue
        q = op.qubits[0]
        if kind == "RZ":
            x00, x01, x10, x11 = acc[q]
            e = cmath.exp(-0.5j * op.angle)
            f = e.conjugate()
            acc[q] = (e * x00, e * x01, f * x10, f * x11)
        else:
            acc[q] = _mul(_ENTRIES_1Q[kind], acc[q])
    e = cmath.exp(1j * c.phase)
    x00, x01, x10, x11 = acc[0]
    entries += kron_entries((e * x00, e * x01, e * x10, e * x11), acc[1])
    segments = np.array(entries, dtype=complex).reshape(-1, 4, 4)
    u = segments[0]
    for s in segments[1:]:
        u = s @ u
    return u


def verify_circuit(c: Circuit, target: np.ndarray) -> float:
    return phase_distance(evaluate(c), target)


def _wrap(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.fmod(theta, 2 * math.pi)
    if t > math.pi:
        t -= 2 * math.pi
    elif t <= -math.pi:
        t += 2 * math.pi
    return t


def _euler_entries(v00: complex, v01: complex, v10: complex, v11: complex):
    """Angles (alpha, beta, gamma, phase) with V = e^{i phase} Rz(a) Rx(b) Rz(g)
    for the 2x2 matrix V of the entries v00, v01, v10, v11.

    alpha and gamma are in (-pi, pi], beta in [0, pi].  When the
    middle angle is 0 or pi within 1e-12, gamma is set to 0 and folded into
    alpha.  A matrix that is not a phase times a unitary to 1e-10, singular
    or non-finite ones included, raises ValueError.
    """
    det = v00 * v11 - v01 * v10
    if det == 0 or not cmath.isfinite(det):
        raise ValueError("single-qubit Euler decomposition of a singular or non-finite matrix")
    root = cmath.sqrt(det)
    w00, w01, w10 = v00 / root, v01 / root, v10 / root
    cb, sb = abs(w00), abs(w01)
    beta = 2 * math.atan2(sb, cb)
    if sb <= 1e-12:
        alpha, beta, gamma = -2 * cmath.phase(w00), 0.0, 0.0
    elif cb <= 1e-12:
        alpha, beta, gamma = 2 * (cmath.phase(w10) + math.pi / 2), math.pi, 0.0
    else:
        half_sum = -cmath.phase(w00)
        half_diff = cmath.phase(w10) + math.pi / 2
        alpha = half_sum + half_diff
        gamma = half_sum - half_diff
    alpha, gamma = _wrap(alpha), _wrap(gamma)
    # Rz(alpha) Rx(beta) Rz(gamma) = [[c p, -i s q], [-i s q*, c p*]]
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    p, q = cmath.exp(-0.5j * (alpha + gamma)), cmath.exp(-0.5j * (alpha - gamma))
    r00, r01, r10, r11 = c * p, -1j * s * q, -1j * s * q.conjugate(), c * p.conjugate()
    phase = cmath.phase(r00.conjugate() * v00 + r01.conjugate() * v01
                        + r10.conjugate() * v10 + r11.conjugate() * v11)
    e = cmath.exp(1j * phase)
    err = math.hypot(abs(v00 - e * r00), abs(v01 - e * r01), abs(v10 - e * r10), abs(v11 - e * r11))
    # written so that a NaN residual fails
    if not err <= 1e-10:
        raise ValueError("single-qubit Euler decomposition failed")
    return alpha, beta, gamma, phase


def _rz(q: int, theta: float) -> GateOp:
    """RZ on qubit q (0 or 1) at an angle that is finite and in (-pi, pi].

    Synthesis makes only such angles, so the op is built without the
    validation of GateOp(...): its three fields are set directly.
    """
    op = object.__new__(GateOp)
    op.__dict__.update(kind="RZ", qubits=(q,), angle=theta)
    return op


def _emit_rz(ops: list, q: int, theta: float) -> None:
    theta = _wrap(theta)
    if abs(theta) > 1e-14:
        ops.append(_rz(q, theta))


def _emit_local(ops: list, q: int, v: tuple) -> float:
    """Append ops realizing the 2x2 unitary with entries v on qubit q;
    returns its phase.  The Euler angles are already wrapped."""
    alpha, beta, gamma, phase = _euler_entries(*v)
    if abs(gamma) > 1e-14:
        ops.append(_rz(q, gamma))
    if abs(beta) > 1e-14:
        h = _SHARED_OPS["H", (q,)]
        ops += (h, _rz(q, beta), h)
    if abs(alpha) > 1e-14:
        ops.append(_rz(q, alpha))
    return phase


def synth_zz(theta: float) -> Circuit:
    """Circuit for exp(-i theta/2 Z x Z) with two CNOTs."""
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    cx = _SHARED_OPS["CNOT", (0, 1)]
    ops = [cx, GateOp("RZ", (1,), _wrap(theta)), cx]
    return Circuit(ops)


def _core_template(a: list, n: int) -> list:
    """Gate skeleton realizing core_gate(a) inside fixed frames with n CNOTs.

    For every canonical chamber point a, given as a list of three floats,
    with min_cnot_count(a) == n, evaluate(Circuit(_core_template(a, n)))
    equals e^{i theta} (F1 x F2) core_gate(a) (F3 x F4) exactly, with
    (F1, F2, F3, F4, theta) = _TEMPLATE_FRAMES[n].
    """
    a1, a2, a3 = a
    if n == 0:
        return []
    cx = _SHARED_OPS["CNOT", (0, 1)]
    h0 = _SHARED_OPS["H", (0,)]
    if n == 1:
        return [cx]
    if n == 2:
        # CNOT (Rx(-a1) x Rz(-a2)) CNOT = exp(i/2 (a1 XX + a2 ZZ))
        ops = [cx, h0]
        _emit_rz(ops, 0, -a1)
        ops.append(h0)
        _emit_rz(ops, 1, -a2)
        ops.append(cx)
        return ops
    ops = [cx, h0]
    _emit_rz(ops, 0, math.pi / 2 - a2)
    _emit_rz(ops, 1, -a1)
    ops.append(cx)
    _emit_rz(ops, 1, a3)
    ops += [_SHARED_OPS["H", (1,)], _SHARED_OPS["CNOT", (1, 0)]]
    return ops


# Fixed Clifford frames (F1, F2, F3, F4, theta) of each n-CNOT skeleton,
# independent of the chamber point (Vatan & Williams, PRA 69, 032315;
# Shende, Markov & Bullock, PRA 69, 062321).
_TEMPLATE_FRAMES = {
    0: (I2, I2, I2, I2, 0.0),
    1: (SZ @ _H @ SZ, I2, SZ @ _H @ _S, _S @ _H @ _S, 0.0),
    2: (_SDG @ _H @ _S,) * 4 + (0.0,),
    3: (_S @ _H @ SX @ _S @ _H, _SDG @ _H @ SX @ _S @ _H)
    + (SZ @ _H @ _S,) * 2 + (0.75 * math.pi,),
}
# (F1^dag, F2^dag, F3^dag, F4^dag, theta) of each skeleton, each dagger as
# its entries (g00, g01, g10, g11).
_FRAME_DAGGERS = {
    n: tuple(tuple(dagger(g).ravel().tolist()) for g in f[:4]) + f[4:]
    for n, f in _TEMPLATE_FRAMES.items()
}


def synth_general(u: np.ndarray) -> Circuit:
    """Minimal-CNOT circuit for an arbitrary two-qubit unitary.

    The CNOT skeleton matching the canonical chamber point is dressed
    with single-qubit corrections that map the target's Cartan frames
    onto the skeleton's fixed template frames.
    """
    u = np.asarray(u, dtype=complex)
    ku = kak_decompose(u)
    a = ku.a.tolist()
    n = min_cnot_count(a)
    f1d, f2d, f3d, f4d, theta = _FRAME_DAGGERS[n]
    f = ku.factors
    v1, v2, v3, v4 = f[0:4], f[4:8], f[8:12], f[12:16]
    ops: list = []
    phase = ku.phase - theta
    phase += _emit_local(ops, 0, _mul(f3d, v3))
    phase += _emit_local(ops, 1, _mul(f4d, v4))
    ops += _core_template(a, n)
    phase += _emit_local(ops, 0, _mul(v1, f1d))
    phase += _emit_local(ops, 1, _mul(v2, f2d))
    c = Circuit(ops, _wrap(phase))
    res = verify_circuit(c, u)
    if not res <= 1e-7:
        raise ValueError(f"synthesis reconstruction failed (residual {res:.2e})")
    return c


def synth_riv(phi1: float, chi: float) -> Circuit:
    """Two-CNOT circuit for the spectral-deformed corner-exchange gate."""
    for v in (phi1, chi):
        if not math.isfinite(v):
            raise ValueError("parameters must be finite")
    ops: list = []
    _emit_rz(ops, 0, phi1 / 2)
    _emit_rz(ops, 1, phi1 / 2)
    h0, h1, cx = _SHARED_OPS["H", (0,)], _SHARED_OPS["H", (1,)], _SHARED_OPS["CNOT", (0, 1)]
    ops += [_SHARED_OPS["S", (0,)], h0, h1, cx]
    _emit_rz(ops, 1, 2 * chi)
    ops += [cx, h0, h1, _SHARED_OPS["SDG", (0,)]]
    _emit_rz(ops, 0, -phi1 / 2)
    _emit_rz(ops, 1, -phi1 / 2)
    target = build_yb(YbSpec("IV", 1, chi, (phi1,)))
    c = Circuit(ops)
    t = np.trace(dagger(evaluate(c)) @ target)
    c.phase = cmath.phase(t) if abs(t) > 0 else 0.0
    res = verify_circuit(c, target)
    if not res <= 1e-10:
        raise ValueError(f"synthesis reconstruction failed (residual {res:.2e})")
    return c
