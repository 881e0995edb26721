"""Reference computations the output checks rely on.

Everything here is written from the documented conventions (qubit 0 is
the left tensor factor, circuits list gates in application order,
RZ(t) = diag(e^{-it/2}, e^{it/2}), core(a) = exp(i/2 (a1 XX + a2 YY + a3 ZZ)))
with plain numpy and scipy, so a rewrite of the program's circuit
evaluation, KAK or Kronecker code cannot hide a wrong answer.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.linalg

PI = math.pi
CHAMBER_TOL = 1e-7

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

_FIXED_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]),
    "SDG": np.diag([1, -1j]),
    "T": np.diag([1, cmath.exp(0.25j * PI)]),
    "TDG": np.diag([1, cmath.exp(-0.25j * PI)]),
}


def _cnot(control: int, target: int) -> np.ndarray:
    """CNOT on basis |q0 q1>, built column by column from its truth table."""
    m = np.zeros((4, 4), dtype=complex)
    for q0 in (0, 1):
        for q1 in (0, 1):
            bits = [q0, q1]
            if bits[control]:
                bits[target] ^= 1
            m[2 * bits[0] + bits[1], 2 * q0 + q1] = 1
    return m


_CNOT = {(0, 1): _cnot(0, 1), (1, 0): _cnot(1, 0)}

# Named gates and the chamber points they sit on.
CNOT = _CNOT[(0, 1)]
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = _CNOT[(0, 1)] @ _CNOT[(1, 0)] @ _CNOT[(0, 1)]
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
DCNOT = _CNOT[(1, 0)] @ _CNOT[(0, 1)]
CLASS_POINTS = {
    "identity": (np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
    "cnot": (CNOT, (PI / 2, 0.0, 0.0)),
    "cz": (CZ, (PI / 2, 0.0, 0.0)),
    "iswap": (ISWAP, (PI / 2, PI / 2, 0.0)),
    "dcnot": (DCNOT, (PI / 2, PI / 2, 0.0)),
    "swap": (SWAP, (PI / 2, PI / 2, PI / 2)),
}


def rz(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def op_matrix(kind: str, qubits: tuple, angle) -> np.ndarray:
    """4x4 matrix of one circuit op, as the numpy.kron of its 2x2 factor."""
    if kind == "CNOT":
        return _CNOT[tuple(qubits)]
    g = rz(angle) if kind == "RZ" else _FIXED_1Q[kind]
    (q,) = qubits
    return np.kron(g, I2) if q == 0 else np.kron(I2, g)


def circuit_unitary(ops, phase: float) -> np.ndarray:
    """Unitary of a circuit given as (kind, qubits, angle) triples."""
    u = np.eye(4, dtype=complex)
    for kind, qubits, angle in ops:
        u = op_matrix(kind, qubits, angle) @ u
    return cmath.exp(1j * phase) * u


def phase_free_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of ||a - e^{i phi} b||_F."""
    t = np.vdot(b, a)
    phase = t / abs(t) if abs(t) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian with fixed phases."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def wrap_local(rng, g: np.ndarray) -> np.ndarray:
    """g dressed on both sides with Haar-random single-qubit unitaries."""
    left = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    right = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return left @ g @ right


def core(a) -> np.ndarray:
    """exp(i/2 (a1 XX + a2 YY + a3 ZZ)) by matrix exponential."""
    h = a[0] * np.kron(X, X) + a[1] * np.kron(Y, Y) + a[2] * np.kron(Z, Z)
    return scipy.linalg.expm(0.5j * h)


def chamber_point(rng) -> tuple:
    """A point drawn from the interior of the Weyl chamber
    pi - a2 >= a1 >= a2 >= a3 >= 0, kept 0.05 away from every face."""
    while True:
        a1 = rng.uniform(0.05, PI - 0.05)
        a2 = rng.uniform(0.05, min(a1, PI - a1))
        a3 = rng.uniform(0.05, a2)
        if a1 - a2 > 0.05 and a2 - a3 > 0.05 and a3 > 0.05 and PI - a2 - a1 > 0.05:
            return (a1, a2, a3)


def min_cnots(a, tol: float = CHAMBER_TOL) -> int:
    """Fewest CNOTs for a canonical chamber point: 0 at O, 1 at the CNOT
    point, 2 on the a3 = 0 base, 3 elsewhere (Shende, Markov & Bullock)."""
    a1, a2, a3 = (float(x) for x in a)
    if max(a1, a2, a3) <= tol:
        return 0
    if abs(a1 - PI / 2) <= tol and a2 <= tol and a3 <= tol:
        return 1
    return 2 if a3 <= tol else 3


def ep_from_point(a) -> float:
    """Entangling power 2/9 (1 - prod cos^2 a_i - prod sin^2 a_i)."""
    c = math.prod(math.cos(x) ** 2 for x in a)
    s = math.prod(math.sin(x) ** 2 for x in a)
    return (2 / 9) * (1 - c - s)


def point_distance(a, b, tol: float = CHAMBER_TOL) -> float:
    """Max-coordinate distance between two chamber points.

    On the a3 = 0 base the chamber identifies (a1, a2, 0) with
    (pi - a1, a2, 0); both representatives are compared there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = float(np.max(np.abs(a - b)))
    if a[2] <= tol and b[2] <= tol:
        mirrored = np.array([PI - b[0], b[1], b[2]])
        d = min(d, float(np.max(np.abs(a - mirrored))))
    return d


def mc_tolerance(ep: float, samples: int, sigmas: float = 5.0) -> float:
    """Allowed |MC - ep| for a mean of `samples` linear entropies.

    A linear entropy lies in [0, 1/2], so its variance is at most
    ep (1/2 - ep) (Bhatia-Davis); this bounds sigma from above.
    """
    var = max(ep * (0.5 - ep), 0.0)
    return sigmas * math.sqrt(var / samples) + 1e-12
