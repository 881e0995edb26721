"""Geometric (Weyl chamber) representation of two-qubit gates.

Canonical coordinates (a1, a2, a3) live in the tetrahedron
pi - a2 >= a1 >= a2 >= a3 >= 0 with vertices O = [0,0,0],
A1 = [pi,0,0], A2 = [pi/2,pi/2,0], A3 = [pi/2,pi/2,pi/2].  On the
a3 = 0 base the identification [a1,a2,0] ~ [pi-a1,a2,0] is resolved
by taking a1 <= pi/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SX,
    SY,
    SZ,
    dagger,
    frob,
    is_unitary,
    kron,
    phase_distance,
    sym_unitary_eig,
)

CHAMBER_TOL = 1e-7

# Magic (Bell) basis columns:
# (|00>+|11>)/sqrt2, i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2, i(|00>-|11>)/sqrt2
_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)
_MAGIC_DAG = dagger(_MAGIC)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def magic_basis() -> np.ndarray:
    """The fixed basis change making every core gate diagonal."""
    return _MAGIC.copy()


def core_gate(a) -> np.ndarray:
    """exp(i/2 (a1 XX + a2 YY + a3 ZZ)) for arbitrary finite angles."""
    a1, a2, a3 = (float(x) for x in a)
    # The three terms commute and are diagonal in the magic basis.
    d = np.array(
        [a1 - a2 + a3, a1 + a2 - a3, -a1 - a2 - a3, -a1 + a2 + a3]
    )
    return _MAGIC @ np.diag(np.exp(0.5j * d)) @ _MAGIC_DAG


def _magic_phases_to_a(d: np.ndarray):
    """Invert the linear map (a0, a) -> magic-basis diagonal phases."""
    d1, d2, d3, d4 = d
    a0 = (d1 + d2 + d3 + d4) / 4
    a1 = (d1 + d2 - d3 - d4) / 2
    a2 = (-d1 + d2 - d3 + d4) / 2
    a3 = (d1 - d2 - d3 + d4) / 2
    return a0, np.array([a1, a2, a3])


def _magic_frame(u: np.ndarray) -> np.ndarray:
    """The SU(4)-normalized gate in the magic basis."""
    u = np.asarray(u, dtype=complex)
    v = u * np.linalg.det(u) ** (-0.25)
    return _MAGIC_DAG @ v @ _MAGIC


# ---------------------------------------------------------------------------
# Weyl chamber canonicalization
# ---------------------------------------------------------------------------

def _canonical_moves(raw):
    """Reduce a raw coordinate triple to the chamber, returning the move list.

    Moves are ('shift', i, n) for a_i -> a_i + n*pi, ('swap', i, j) and
    ('flip', i, j) for pairwise sign flips; they act right-to-left on the
    stored coordinates so a decomposition tracker can replay them.
    """
    a = [float(x) for x in raw]
    moves = []

    def shift_into_range(i):
        n = math.floor(a[i] / math.pi)
        if n != 0:
            a[i] -= n * math.pi
            moves.append(("shift", i, -n))

    def sort_desc():
        for i, j in ((0, 1), (1, 2), (0, 1)):
            if a[i] < a[j]:
                a[i], a[j] = a[j], a[i]
                moves.append(("swap", i, j))

    for i in range(3):
        shift_into_range(i)
    sort_desc()
    if a[0] + a[1] > math.pi:
        # (a1, a2) -> (pi - a1, pi - a2) via a pairwise flip plus shifts
        a[0], a[1] = -a[0], -a[1]
        moves.append(("flip", 0, 1))
        a[0] += math.pi
        moves.append(("shift", 0, 1))
        a[1] += math.pi
        moves.append(("shift", 1, 1))
        sort_desc()
    if a[2] <= CHAMBER_TOL and a[0] > math.pi / 2:
        a[0], a[2] = -a[0], -a[2]
        moves.append(("flip", 0, 2))
        a[0] += math.pi
        moves.append(("shift", 0, 1))
        sort_desc()
    return np.array(a), moves


def _sort_desc(a: np.ndarray, rows) -> None:
    """The compare-swap network of `_canonical_moves`, on the selected rows."""
    for i, j in ((0, 1), (1, 2), (0, 1)):
        swap = rows & (a[..., i] < a[..., j])
        a[..., i], a[..., j] = (
            np.where(swap, a[..., j], a[..., i]),
            np.where(swap, a[..., i], a[..., j]),
        )


def canonicalize(raw) -> np.ndarray:
    """Chamber representative of the Weyl orbit of raw coordinate triples.

    raw has shape (3,) or (..., 3); the result has the same shape, each
    row reduced as `_canonical_moves` reduces it, bit for bit.
    """
    a = np.array(raw, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"canonicalize takes (..., 3) coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("canonicalize requires finite coordinates")
    pi = math.pi
    n = np.floor(a / pi)
    a = np.where(n != 0, a - n * pi, a)
    _sort_desc(a, True)
    # (a1, a2) -> (pi - a1, pi - a2) via a pairwise flip plus shifts
    fold = a[..., 0] + a[..., 1] > pi
    a[..., 0] = np.where(fold, -a[..., 0] + pi, a[..., 0])
    a[..., 1] = np.where(fold, -a[..., 1] + pi, a[..., 1])
    _sort_desc(a, fold)
    # the a3 = 0 identification [a1, a2, 0] ~ [pi - a1, a2, 0]
    base = (a[..., 2] <= CHAMBER_TOL) & (a[..., 0] > pi / 2)
    a[..., 0] = np.where(base, -a[..., 0] + pi, a[..., 0])
    a[..., 2] = np.where(base, -a[..., 2], a[..., 2])
    _sort_desc(a, base)
    return a


def weyl_orbit(raw) -> list:
    """All images of a point under the 24-element Weyl group, reduced mod pi.

    Brute-force oracle: coordinate permutations x pairwise sign flips,
    each coordinate then shifted into [0, pi).
    """
    import itertools

    a = np.asarray(raw, dtype=float)
    out = []
    for perm in itertools.permutations(range(3)):
        p = a[list(perm)]
        for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            q = p * signs
            out.append(np.mod(q, math.pi))
    return out


# ---------------------------------------------------------------------------
# KAK decomposition
# ---------------------------------------------------------------------------

# The canonicalization moves as det-1 single-qubit gates (i times a
# Hermitian one).  Swap of axes (i, j): (c x c) core(a) (c x c)^dag
# permutes the Pauli axes i and j.
_C_SWAP = {
    (0, 1): 1j * (SX + SY) / np.sqrt(2),  # X<->Y
    (1, 2): 1j * (SY + SZ) / np.sqrt(2),  # Y<->Z
}
# Pairwise sign flip of axes (i, j): conjugation by the third Pauli axis.
_FLIP_AXIS = {(0, 1): 1j * SZ, (0, 2): 1j * SY}
# Shift of axis i by an odd multiple of pi: the Pauli of that axis.
_SHIFT_AXIS = (1j * SX, 1j * SY, 1j * SZ)


@dataclass
class KakDecomposition:
    """U = e^{i phase} (v1 x v2) core_gate(a) (v3 x v4), a canonical."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray
    a: np.ndarray
    phase: float

    def reconstruct(self) -> np.ndarray:
        return (
            cmath.exp(1j * self.phase)
            * kron(self.v1, self.v2)
            @ core_gate(self.a)
            @ kron(self.v3, self.v4)
        )


def _factor_local(k: np.ndarray):
    """Split k = e^{i phase} (a x b) with det a = det b = 1.

    The phase is that of the overlap tr((a x b)^dag k) = 4 e^{i phase}.
    """
    f = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(f)
    if s[1] > 1e-7:
        raise ValueError(f"matrix is not a tensor product (s1 = {s[1]:.2e})")
    a, b = u[:, 0].reshape(2, 2), vh[0, :].reshape(2, 2)
    a, b = a / cmath.sqrt(np.linalg.det(a)), b / cmath.sqrt(np.linalg.det(b))
    phase = cmath.phase(np.trace(dagger(kron(a, b)) @ k))
    return a, b, phase


def _magic_kak_raw(u: np.ndarray):
    """Raw magic-basis KAK: U = e^{i a0} K1 core(a_raw) K2 with K's local."""
    ubar = _magic_frame(u)
    m = ubar.T @ ubar
    angles, p = sym_unitary_eig(m)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]
    half = angles / 2
    d = np.exp(1j * half)
    left = ubar @ p @ np.diag(1 / d)
    if np.linalg.det(left).real < 0:
        half = half.copy()
        half[0] += math.pi
        d = np.exp(1j * half)
        left = ubar @ p @ np.diag(1 / d)
    if frob(left.imag) > 1e-6:
        raise ValueError("KAK factor failed to be real orthogonal")
    left = left.real
    k1 = _MAGIC @ left @ _MAGIC_DAG
    k2 = _MAGIC @ p.T @ _MAGIC_DAG
    a0, a_raw = _magic_phases_to_a(half)
    phase = a0 + cmath.phase(np.linalg.det(np.asarray(u, dtype=complex)) ** 0.25)
    return k1, a_raw, k2, phase


def kak_decompose(u: np.ndarray) -> KakDecomposition:
    """Cartan decomposition with the core coordinates in the Weyl chamber.

    The raw local factors are split into det-1 2x2 gates once, and the
    canonicalization moves are replayed on those as det-1 gates.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, 1e-8):
        raise ValueError("kak_decompose requires a unitary input")
    k1, a_raw, k2, phase = _magic_kak_raw(u)
    v1, v2, p1 = _factor_local(k1)
    v3, v4, p2 = _factor_local(k2)
    phase += p1 + p2
    a, moves = _canonical_moves(a_raw)
    for kind, i, j in moves:
        if kind == "shift":
            # a_i += j pi: core(a_old) = core(a_new) (-i sigma x sigma)^j,
            # and sigma x sigma = -(i sigma) x (i sigma)
            if j % 2:
                s = _SHIFT_AXIS[i]
                v3, v4, phase = s @ v3, s @ v4, phase + math.pi
            phase -= j * math.pi / 2
        elif kind == "swap":
            # the signs -1 of c x c and of its inverse cancel
            c = _C_SWAP[i, j]
            v1, v2, v3, v4 = v1 @ c, v2 @ c, dagger(c) @ v3, dagger(c) @ v4
        else:
            # flip: sigma x I = -i (i sigma x I), on both sides
            s = _FLIP_AXIS[i, j]
            v1, v3, phase = v1 @ s, s @ v3, phase + math.pi
    phase = float(phase % (2 * math.pi))
    dec = KakDecomposition(v1, v2, v3, v4, a, phase)
    resid = phase_distance(dec.reconstruct(), u)
    if resid > 1e-8:
        raise ValueError(f"KAK reconstruction residual {resid:.2e} exceeds 1e-8")
    return dec


def extract_nonlocal(u: np.ndarray) -> np.ndarray:
    """Canonical chamber coordinates of a two-qubit unitary."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, 1e-8):
        raise ValueError("extract_nonlocal requires a unitary input")
    _, a_raw, _, _ = _magic_kak_raw(u)
    return canonicalize(a_raw)


def locally_equivalent(u: np.ndarray, v: np.ndarray, tol: float = 1e-7) -> bool:
    au = extract_nonlocal(u)
    av = extract_nonlocal(v)
    return bool(np.max(np.abs(au - av)) <= tol)


# ---------------------------------------------------------------------------
# Entangling power
# ---------------------------------------------------------------------------

def entangling_power(u: np.ndarray) -> float:
    """Closed-form average output linear entropy over Haar product inputs."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, 1e-8):
        raise ValueError("entangling_power requires a unitary input")
    uq = _magic_frame(u)
    tr = np.trace(uq.T @ uq)
    ep = (2 / 9) * (1 - abs(tr) ** 2 / 16)
    return float(min(max(ep, 0.0), 2 / 9))


def entangling_power_from_point(a):
    """Entangling power of the core gate at chamber points of shape (..., 3)."""
    a = np.asarray(a, dtype=float)
    c, s = np.cos(a) ** 2, np.sin(a) ** 2
    return (2 / 9) * (1 - (c[..., 0] * c[..., 1] * c[..., 2] + s[..., 0] * s[..., 1] * s[..., 2]))


def entangling_power_mc(u: np.ndarray, n: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the average output linear entropy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.asarray(u, dtype=complex)
    rng = np.random.default_rng(seed)
    n = int(n)
    z = rng.standard_normal((2, n, 2)) + 1j * rng.standard_normal((2, n, 2))
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    psi = np.einsum("ni,nj->nij", z[0], z[1]).reshape(n, 4) @ u.T
    m = psi.reshape(n, 2, 2)
    rho = m @ np.conj(m).transpose(0, 2, 1)
    purity = np.einsum("nij,nji->n", rho, rho).real
    return float(np.mean(1.0 - purity))


def min_cnot_count(a, tol: float = CHAMBER_TOL) -> int:
    """Minimal CNOTs needed for a canonical chamber point."""
    a1, a2, a3 = (float(x) for x in a)
    if max(a1, a2, a3) <= tol:
        return 0
    if abs(a1 - math.pi / 2) <= tol and a2 <= tol and a3 <= tol:
        return 1
    if a3 <= tol:
        return 2
    return 3


# ---------------------------------------------------------------------------
# Chamber location tags
# ---------------------------------------------------------------------------

def chamber_location(a, tol: float = CHAMBER_TOL) -> str:
    """Vertex / edge / face / interior tag of a canonical chamber point."""
    a1, a2, a3 = (float(x) for x in a)
    pi = math.pi

    def near(x, y):
        return abs(x - y) <= tol

    if near(a1, 0) and near(a2, 0) and near(a3, 0):
        return "O"
    if near(a1, pi) and near(a2, 0) and near(a3, 0):
        return "A1"
    if near(a1, pi / 2) and near(a2, pi / 2) and near(a3, 0):
        return "A2"
    if near(a1, pi / 2) and near(a2, pi / 2) and near(a3, pi / 2):
        return "A3"
    if near(a2, 0) and near(a3, 0):
        return "mid OA1" if near(a1, pi / 2) else "OA1"
    if near(a1, a2) and near(a3, 0):
        return "OA2"
    if near(a1, a2) and near(a2, a3):
        return "OA3"
    if near(a1 + a2, pi) and near(a3, 0):
        return "A1A2"
    if near(a2, a3) and near(a1 + a2, pi):
        return "A1A3"
    if near(a1, pi / 2) and near(a2, pi / 2):
        return "A2A3"
    if near(a3, 0):
        return "OA1A2"
    if near(a1, a2):
        return "OA2A3"
    if near(a1 + a2, pi):
        return "A1A2A3"
    if near(a2, a3):
        return "OA1A3"
    return "interior"
