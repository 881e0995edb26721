"""Geometric (Weyl chamber) representation of two-qubit gates.

Canonical coordinates (a1, a2, a3) live in the tetrahedron
pi - a2 >= a1 >= a2 >= a3 >= 0 with vertices O = [0,0,0],
A1 = [pi,0,0], A2 = [pi/2,pi/2,0], A3 = [pi/2,pi/2,pi/2].  On the
a3 = 0 base the identification [a1,a2,0] ~ [pi-a1,a2,0] is resolved
by taking a1 <= pi/2.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI_STRINGS, dagger, kron_entries, phase_distance, sym_unitary_eig, unitary_part,
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


# Magic-basis phases of a core gate: core_gate(a) =
# _MAGIC diag(exp(i d/2)) _MAGIC^dag with d = _PHASE_MAP a.  The columns
# are orthogonal with norm 2, so a = (d @ _PHASE_MAP) / 4.
_PHASE_MAP = np.array([[1, -1, 1], [1, 1, -1], [-1, -1, -1], [-1, 1, 1]], dtype=float)


def _core(half: np.ndarray) -> np.ndarray:
    """core_gate(a) from half = exp(i d/2), d = _PHASE_MAP a."""
    return (_MAGIC * half) @ _MAGIC_DAG


def core_gate(a) -> np.ndarray:
    """exp(i/2 (a1 XX + a2 YY + a3 ZZ)) for arbitrary finite angles."""
    # The three terms commute and are diagonal in the magic basis.
    return _core(np.exp(0.5j * (_PHASE_MAP @ np.asarray(a, dtype=float))))


def _gram(u: np.ndarray):
    """(det, ubar, m) of a gate: det = det(gate), ubar its SU(4)-normalized
    magic-basis form and m = ubar^T ubar, which the chamber point and the
    entangling power are read off.  The gate is u admitted at 1e-8
    (`linalg.unitary_part`).
    """
    gate, _ = unitary_part(u, 1e-8)
    det = np.linalg.det(gate)
    ubar = _MAGIC_DAG @ (gate * det ** (-0.25)) @ _MAGIC
    return det, ubar, ubar.T @ ubar


def _spectrum(u: np.ndarray):
    """(det, ubar, angles, p) of a gate: `_gram` with
    m = p diag(exp(i angles)) p^T, p real orthogonal (`sym_unitary_eig`).

    Every chamber point of the library is read off these angles.
    """
    det, ubar, m = _gram(u)
    angles, p = sym_unitary_eig(m)
    return det, ubar, angles, p


# ---------------------------------------------------------------------------
# Weyl chamber canonicalization
# ---------------------------------------------------------------------------

def _canonical_point(raw, clamp: bool = True) -> list:
    """Reduce a raw coordinate triple to the chamber, on Python floats.

    Each a_i is shifted into [0, pi] (pi when it lies within rounding below
    a multiple of pi), the triple is sorted descending,
    (a1, a2) -> (pi - a1, pi - a2) when a1 + a2 > pi, and
    [a1, a2, a3] -> [pi - a1, a2, -a3] when a3 <= CHAMBER_TOL and
    a1 > pi/2, each fold followed by a re-sort.  Every step is an exact
    Weyl move.  The base fold leaves a3 in [-CHAMBER_TOL, 0], outside the
    chamber, so it is clamped to 0, which moves the gate by up to
    CHAMBER_TOL.  With clamp=False the exact image -a3 is kept: KAK needs
    it, since its 1e-8 reconstruction check is tighter than CHAMBER_TOL.
    """
    a = [float(x) for x in raw]
    pi = math.pi

    def sort_desc():
        for i, j in ((0, 1), (1, 2), (0, 1)):
            if a[i] < a[j]:
                a[i], a[j] = a[j], a[i]

    for i in range(3):
        n = math.floor(a[i] / pi)
        if n != 0:
            a[i] -= n * pi
        if a[i] < 0:  # a / pi underflowed to -0.0 or rounded up to an integer
            a[i] += pi
    sort_desc()
    if a[0] + a[1] > pi:
        a[0], a[1] = -a[0] + pi, -a[1] + pi
        sort_desc()
    if a[2] <= CHAMBER_TOL and a[0] > pi / 2:
        a[0], a[2] = -a[0] + pi, 0.0 if clamp else -a[2]
        sort_desc()
    return a


def _sort_desc(a: np.ndarray) -> np.ndarray:
    """Sort the rows of a descending, in place.  A stable sort of -a keeps
    ties (+0 and -0 among them) in order, as the swaps of `_canonical_point`
    do, and leaves a sorted row as it is, so a fold needs no row mask."""
    np.negative(a, out=a)
    a.sort(axis=-1, kind="stable")
    return np.negative(a, out=a)


def canonicalize(raw) -> np.ndarray:
    """Chamber representative of the Weyl orbit of raw coordinate triples.

    raw has shape (3,) or (..., 3); the result has the same shape, each
    row reduced as `_canonical_point` reduces it, bit for bit.  A single
    triple goes through `_canonical_point` itself, which on Python floats
    is faster than the array code on 0-d views.
    """
    a = np.array(raw, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"canonicalize takes (..., 3) coordinates, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("canonicalize requires finite coordinates")
    if a.shape == (3,):
        return np.array(_canonical_point(a.tolist()))
    pi = math.pi
    n = np.floor(a / pi)
    a = np.where(n != 0, a - n * pi, a)
    np.add(a, pi, out=a, where=a < 0)
    _sort_desc(a)
    # (a1, a2) -> (pi - a1, pi - a2) via a pairwise flip plus shifts
    fold = a[..., 0] + a[..., 1] > pi
    a[..., 0] = np.where(fold, -a[..., 0] + pi, a[..., 0])
    a[..., 1] = np.where(fold, -a[..., 1] + pi, a[..., 1])
    _sort_desc(a)
    # the a3 = 0 identification [a1, a2, 0] ~ [pi - a1, a2, 0], a3 clamped
    base = (a[..., 2] <= CHAMBER_TOL) & (a[..., 0] > pi / 2)
    a[..., 0] = np.where(base, -a[..., 0] + pi, a[..., 0])
    a[..., 2] = np.where(base, 0.0, a[..., 2])
    return _sort_desc(a)


def _chamber_point(angles: np.ndarray, clamp: bool) -> np.ndarray:
    """Chamber point of a gate from the eigenphases of m = ubar^T ubar.

    Half the phases are the magic-basis phases of a core gate up to a
    global phase, once pi is added to one of them if their sum is an odd
    multiple of pi (det ubar = 1 makes it a multiple of pi).  The point is
    reduced as `_canonical_point` reduces it: clamped into the chamber, or,
    with clamp=False, the exact Weyl image that KAK reconstructs the gate from.
    """
    h0, h1, h2, h3 = (x / 2 for x in angles.tolist())
    if math.cos(h0 + h1 + h2 + h3) < 0:
        h0 += math.pi
    # the columns of _PHASE_MAP, on Python floats
    raw = ((h0 + h1 - h2 - h3) / 2, (-h0 + h1 - h2 + h3) / 2, (h0 - h1 - h2 + h3) / 2)
    return np.array(_canonical_point(raw, clamp))


# ---------------------------------------------------------------------------
# KAK decomposition
# ---------------------------------------------------------------------------

# The 24 column orders of the eigenbasis, and the signs s = e^{2i theta}
# for theta = 0, pi/2.  Entry [k, j, l] of _MATCH is the flat index of
# (s_j, _PERMS[k][l], l) in the (2, 4, 4) table |exp(i angles) - s exp(i d)|.
_PERMS = np.array(list(itertools.permutations(range(4))))
_SIGNS = np.array([1.0, -1.0])
_MATCH = np.arange(2)[:, None] * 16 + _PERMS[:, None, :] * 4 + np.arange(4)


def _associate_table() -> np.ndarray:
    """The real map vec(o) -> vec(t) with t = x y^T for o in SO(4).

    _MAGIC o _MAGIC^dag = A x B with vec(A) = sqrt2 _MAGIC x and
    vec(B) = sqrt2 _MAGIC y, x and y real unit 4-vectors, and the
    realignment r[2i + j, 2p + q] = (A x B)[2i + p, 2j + q] of A x B is
    vec(A) vec(B)^T.  So t = _MAGIC^dag r conj(_MAGIC) / 2: linear in o,
    and real for every real o, since SO(4) spans the real 4x4 matrices.
    Column k is the image of the unit matrix with a 1 at flat index k; each
    entry is 0 or +-1/4, rounded to be exact.
    """
    k = _MAGIC @ np.eye(16).reshape(16, 4, 4) @ _MAGIC_DAG
    r = k.reshape(16, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(16, 4, 4)
    t = (_MAGIC_DAG @ r @ _MAGIC.conj()).reshape(16, 16).T / 2
    return np.round(4 * t.real) / 4


_ASSOC = _associate_table()
# the same map for o^T, read off vec(o)
_ASSOC_T = _ASSOC.reshape(16, 4, 4).transpose(0, 2, 1).reshape(16, 16)


def _kak_product(factors: list, phase: float, half: np.ndarray) -> np.ndarray:
    """e^{i phase} (v1 x v2) _MAGIC diag(half) _MAGIC^dag (v3 x v4) for the
    16 entries of v1, v2, v3, v4 in `factors`.

    Both brackets are built from the entries as one (2, 4, 4) array, the
    phase folded into v1; with half = exp(i d/2), d = _PHASE_MAP a, the
    middle is `_core(half)`, that is core_gate(a).
    """
    e = cmath.exp(1j * phase)
    v1 = [e * x for x in factors[0:4]]
    k = np.array(kron_entries(v1, factors[4:8]) + kron_entries(factors[8:12], factors[12:16]),
                 dtype=complex).reshape(2, 4, 4)
    return k[0] @ _core(half) @ k[1]


@dataclass(eq=False)
class KakDecomposition:
    """U = e^{i phase} (v1 x v2) core_gate(a) (v3 x v4), a canonical.

    `factors` holds the 16 entries of the SU(2) gates v1, v2, v3, v4, each
    row-major, as Python complex numbers.  Decompositions compare by
    identity, as the array `a` has no single truth value.
    """

    factors: list
    a: np.ndarray
    phase: float

    def reconstruct(self) -> np.ndarray:
        return _kak_product(self.factors, self.phase, np.exp(0.5j * (_PHASE_MAP @ self.a)))


def _local_factors(left: np.ndarray, p: np.ndarray) -> list:
    """The 16 entries of SU(2) gates v1, v2, v3, v4 (each row-major), with
    _MAGIC left _MAGIC^dag = v1 x v2 and _MAGIC p^T _MAGIC^dag = v3 x v4,
    for left and p in SO(4).

    Each rotation gives t = x y^T through `_ASSOC` (see `_associate_table`).
    With y the largest-norm row of t, normalised, and x = t y, normalised,
    x y^T is t exactly for a rotation, and x gives the gate
    ((x0 + i x3, x2 + i x1), (-x2 + i x1, x0 - i x3)), of det |x|^2 = 1.
    _MAGIC and the realignment keep the Frobenius norm, so
    2 |t - x y^T| is the distance of the bracket from v1 x v2; past 1e-7
    over both rotations (a det -1 matrix, a NaN), one of them is not a
    tensor product.
    """
    entries, dists = [], []
    for t in ((_ASSOC @ left.ravel()).tolist(), (_ASSOC_T @ p.ravel()).tolist()):
        rows = t[0:4], t[4:8], t[8:12], t[12:16]
        y = max(rows, key=lambda r: r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + r[3] * r[3])
        # a NaN entry of the rotation reaches every row of t (each column of
        # _ASSOC has one nonzero per row), so it carries on to the residual
        ny = math.hypot(*y)
        y = [v / ny for v in y]
        y0, y1, y2, y3 = y
        x = [r0 * y0 + r1 * y1 + r2 * y2 + r3 * y3 for r0, r1, r2, r3 in rows]
        nx = math.hypot(*x)
        x = [v / nx for v in x]
        dists.append(math.dist(t, [xi * yj for xi in x for yj in y]))
        for x0, x1, x2, x3 in (x, y):
            entries += (complex(x0, x3), complex(x2, x1), complex(-x2, x1), complex(x0, -x3))
    resid = 2 * math.hypot(*dists)
    if not resid <= 1e-7:
        raise ValueError(f"matrix is not a tensor product (residual {resid:.2e})")
    return entries


def kak_decompose(u: np.ndarray) -> KakDecomposition:
    """Cartan decomposition with the core coordinates in the Weyl chamber.

    The chamber point a comes first, from the spectrum of m = ubar^T ubar
    alone (ubar the SU(4)-normalized gate in the magic basis; Zhang, Vala,
    Sastry & Whaley, PRA 67, 042313, 2003), and the eigenbasis is then
    ordered to fit it.  If ubar = c O1 D O2 with O1, O2
    real orthogonal, c^4 = 1 and D = diag(exp(i d/2)), d = _PHASE_MAP a,
    then m = c^2 O2^T D^2 O2: every Weyl image of the raw point gives m
    the same eigenvalues exp(i d), permuted and up to the global sign
    c^2 = +-1.  So some column order p of the real eigenbasis of m and
    some theta in {0, pi/2} give exp(i angles) = e^{2i theta} exp(i d), and
    left = ubar p diag(exp(-i (d/2 + theta))) has left^T left = 1: it is
    real orthogonal, with det +1 once det p = +1.  Then
    U = det(U)^{1/4} e^{i theta} (M left M^dag) core_gate(a) (M p^T M^dag)
    with M the magic basis, and each bracket is a local gate, whose SU(2)
    factors `_local_factors` reads off left and p.  half = exp(i d/2) is
    taken once: it is D, and conj(half) times e^{-i theta} (1 or -i) is
    the diagonal of left.

    A u within 1e-8 of unitary is decomposed through its polar factor
    (`linalg.unitary_part`), and the result is checked against u as given.
    """
    det, ubar, angles, p = _spectrum(u)
    a = _chamber_point(angles, clamp=False)
    d = _PHASE_MAP @ a
    dist = np.abs(np.exp(1j * angles)[:, None] - _SIGNS[:, None, None] * np.exp(1j * d))
    k, j = divmod(int(dist.take(_MATCH).max(axis=2).argmin()), 2)
    p = p[:, _PERMS[k]]
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    theta = j * math.pi / 2
    half = np.exp(0.5j * d)
    left = (ubar @ p * (-1j * half.conj() if j else half.conj())).real
    factors = _local_factors(left, p)
    phase = float((theta + cmath.phase(det ** 0.25)) % (2 * math.pi))
    # against u as given, not its polar factor
    resid = phase_distance(_kak_product(factors, phase, half), u)
    if not resid <= 1e-8:
        raise ValueError(f"KAK reconstruction residual {resid:.2e} exceeds 1e-8")
    return KakDecomposition(factors, a, phase)


def extract_nonlocal(u: np.ndarray) -> np.ndarray:
    """Canonical chamber coordinates of a two-qubit unitary, in the chamber.

    Only the spectrum of m = ubar^T ubar is needed (see `kak_decompose`),
    taken by the same `_spectrum` step, so the point is `kak_decompose(u).a`
    with a3 clamped at 0: on the base band KAK keeps the exact Weyl image,
    down to a3 = -CHAMBER_TOL.  A u within 1e-8 of unitary gives the point
    of its polar factor.
    """
    return _chamber_point(_spectrum(u)[2], clamp=True)


# ---------------------------------------------------------------------------
# Entangling power
# ---------------------------------------------------------------------------

def entangling_power(u: np.ndarray) -> float:
    """Closed-form average output linear entropy over Haar product inputs.

    It is read off tr m for m of `_gram`, which the chamber point shares,
    but not its eigensolver or chamber reduction.  A u within 1e-8 of
    unitary gives the value of its polar factor.
    """
    tr = np.trace(_gram(u)[2])
    ep = (2 / 9) * (1 - abs(tr) ** 2 / 16)
    return float(min(max(ep, 0.0), 2 / 9))


def entangling_power_from_point(a):
    """Entangling power of the core gate at chamber points of shape (..., 3).

    A point given as a list or tuple of three floats is evaluated on Python
    floats and gives a float, the array formula's value bit for bit where
    math.cos and np.cos agree (squares are written c * c, as numpy squares).
    """
    if isinstance(a, (list, tuple)) and isinstance(a[0], float):
        a1, a2, a3 = a
        c1, c2, c3 = math.cos(a1), math.cos(a2), math.cos(a3)
        s1, s2, s3 = math.sin(a1), math.sin(a2), math.sin(a3)
        c = (c1 * c1) * (c2 * c2) * (c3 * c3)
        return (2 / 9) * (1 - (c + (s1 * s1) * (s2 * s2) * (s3 * s3)))
    a = np.asarray(a, dtype=float)
    c, s = np.cos(a) ** 2, np.sin(a) ** 2
    return (2 / 9) * (1 - (c[..., 0] * c[..., 1] * c[..., 2] + s[..., 0] * s[..., 1] * s[..., 2]))


# The symmetric form with psi^T E psi = psi00 psi11 - psi01 psi10.
_DET_FORM = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]) / 2
# Row a is vec(P_a^T), so (_PAULI_T @ vec(G))_a = tr(G P_a).
_PAULI_T = PAULI_STRINGS.transpose(0, 2, 1).reshape(16, 16)
# samples per block when the draws are reduced to moments
_MC_CHUNK = 2048


def _bloch_columns(x: np.ndarray) -> np.ndarray:
    """Columns v = (1, Bloch vector) of the states z = x[0] + i x[1].

    x has shape (2, f, k, 2): real/imaginary part, factor, sample, amplitude.
    Returns shape (f, 4, k), samples last so the products below run over
    contiguous rows.
    """
    re0, re1 = x[0, ..., 0], x[0, ..., 1]
    im0, im1 = x[1, ..., 0], x[1, ..., 1]
    p0 = re0 * re0 + im0 * im0
    p1 = re1 * re1 + im1 * im1
    norm = p0 + p1
    # conj(z0) z1 = wr + i wi gives the x and y components 2 wr and 2 wi
    wr = re0 * re1 + im0 * im1
    wi = re0 * im1 - im0 * re1
    return np.stack([norm, 2 * wr, 2 * wi, p0 - p1], axis=1) / norm[:, None]


@functools.lru_cache(maxsize=8)
def _mc_moments(n: int, seed: int):
    """Read-only (M, L, K) for the n seeded product states.

    M = mean e e^T, where e = v_a (x) v_b is the real 16-vector of a
    sample's two Bloch columns, so rho_a (x) rho_b = sum_alpha e_alpha
    P_alpha / 4.  The draws are reduced in blocks of _MC_CHUNK samples,
    so no (16, n) array is formed.  L and K fold the Pauli strings into M:

        L = Pt^T M Pt / 16,  Pt[a] = vec(P_a^T),
        K[(i, l), (j, k)] = sum_ab M_ab P_a[j, i] P_b[k, l] / 16.
    """
    x = np.random.default_rng(seed).standard_normal((2, 2, n, 2))
    m = np.zeros((16, 16))
    for s in range(0, n, _MC_CHUNK):
        v = _bloch_columns(x[:, :, s : s + _MC_CHUNK])
        e = (v[0, :, None] * v[1, None, :]).reshape(16, -1)
        m += e @ e.T
    m /= n
    l = _PAULI_T.T @ m @ _PAULI_T / 16
    k = np.einsum("aji,akl->iljk", PAULI_STRINGS, np.tensordot(m, PAULI_STRINGS, 1))
    k = k.reshape(16, 16) / 16
    for t in (m, l, k):
        t.setflags(write=False)
    return m, l, k


def entangling_power_mc(u: np.ndarray, n: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the average output linear entropy.

    Each of the n samples is psi = u (a x b) for Haar product states drawn
    as complex Gaussian pairs a, b (real parts, then imaginary parts, of one
    standard_normal((2, 2, n, 2)) draw from default_rng(seed)).  With
    rho = rho_a x rho_b the normalized input and e its 16 real Pauli
    coordinates, the purity (tr r)^2 - 2 det r of the reduced state r is

        (c . e)^2 - 2 e^T N e,   c = tr(G P)/4,  G = u^dag u,
                                 N = Re tr(P^T Q P Q^dag)/16,  Q = u^T E u,

    an identity for any u, unitary or not.  Averaged with M = mean e e^T,
    c^T M c = g^T L g and <N, M> = Re q^dag K q for g = vec(G), q = vec(Q),
    so the estimate is 1 - g^T L g + 2 Re q^dag K q.  M, L and K depend on
    (n, seed) only and are computed once and cached; a seed gives the mean
    of the per-sample purities up to rounding.  The seed must be an
    integer (operator.index): None, a Generator or a float raises
    TypeError, and a negative seed raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, l, k = _mc_moments(int(n), operator.index(seed))
    u = np.asarray(u, dtype=complex)
    g = (dagger(u) @ u).ravel()
    q = (u.T @ _DET_FORM @ u).ravel()
    return float(1.0 - (g @ l @ g).real + 2.0 * (q.conj() @ k @ q).real)


# ---------------------------------------------------------------------------
# Chamber landmarks
# ---------------------------------------------------------------------------

# The chamber's landmark equations (Zhang, Vala, Sastry & Whaley, PRA 67,
# 042313, 2003), each holding within CHAMBER_TOL; bit i of `_held(a)` is
# equation i.
_EQUATIONS = ("a1", "a2", "a3", "a1 - pi/2", "a2 - pi/2", "a3 - pi/2",
              "a1 - a2", "a2 - a3", "a1 + a2 - pi")
# Each vertex, edge and face as the mask of the equations that define it,
# most specific first: a point takes the first tag whose equations all hold.
# A1 and A1A2 lie past a1 = pi/2 on the base, outside the chamber: no row.
_LOCATIONS = {
    tag: sum(1 << _EQUATIONS.index(e) for e in equations)
    for tag, *equations in (
        ("O", "a1", "a2", "a3"),
        ("A2", "a1 - pi/2", "a2 - pi/2", "a3"),
        ("A3", "a1 - pi/2", "a2 - pi/2", "a3 - pi/2"),
        ("mid OA1", "a1 - pi/2", "a2", "a3"),
        ("OA1", "a2", "a3"),
        ("OA2", "a1 - a2", "a3"),
        ("OA3", "a1 - a2", "a2 - a3"),
        ("A1A3", "a2 - a3", "a1 + a2 - pi"),
        ("A2A3", "a1 - pi/2", "a2 - pi/2"),
        ("OA1A2", "a3"),
        ("OA2A3", "a1 - a2"),
        ("A1A2A3", "a1 + a2 - pi"),
        ("OA1A3", "a2 - a3"),
    )
}
# The minimal CNOT count as rows of the same table: 3 where none holds.
_CNOT_COUNTS = ((0, _LOCATIONS["O"]), (1, _LOCATIONS["mid OA1"]), (2, _LOCATIONS["OA1A2"]))


def _held(a) -> int:
    """Bitmask of the `_EQUATIONS` that hold at a within CHAMBER_TOL."""
    a1, a2, a3 = (float(x) for x in a)
    pi, h = math.pi, math.pi / 2
    forms = (a1, a2, a3, a1 - h, a2 - h, a3 - h, a1 - a2, a2 - a3, a1 + a2 - pi)
    held = 0
    for bit, form in enumerate(forms):
        if abs(form) <= CHAMBER_TOL:
            held |= 1 << bit
    return held


def min_cnot_count(a) -> int:
    """Minimal CNOTs needed for a canonical chamber point."""
    held = _held(a)
    for n, m in _CNOT_COUNTS:
        if held & m == m:
            return n
    return 3


def chamber_location(a) -> str:
    """Vertex / edge / face / interior tag of a canonical chamber point."""
    held = _held(a)
    for tag, m in _LOCATIONS.items():
        if held & m == m:
            return tag
    return "interior"
