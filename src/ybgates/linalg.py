"""Small-matrix complex linear algebra helpers (2x2 / 4x4 / 8x8).

All matrices are dense numpy arrays in the computational basis
{|00>, |01>, |10>, |11>}, row-major, with qubit 0 as the left tensor
factor.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Past this unitarity residual an admitted matrix is replaced by its polar
# factor.  Rounding leaves about 1e-15; sym_unitary_eig checks its
# reconstruction to 1e-9, so a KAK of the matrix itself fails from about
# 3e-10 on.
POLAR_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
I8 = np.eye(8, dtype=complex)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = (I2, SX, SY, SZ)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, restricted to results of dimension <= 8."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0] * b.shape[0]
    if n > 8:
        raise ValueError(f"kron result dimension {n} exceeds 8")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def kron_entries(x, y, order: tuple = (0, 1, 2, 3)) -> tuple:
    """Row-major entries of the 4x4 kron of two 2x2 matrices given as their
    row-major entries (x00, x01, x10, x11), its rows taken in order."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    rows = (
        (x00 * y00, x00 * y01, x01 * y00, x01 * y01),
        (x00 * y10, x00 * y11, x01 * y10, x01 * y11),
        (x10 * y00, x10 * y01, x11 * y00, x11 * y01),
        (x10 * y10, x10 * y11, x11 * y10, x11 * y11),
    )
    i, j, k, l = order
    return rows[i] + rows[j] + rows[k] + rows[l]


# An X-type gate has its nonzero entries in two 2x2 parity blocks: the even
# block on {|00>, |11>} and the odd block on {|01>, |10>} (the G(A, B) form of
# matchgates).  These are the flat indices of each block's entries in a
# row-major 4x4, each block row-major.
X_EVEN = (0, 3, 12, 15)
X_ODD = (5, 6, 9, 10)


def x_gate(even, odd) -> np.ndarray:
    """The 4x4 X-type gate with the given row-major even and odd blocks."""
    e00, e01, e10, e11 = even
    o00, o01, o10, o11 = odd
    # one array of the flat entries: a zeros-and-scatter build is slower
    return np.array(
        [e00, 0, 0, e01, 0, o00, o01, 0, 0, o10, o11, 0, e10, 0, 0, e11], dtype=complex
    ).reshape(4, 4)


def _left(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(R x 1) M for a 4x4 R and an 8x8 M, without forming R x 1."""
    return (r @ m.reshape(4, 16)).reshape(8, 8)


def _right(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1 x R) M for a 4x4 R and an 8x8 M: R on each half of M's rows."""
    return (r @ m.reshape(2, 4, 8)).reshape(8, 8)


def relation_sides(r1: np.ndarray, r2: np.ndarray, r3: np.ndarray) -> tuple:
    """The sides (R1 x 1)(1 x R2)(R3 x 1) and (1 x R3)(R2 x 1)(1 x R1) of the Yang-Baxter equation."""
    return _left(r1, _right(r2, _left(r3, I8))), _right(r3, _left(r2, _right(r1, I8)))


# The two-qubit Pauli strings sigma_mu (x) sigma_nu at index 4 mu + nu.
PAULI_STRINGS = np.array([kron(p, q) for p in PAULIS for q in PAULIS])
PAULI_STRINGS.setflags(write=False)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def frob(m: np.ndarray) -> float:
    """Frobenius norm; sqrt(vdot) costs a third of np.linalg.norm on these sizes."""
    return math.sqrt(np.vdot(m, m).real)


def unitarity_residual(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=complex)
    return frob(dagger(m) @ m - (I4 if m.shape == (4, 4) else np.eye(m.shape[0])))


def unitary_part(u: np.ndarray, admit: float):
    """(gate, residual) of a matrix admitted as unitary up to `admit`.

    A unitarity residual in (POLAR_TOL, admit] is admitted: the gate is
    then the polar factor of u, its nearest unitary (one SVD).  Other
    admitted inputs are the gate as they are.  A residual past admit, NaN
    included, raises ValueError.
    """
    u = np.asarray(u, dtype=complex)
    # an overflowing entry makes the residual inf or NaN, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        res = unitarity_residual(u)
    if not res <= admit:
        raise ValueError(f"matrix is not unitary (residual {res:.3e})")
    if res > POLAR_TOL:
        w, _, vh = np.linalg.svd(u)
        u = w @ vh
    return u, res


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of ||a - e^{i phi} b||_F; zero iff equal up to global phase.

    The minimizer is phi = arg tr(a^dag b); evaluating the norm at that
    phase directly avoids the sqrt(8 - 2|tr|) cancellation noise near zero.
    The argument is math.atan2's, which returns an underflowing angle where
    cmath.phase raises OverflowError (cmath.phase(4 + 5e-324j)).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    t = complex(np.vdot(a, b))  # tr(a^dag b)
    phi = -math.atan2(t.imag, t.real) if abs(t) > 0 else 0.0
    return frob(a - cmath.exp(1j * phi) * b)


def sym_unitary_eig(m: np.ndarray):
    """Eigendecomposition of a symmetric unitary matrix with a real
    orthogonal eigenbasis.

    Returns (angles, o) with m = o @ diag(exp(1j * angles)) @ o.T,
    o real orthogonal.

    A symmetric unitary m splits as m = A + iB with A, B real symmetric
    and commuting; both are diagonalized simultaneously by the eigenbasis
    of A + tB for almost every t.  We use a fixed irrational t and fall
    back to random draws if a degeneracy of A + tB spoils the result.
    Each attempt reads the angles off the diagonal of o^T m o and accepts
    o when the rest of that matrix is within 1e-9 of zero.
    """
    m = np.asarray(m, dtype=complex)
    asym = frob(m - m.T)
    # both checks written so that a NaN residual fails
    if not asym <= 1e-8:
        raise ValueError(f"matrix is not symmetric (residual {asym:.2e})")
    if not unitarity_residual(m) <= 1e-8:
        raise ValueError("matrix is not unitary")
    # eigh reads one triangle of a + t b, so m needs no re-symmetrizing
    a, b = m.real, m.imag
    diag = slice(None, None, m.shape[0] + 1)  # the diagonal of a raveled n x n
    rng = None
    t = math.sqrt(2.0)  # fixed irrational mixing weight
    for _ in range(20):
        _, o = np.linalg.eigh(a + t * b)
        # for o orthogonal, |o diag(e^{i angles}) o^T - m| = |d - diag(e^{i angles})|
        d = o.T @ m @ o  # a new C-ordered array: d.ravel() is a view
        g = d.diagonal()
        angles = np.arctan2(g.imag, g.real)
        d.ravel()[diag] -= np.exp(1j * angles)
        res = frob(d)
        if res <= 1e-9:
            return angles, o
        if rng is None:  # built on the first retry only
            rng = np.random.default_rng(7)
        t = rng.uniform(0.1, 3.0)
    raise ValueError(f"failed to diagonalize symmetric unitary (residual {res:.2e})")
