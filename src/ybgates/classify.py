"""Clifford, matchgate, and dual-unitary classification of two-qubit gates.

Numeric predicates operate on the raw 4x4 matrix; symbolic predictors
evaluate the closed-form parameter conditions of the braid and
Yang-Baxter gate families.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .baxterize import YbSpec
from .braid import BraidSpec, derived_angles, wrap_phase
from .linalg import PAULI_STRINGS, X_EVEN, X_ODD, dagger, frob, unitarity_residual

CLIFFORD_TOL = 1e-8

_PAULI_NAMES = ("I", "X", "Y", "Z")
_PAULI_LABELS = [a + b for a, b in itertools.product(_PAULI_NAMES, repeat=2)]
_GENERATOR_NAMES = ("XI", "ZI", "IX", "IZ")
_GENERATORS = PAULI_STRINGS[[4, 12, 1, 3]]
# Each generator G is a real signed permutation matrix, so U G is U with its
# columns permuted and signed: the four products U G, stacked as (16, 4),
# are u.ravel().take(_GEN_TAKE) * _GEN_SIGNS.
_GEN_ROWS = np.abs(_GENERATORS).argmax(axis=1)  # [g, j]: the nonzero row of column j
_GEN_TAKE = (4 * np.arange(4)[:, None] + _GEN_ROWS[:, None, :]).reshape(16, 4)
# a column's one nonzero entry is its sum
_GEN_SIGNS = np.repeat(_GENERATORS.real.sum(axis=1), 4, axis=0)
# t = vec(m) @ _PAULI_DUAL holds the overlaps tr(P^dag m) / 4 with each Pauli string
_PAULI_DUAL = PAULI_STRINGS.conj().reshape(16, 16).T / 4
_PHASES = (1, 1j, -1, -1j)
_PHASE_VALUES = np.array(_PHASES)
_ROWS = np.arange(4)

# entries outside the X pattern: in neither parity block
_OFF_X = np.isin(np.arange(16), X_EVEN + X_ODD, invert=True).reshape(4, 4)
# the row-major entries of each parity block from a flat list of the 16 entries
_EVEN_BLOCK = operator.itemgetter(*X_EVEN)
_ODD_BLOCK = operator.itemgetter(*X_ODD)


def clifford_table(u: np.ndarray):
    """Conjugation images U P U^dag of the four Pauli generators.

    Each entry maps the generator name to (pauli string, phase, residual)
    of the nearest signed Pauli: the string with the largest phase-aligned
    overlap, the phase in {1, i, -1, -i} nearest that overlap, and the
    Frobenius distance of the image from phase * string.
    """
    u = np.asarray(u, dtype=complex)
    images = (u.ravel().take(_GEN_TAKE) * _GEN_SIGNS) @ dagger(u)
    t = images.reshape(4, 16) @ _PAULI_DUAL
    # each row of t as 32 floats, real and imaginary parts interleaved
    v = t.view(float)
    k = np.abs(v).argmax(axis=1) // 2
    j = np.abs(t[_ROWS, k][:, None] - _PHASE_VALUES).argmin(axis=1)
    # the Pauli strings are orthogonal with norm 2, so the Frobenius norm of
    # image - phase * string is twice the norm of t - phase * e_k
    t[_ROWS, k] -= _PHASE_VALUES[j]
    resid = 2 * np.sqrt((v * v).sum(axis=1))
    return {
        name: (_PAULI_LABELS[kk], _PHASES[jj], r)
        for name, kk, jj, r in zip(_GENERATOR_NAMES, k.tolist(), j.tolist(), resid.tolist())
    }


def is_clifford(u: np.ndarray) -> bool:
    """True iff U maps every Pauli generator to a signed Pauli string."""
    return all(r <= CLIFFORD_TOL for _, _, r in clifford_table(u).values())


def matchgate_dets(u: np.ndarray):
    """(even-block determinant, odd-block determinant) of an X-shaped gate."""
    entries = np.asarray(u, dtype=complex).ravel().tolist()
    e00, e01, e10, e11 = _EVEN_BLOCK(entries)
    o00, o01, o10, o11 = _ODD_BLOCK(entries)
    return e00 * e11 - e01 * e10, o00 * o11 - o01 * o10


def x_shape_residual(u: np.ndarray) -> float:
    """Frobenius norm of the entries outside the X pattern."""
    return frob(np.asarray(u, dtype=complex)[_OFF_X])


def is_matchgate(u: np.ndarray) -> bool:
    """True iff U is X-shaped with equal even and odd block determinants.

    Both determinants pick up the same factor under a global phase, so
    the test is phase invariant.
    """
    even, odd = matchgate_dets(u)
    return x_shape_residual(u) <= CLIFFORD_TOL and abs(even - odd) <= CLIFFORD_TOL


def reshuffle(u: np.ndarray) -> np.ndarray:
    """The partially transposed gate u~[mn,ij] = u[jn,im]."""
    t = np.asarray(u, dtype=complex).reshape(2, 2, 2, 2)
    return t.transpose(3, 1, 2, 0).reshape(4, 4)


def dual_unitarity_residual(u: np.ndarray) -> float:
    return unitarity_residual(reshuffle(u))


def is_dual_unitary(u: np.ndarray) -> bool:
    """True iff the reshuffled gate is unitary as well."""
    return dual_unitarity_residual(u) <= CLIFFORD_TOL


# ---------------------------------------------------------------------------
# Symbolic condition evaluation
# ---------------------------------------------------------------------------

LATTICE_TOL = 1e-9


def on_lattice(x: float, step: float, offset: float = 0.0) -> bool:
    """True iff x is within LATTICE_TOL of offset + k * step for integer k.

    Every step in use divides 2 pi, so x is read through `wrap_phase`.
    """
    if not math.isfinite(x):
        raise ValueError(f"predicted angle {x} is not finite: the phases overflow")
    d = (wrap_phase(x) - offset) / step
    return abs(d - round(d)) * step <= LATTICE_TOL


def _iswap_locus(mu: float, phi: float, cot: bool) -> bool:
    """tanh(mu/2) = +-tan(phi/2) (or +-cot with cot=True)."""
    t = math.tanh(mu / 2)
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    if cot:
        c, s = s, c
    # cross-multiplied to dodge tan poles
    return min(abs(t * c - s), abs(t * c + s)) <= LATTICE_TOL


def predict_conditions(spec) -> dict:
    """Symbolic Clifford / matchgate / dual-unitary verdicts for a gate spec."""
    if isinstance(spec, BraidSpec):
        return _predict_braid(spec)
    if isinstance(spec, YbSpec):
        return _predict_yb(spec)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def _predict_braid(spec: BraidSpec) -> dict:
    f = spec.family
    if f in ("I", "II"):
        ang = derived_angles(spec)
        return {
            "clifford": all(on_lattice(ang[k], math.pi / 2) for k in ("phi_1", "phi_2", "phi_3")),
            "matchgate": on_lattice(ang["phi_3"], math.pi, math.pi / 2),
            "dual_unitary": True,
        }
    if f == "III":
        # the gate's entries are cos p1, sin p1 and sin p1 e^{+-i p2}
        p1, p2 = spec.phi
        if on_lattice(p1, math.pi):
            # sin p1 = 0: a signed SWAP, whatever p2
            cl = True
        elif on_lattice(p1, math.pi, math.pi / 2):
            # cos p1 = 0: a permutation with phases +-i and +-e^{+-i p2}
            cl = on_lattice(p2, math.pi / 2)
        else:
            # a Clifford's nonzero entries share one modulus
            cl = on_lattice(p1, math.pi / 4) and on_lattice(p2, math.pi, math.pi / 2)
        return {"clifford": cl, "matchgate": False, "dual_unitary": True}
    (p1,) = spec.phi
    return {
        "clifford": on_lattice(p1, math.pi),
        "matchgate": True,
        "dual_unitary": False,
    }


def _predict_yb(spec: YbSpec) -> dict:
    f, kind = spec.family, spec.kind
    if f == "IV":
        (p1,) = spec.phi
        chi = spec.chi
        return {
            # +-1 at chi in piZ; a phased permutation at chi in pi/2 + piZ
            "clifford": on_lattice(chi, math.pi)
            or (on_lattice(chi, math.pi / 2) and on_lattice(p1, math.pi / 2))
            or (on_lattice(chi, math.pi / 4) and on_lattice(p1, math.pi)),
            "matchgate": True,
            "dual_unitary": False,
        }
    mu = spec.mu
    if kind == 1 and mu == 0:
        # build_yb's kind-1 gate is the identity there
        return {"clifford": True, "matchgate": True, "dual_unitary": False}
    if f in ("I", "II"):
        phi, omega = spec.phase_params()
        swap_like = abs(mu) <= LATTICE_TOL or on_lattice(phi, math.pi)
        if kind == 1:
            # sin phi = 0 and mu != 0 put the gate on the edge A2A3
            return {
                "clifford": on_lattice(omega, math.pi / 2) and swap_like,
                "matchgate": on_lattice(phi, math.pi, math.pi / 2),
                "dual_unitary": on_lattice(phi, math.pi) and abs(mu) > LATTICE_TOL,
            }
        locus = _iswap_locus(mu, phi, cot=(kind == 3))
        return {
            "clifford": on_lattice(omega, math.pi / 2) and swap_like
            or on_lattice(omega, math.pi) and locus,
            "matchgate": locus,
            "dual_unitary": True,
        }
    # family III; kind 1 is on the edge A2A3 at sin 2 phi1 = 0 and mu != 0.
    # The Clifford branches are the X-gate rule on `build_yb`'s blocks: one
    # modulus for every nonzero entry, their ratios in {1, i, -1, -i}, and
    # det E / det O real.
    p1, p2 = spec.phi
    if on_lattice(p1, math.pi):
        # sin phi1 = 0 gives a signed SWAP, whatever the kind and phi2
        cl = True
    elif on_lattice(p1, math.pi, math.pi / 2):
        # cos phi1 = 0: E antidiagonal with entries +-i e^{+-i phi2} (kind 1)
        # or +-e^{+-i phi2} (kinds 2, 3), O diagonal and det E / det O = -1
        cl = on_lattice(p2, math.pi / 2)
    elif mu == 0:
        # kind 3 is E = +-1, O = -+X; kind 2 is E antidiagonal with entries
        # +-e^{+-i phi2}, O = +-i
        cl = kind == 3 or on_lattice(p2, math.pi / 2)
    else:
        # non-Clifford for mu != 0; the band 0 < |mu| <= LATTICE_TOL is not
        # decided yet and keeps phi2 on pi/2 + piZ
        cl = abs(mu) <= LATTICE_TOL and on_lattice(p2, math.pi, math.pi / 2)
    return {
        "clifford": cl,
        "matchgate": False,
        "dual_unitary": kind != 1 or (on_lattice(p1, math.pi / 2) and abs(mu) > LATTICE_TOL),
    }


@dataclass
class ClassificationReport:
    is_clifford: bool
    is_matchgate: bool
    is_dual_unitary: bool
    dual_residual: float
    predicted: dict | None = None


def classify_gate(u: np.ndarray, spec=None) -> ClassificationReport:
    """Full numeric classification, with symbolic predictions when a spec is given.

    The verdicts are the public predicates'; the dual residual is taken
    once and its verdict read off it, as `is_dual_unitary` reads it.
    """
    u = np.asarray(u, dtype=complex)
    dual = dual_unitarity_residual(u)
    return ClassificationReport(
        is_clifford=is_clifford(u),
        is_matchgate=is_matchgate(u),
        is_dual_unitary=dual <= CLIFFORD_TOL,
        dual_residual=dual,
        predicted=predict_conditions(spec) if spec is not None else None,
    )
