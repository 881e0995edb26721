"""The four X-type two-qubit braid gate families and their invariants."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import frob, relation_sides, x_gate
from .weyl import canonicalize, entangling_power_from_point

FAMILIES = ("I", "II", "III", "IV")
_PARAM_COUNT = {"I": 4, "II": 3, "III": 2, "IV": 1}
_TWO_PI = 2 * math.pi


def wrap_phase(x):
    """The phase x as atan2(sin x, cos x) once |x| > 2 pi, else x itself.

    A gate applies exact trig to each phase, while a linear form in the
    phases (a sum, a multiple) read modulo pi or a lattice step loses the
    phase past 2 pi, where the float spacing grows.  Every such modulus
    here divides 2 pi, so the wrapped phase reads the same; a phase within
    2 pi keeps its bits.  x is a float or an array.
    """
    if isinstance(x, np.ndarray):
        big = np.abs(x) > _TWO_PI
        return np.where(big, np.arctan2(np.sin(x), np.cos(x)), x) if big.any() else x
    return math.atan2(math.sin(x), math.cos(x)) if abs(x) > _TWO_PI else x


@dataclass(frozen=True)
class BraidSpec:
    family: str
    phi: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown braid family {self.family!r}")
        object.__setattr__(self, "phi", tuple(float(p) for p in self.phi))
        want = _PARAM_COUNT[self.family]
        if len(self.phi) != want:
            raise ValueError(
                f"family {self.family} takes {want} parameters, got {len(self.phi)}"
            )


def _family_one_phases(spec: BraidSpec) -> tuple:
    """The four family I phases of a family I or II spec: II sits at phi4 = phi1."""
    return spec.phi if spec.family == "I" else spec.phi + spec.phi[:1]


def build_braid(spec: BraidSpec) -> np.ndarray:
    """Explicit matrix of the braid gate in the computational basis."""
    f = spec.family
    phi = spec.phi
    e = lambda t: cmath.exp(1j * t)
    if f in ("I", "II"):
        p1, p2, p3, p4 = _family_one_phases(spec)
        even, odd = (e(p1), 0, 0, e(p4)), (0, e(p2), e(p3), 0)
        # family II is family I conjugated by X on qubit 1, which exchanges
        # the even and odd blocks
        return x_gate(even, odd) if f == "I" else x_gate(odd, even)
    if f == "III":
        p1, p2 = phi
        c, s = math.cos(p1), math.sin(p1)
        return x_gate((c, s * e(p2), -s * e(-p2), c), (-1j * s, -c, -c, -1j * s))
    # family IV
    (p1,) = phi
    return x_gate((1, e(p1), -e(-p1), 1), (1, 1, -1, 1)) / math.sqrt(2)


def braid_residual(b: np.ndarray) -> float:
    """Frobenius norm of (B x 1)(1 x B)(B x 1) - (1 x B)(B x 1)(1 x B)."""
    b = np.asarray(b, dtype=complex)
    lhs, rhs = relation_sides(b, b, b)
    return frob(lhs - rhs)


def derived_angles(spec: BraidSpec) -> dict:
    """Angle combinations entering the closed-form invariants, of the
    phases wrapped by `wrap_phase`."""
    if spec.family not in ("I", "II"):
        return {}
    p1, p2, p3, p4 = map(wrap_phase, _family_one_phases(spec))
    return {
        "phi_1": 0.5 * (-p1 - p2 + p3 + p4),
        "phi_2": 0.5 * (-p1 + p2 - p3 + p4),
        "phi_3": 0.5 * (-p1 + p2 + p3 - p4),
        "omega": 0.5 * (p2 - p3),
    }


def braid_nonlocal_closed(spec: BraidSpec) -> np.ndarray:
    """Closed-form canonical chamber point of the braid gate."""
    f = spec.family
    pi = math.pi
    if f in ("I", "II"):
        t = derived_angles(spec)["phi_3"]
        raw = (pi / 2, pi / 2, pi / 2 - t)
    elif f == "III":
        raw = (pi / 2, pi / 2, pi / 2 - 2 * wrap_phase(spec.phi[0]))
    else:
        raw = (pi / 2, 0.0, 0.0)
    return canonicalize(raw)


def braid_ep_closed(spec: BraidSpec) -> float:
    """Closed-form entangling power of the braid gate, from its chamber point."""
    return float(entangling_power_from_point(braid_nonlocal_closed(spec)))
