"""Yang-Baxterization: spectral-parameter R matrices built from braid gates."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .braid import BraidSpec, build_braid, wrap_phase
from .linalg import I4, dagger, frob, phase_distance, relation_sides, x_gate
from .weyl import canonicalize, entangling_power_from_point

_YB_PARAM_COUNT = {"I": 3, "II": 3, "III": 2, "IV": 1}
III_SINGULAR_TOL = 1e-14  # below it, family III kinds 2 and 3 are singular: see `_raw_point`


@dataclass(frozen=True)
class YbSpec:
    """A Yang-Baxter gate: braid family + kind + spectral parameter.

    Families I-III carry the additive parameter mu = ln x and kinds 1-3;
    family IV carries chi (with x = tan(pi/4 - chi)) and a single kind.
    For family I the braid parameters are (phi1, phi2, phi3) with
    phi4 = phi1 implied (three distinct eigenvalues).

    A batch spec holds numpy arrays in `spectral` and `phi`, each kept in
    its given shape; the shapes must broadcast together, and the batch has
    their broadcast shape (...). Only the closed forms `yb_nonlocal_closed`
    and `yb_ep` take a batch spec; `build_yb`, `ybe_residual` and the other
    gate builders stay scalar-only.
    """

    family: str
    kind: int
    spectral: float
    phi: tuple

    def __post_init__(self):
        if self.family not in _YB_PARAM_COUNT:
            raise ValueError(f"unknown family {self.family!r}")
        kind = self.kind
        integral = isinstance(kind, (float, np.floating)) and kind.is_integer()
        if isinstance(kind, (bool, np.bool_)) or not (integral or hasattr(kind, "__index__")):
            raise ValueError(f"kind must be an integer, got {kind!r}")
        object.__setattr__(self, "kind", int(kind))
        if self.family == "IV":
            if self.kind != 1:
                raise ValueError("family IV has a single kind")
        elif self.kind not in (1, 2, 3):
            raise ValueError(f"kind must be 1, 2 or 3, got {self.kind}")
        params = [
            np.asarray(v, dtype=float) if isinstance(v, np.ndarray) else float(v)
            for v in (self.spectral, *self.phi)
        ]
        arrays = [v for v in params if isinstance(v, np.ndarray)]
        if arrays:
            # raises ValueError for shapes that do not broadcast together
            np.broadcast(*arrays)
        object.__setattr__(self, "spectral", params[0])
        object.__setattr__(self, "phi", tuple(params[1:]))
        want = _YB_PARAM_COUNT[self.family]
        if len(self.phi) != want:
            raise ValueError(
                f"family {self.family} takes {want} braid parameters, got {len(self.phi)}"
            )

    @property
    def mu(self) -> float:
        if self.family == "IV":
            raise AttributeError("family IV is parameterized by chi")
        return self.spectral

    @property
    def chi(self) -> float:
        if self.family != "IV":
            raise AttributeError("families I-III are parameterized by mu")
        return self.spectral

    def at(self, spectral: float) -> YbSpec:
        """This gate at another spectral parameter (mu, or chi for family IV).

        The family, kind and phases were validated when this spec was made,
        so the copy is not validated again.
        """
        spec = object.__new__(YbSpec)
        spec.__dict__.update(family=self.family, kind=self.kind, spectral=float(spectral), phi=self.phi)
        return spec

    def braid_spec(self) -> BraidSpec:
        if self.family == "I":
            p1, p2, p3 = self.phi
            return BraidSpec("I", (p1, p2, p3, p1))
        return BraidSpec(self.family, self.phi)

    def phase_params(self):
        """(phi, omega) for families I/II; phi1 (and phi2) for III; phi1 for IV."""
        if self.family in ("I", "II"):
            p1, p2, p3 = self.phi
            return 0.5 * (p2 + p3) - p1, 0.5 * (p2 - p3)
        return self.phi


def braid_eigenvalues(spec: YbSpec):
    """Ordered eigenvalue list used by the Yang-Baxterization."""
    if spec.family in ("I", "II"):
        p1, p2, p3 = spec.phi
        lam = cmath.exp(0.5j * (p2 + p3))
        return [-lam, cmath.exp(1j * p1), lam]
    if spec.family == "III":
        p1 = spec.phi[0]
        return [-cmath.exp(1j * p1), cmath.exp(-1j * p1), cmath.exp(1j * p1)]
    return [cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)]


# ---------------------------------------------------------------------------
# Spectral machinery
# ---------------------------------------------------------------------------

def normalize_gate(r: np.ndarray) -> np.ndarray:
    """Rescale a unitary-up-to-scale matrix to its unitary representative."""
    r = np.asarray(r, dtype=complex)
    scale = math.sqrt(float(np.trace(dagger(r) @ r).real) / r.shape[0])
    if scale == 0:
        raise ValueError("cannot normalize the zero matrix")
    return r / scale


def baxterize2(b: np.ndarray, lam1: complex, lam2: complex, x: complex) -> np.ndarray:
    """Two-eigenvalue Yang-Baxterization R(x) = (B + x lam1 lam2 B^dag)/lam2."""
    if abs(lam1 - lam2) < 1e-12:
        raise ValueError("baxterize2 requires distinct eigenvalues")
    b = np.asarray(b, dtype=complex)
    return (b + x * lam1 * lam2 * dagger(b)) / lam2


def yb_coefficients(x: complex, lam1: complex, lam2: complex, lam3: complex):
    """(alpha, beta, gamma) of the three-eigenvalue Yang-Baxterization."""
    alpha = -(x - 1) / lam3
    beta = (1 + lam1 / lam2 + lam1 / lam3 + lam2 / lam3) * x
    gamma = lam1 * x * (x - 1)
    return alpha, beta, gamma


def baxterize3(b: np.ndarray, lam1, lam2, lam3, x: complex):
    """Three-eigenvalue Yang-Baxterization; returns (R, (alpha, beta, gamma))."""
    for u, v in ((lam1, lam2), (lam1, lam3), (lam2, lam3)):
        if abs(u - v) < 1e-12:
            raise ValueError("baxterize3 requires three distinct eigenvalues")
    b = np.asarray(b, dtype=complex)
    alpha, beta, gamma = yb_coefficients(x, lam1, lam2, lam3)
    r = alpha * b + beta * I4 + gamma * dagger(b)
    return r, (alpha, beta, gamma)


def baxterized_gate(spec: YbSpec) -> np.ndarray:
    """Unitary R gate built via the spectral ansatz (not the closed forms)."""
    b = build_braid(spec.braid_spec())
    lams = braid_eigenvalues(spec)
    if spec.family == "IV":
        r = baxterize2(b, lams[0], lams[1], chi_to_x(spec.chi))
    else:
        # the family-III closed forms sit at x = e^{2 mu}, not e^{mu}
        x = math.exp(2 * spec.mu if spec.family == "III" else spec.mu)
        l1, l2, l3 = lams
        if spec.kind == 1:
            r, _ = baxterize3(b, l1, l2, l3, x)
        elif spec.kind == 2:
            # lam1 <-> lam2 permutation: beta vanishes
            a, _, g = yb_coefficients(x, l2, l1, l3)
            r = a * b + g * dagger(b)
        else:
            # lam2 <-> lam3 permutation: beta vanishes
            a, _, g = yb_coefficients(x, l1, l3, l2)
            r = a * b + g * dagger(b)
    r = normalize_gate(r)
    if spec.family == "III" and spec.kind == 2:
        # fixed diagonal gauge aligning the ansatz with the closed form
        d = np.diag([1, -1j, -1j, -1])
        r = d @ r @ dagger(d)
    return r


def chi_to_x(chi: float) -> float:
    """Spectral parameter of the family-IV gate; chi = pi/4 recovers the braid gate."""
    return math.tan(math.pi / 4 - chi)


def x_to_chi(x: float) -> float:
    return math.pi / 4 - math.atan(x)


# ---------------------------------------------------------------------------
# Closed-form gate matrices
# ---------------------------------------------------------------------------

def build_yb(spec: YbSpec) -> np.ndarray:
    """Closed-form unitary matrix of the Yang-Baxter gate (scalar specs only)."""
    fam, kind = spec.family, spec.kind
    if fam == "IV":
        chi = spec.chi
        (p1,) = spec.phi
        c, s = math.cos(chi), math.sin(chi)
        e = cmath.exp(1j * p1)
        return x_gate((c, e * s, -s / e, c), (c, s, -s, c))

    mu = spec.mu
    if fam in ("I", "II"):
        phi, omega = spec.phase_params()
        ew = cmath.exp(1j * omega)
        if kind == 1:
            den = cmath.sin(phi - 1j * mu)
            # |den|^2 = sin^2 phi + sinh^2 mu, so the ratios below stay accurate
            # for any den != 0; den = 0 at phi = mu = 0, where the limit along
            # mu = 0 is the identity
            if den == 0:
                return x_gate((1, 0, 0, 1), (1, 0, 0, 1))
            d = cmath.sin(phi) / den
            o = -1j * cmath.sinh(mu) / den
            even, odd = (1, 0, 0, 1), (d, ew * o, o / ew, d)
        else:
            trig, hyp = (math.sin, cmath.sinh) if kind == 2 else (math.cos, cmath.cosh)
            delta = trig(phi / 2) ** 2 + math.sinh(mu / 2) ** 2
            if delta < 1e-24:
                raise ValueError(f"singular parameters for kind-{kind} gate")
            dd = hyp(0.5 * (mu + 1j * phi)) / math.sqrt(delta)
            oo = hyp(0.5 * (mu - 1j * phi)) / math.sqrt(delta)
            even, odd = (dd, 0, 0, dd), (0, ew * oo, oo / ew, 0)
        # family II is family I conjugated by X on qubit 1, which exchanges
        # the even and odd blocks
        return x_gate(even, odd) if fam == "I" else x_gate(odd, even)

    # family III
    p1, p2 = spec.phi
    c1, s1 = math.cos(p1), math.sin(p1)
    ch, sh = math.cosh(mu), math.sinh(mu)
    e2 = cmath.exp(1j * p2)
    if kind == 1:
        co = cmath.cosh(mu + 1j * p1)
        si = cmath.sinh(mu + 1j * p1)
        # |co|^2 = sinh^2 mu + cos^2 p1 and |si|^2 = sinh^2 mu + sin^2 p1, so
        # the ratios below stay accurate for any nonzero co and si; si = 0 at
        # p1 = mu = 0, where the limit along mu = 0 is the identity
        if co == 0 or si == 0:
            return x_gate((1, 0, 0, 1), (1, 0, 0, 1))
        dd, oo, od = ch * c1 / co, 1j * ch * s1 / si, -sh * c1 / si
        return x_gate((dd, -e2 * sh * s1 / co, sh * s1 / (e2 * co), dd), (oo, od, od, oo))
    # kinds 2 and 3 share one template: kind 3 swaps sinh and cosh and flips the
    # corner signs; e = sign * e2, written -e2 so that its signed zeros are exact
    x, y, sign, e = (sh, ch, 1.0, e2) if kind == 2 else (ch, sh, -1.0, -e2)
    # hypot, not the root of a sum of squares, stays finite as long as the entries do
    rt = math.hypot(x * c1, y * s1)
    if rt / ch < III_SINGULAR_TOL:  # rt / cosh mu: the tanh form `_raw_point` tests
        raise ValueError(f"singular parameters for family III kind-{kind} gate")
    dd, oo = x * c1, 1j * y * s1
    return x_gate((dd, e * y * s1, -sign * y * s1 / e2, dd), (oo, -dd, -dd, oo)) / rt


# ---------------------------------------------------------------------------
# Yang-Baxter equation residual
# ---------------------------------------------------------------------------

def scaled_distance(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """min over complex c of ||lhs - c rhs||_F."""
    # tr(rhs^dag lhs) and tr(rhs^dag rhs)
    c = np.vdot(rhs, lhs) / np.vdot(rhs, rhs).real
    return frob(lhs - c * rhs)


def ybe_residual(spec: YbSpec, mu: float, nu: float) -> float:
    """Spectral-parameter Yang-Baxter equation residual on the 8x8 operands.

    The gates are built at the spectral parameters mu, nu and mu + nu
    (multiplicatively x = e^mu, y = e^nu and xy = e^{mu+nu}); since each
    gate is normalized to its unitary representative, the residual is
    measured modulo one global scale.  Scalar specs only.
    """
    def gate(s: float) -> np.ndarray:
        return build_yb(spec.at(x_to_chi(math.exp(s)) if spec.family == "IV" else s))

    rx, ry, rxy = gate(mu), gate(nu), gate(mu + nu)
    return scaled_distance(*relation_sides(rx, rxy, ry))


def braid_limit_residual(spec: YbSpec, mu_large: float) -> float:
    """Distance (up to phase) between R(mu = -|mu_large|) and the braid gate."""
    if spec.family == "IV":
        raise ValueError("the braid limit check applies to families I-III")
    r = build_yb(spec.at(-abs(mu_large)))
    bs = spec.braid_spec()
    if spec.family == "III" and spec.kind == 2:
        # the fixed diagonal gauge of this gate shifts phi_2 by pi,
        # so the limiting braid gate carries the shifted phase
        bs = BraidSpec("III", (bs.phi[0], bs.phi[1] + math.pi))
    b = build_braid(bs)
    return phase_distance(r, b)


# ---------------------------------------------------------------------------
# Closed-form nonlocal parameters and entangling power
# ---------------------------------------------------------------------------

def _face_point(a, phi, mu) -> tuple:
    """(a, a, c) coordinates of the kind-1 gates on the tetrahedron faces.

    a is atan2(|sinh mu|, |sin phi|), which each family writes in its own
    overflow-safe form; c = -atan2(cos phi tanh mu, sin phi).
    """
    return a, a, -np.arctan2(np.cos(phi) * np.tanh(mu), np.sin(phi))


def _raw_point(spec: YbSpec) -> tuple:
    """Closed-form coordinates (a1, a2, a3) of the gate, before canonicalization.

    Each coordinate is computed in the broadcast shape of the parameters it
    depends on, so a factor of phi or mu alone runs once per axis value.

    The atan2 forms keep full precision near mu = 0.  They overflow only
    with sinh mu or cosh mu, past |mu| ~710, as `build_yb` does.
    """
    fam, kind = spec.family, spec.kind
    half_pi = math.pi / 2
    if fam == "IV":
        return 2 * wrap_phase(spec.chi), 0.0, 0.0
    mu = spec.mu
    if fam in ("I", "II"):
        phi, _ = spec.phase_params()
        if kind == 1:
            return _face_point(np.arctan2(np.abs(np.sinh(mu)), np.abs(np.sin(phi))), phi, mu)
        # t = -2 arg sin(z) for kind 2 and 2 arg cos(z) for kind 3, z = (phi + i mu) / 2
        s, c = np.sin(phi / 2), np.cos(phi / 2)
        y, x = (c, s) if kind == 2 else (s, c)
        t = -2 * np.arctan2(y * np.tanh(mu / 2), x)
        return half_pi, half_pi, half_pi - t
    # family III
    p1 = spec.phi[0]
    if kind == 1:
        # the face point at (2 p1, 2 mu), with sinh 2mu = 2 sinh mu cosh mu:
        # both atan2 arguments divided by 2 cosh mu, so sinh 2mu is never formed
        phi = 2 * p1
        a = np.arctan2(np.abs(np.sinh(mu)), 0.5 * np.abs(np.sin(phi)) / np.cosh(mu))
        return _face_point(a, phi, 2 * mu)
    th = np.tanh(mu)
    x, y = (th, 1.0) if kind == 2 else (1.0, th)
    u, v = x * np.cos(p1), y * np.sin(p1)
    if np.any(np.hypot(u, v) < III_SINGULAR_TOL):
        raise ValueError(f"singular parameters for family III kind-{kind} point")
    t = np.arctan2(np.abs(v), u)
    return half_pi, half_pi, half_pi - 2 * t


@np.errstate(over="raise", divide="raise", invalid="raise")
def yb_nonlocal_closed(spec: YbSpec) -> np.ndarray:
    """Closed-form canonical chamber point of the Yang-Baxter gate.

    Shape (3,) for a scalar spec, and (..., 3) for a batch spec, where (...)
    is the broadcast shape of all its parameters, used or not.
    Overflow, division by zero and invalid values raise FloatingPointError
    rather than leaving inf or nan in the result, and one singular point
    raises ValueError for the whole batch.
    """
    a1, a2, a3 = _raw_point(spec)
    # every parameter sets the shape: family IV's point depends on chi alone
    point = np.empty(np.broadcast(a1, a2, a3, spec.spectral, *spec.phi).shape + (3,))
    point[..., 0], point[..., 1], point[..., 2] = a1, a2, a3
    return canonicalize(point)


def yb_ep(spec: YbSpec):
    """Closed-form entangling power of the Yang-Baxter gate.

    A float for a scalar spec, an array of shape (...) for a batch spec;
    errors as for `yb_nonlocal_closed`.
    """
    return entangling_power_from_point(yb_nonlocal_closed(spec))
