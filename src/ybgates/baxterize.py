"""Yang-Baxterization: spectral-parameter R matrices built from braid gates."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .braid import BraidSpec, build_braid
from .linalg import I2, I4, SX, dagger, frob, kron, phase_distance, unitarity_residual
from .weyl import canonicalize, entangling_power_from_point

_YB_PARAM_COUNT = {"I": 3, "II": 3, "III": 2, "IV": 1}
# Family II gates are family I gates conjugated by X on qubit 1.
_X1 = kron(I2, SX)


@dataclass(frozen=True)
class YbSpec:
    """A Yang-Baxter gate: braid family + kind + spectral parameter.

    Families I-III carry the additive parameter mu = ln x and kinds 1-3;
    family IV carries chi (with x = tan(pi/4 - chi)) and a single kind.
    For family I the braid parameters are (phi1, phi2, phi3) with
    phi4 = phi1 implied (three distinct eigenvalues).

    A batch spec holds numpy arrays in `spectral` and `phi`; they are
    broadcast to one shape (...), and scalar entries become arrays of that
    shape. Only the closed forms `yb_nonlocal_closed` and `yb_ep` take a
    batch spec; `build_yb`, `ybe_residual` and the other gate builders stay
    scalar-only.
    """

    family: str
    kind: int
    spectral: float
    phi: tuple

    def __post_init__(self):
        if self.family not in _YB_PARAM_COUNT:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "IV":
            if self.kind != 1:
                raise ValueError("family IV has a single kind")
        elif self.kind not in (1, 2, 3):
            raise ValueError(f"kind must be 1, 2 or 3, got {self.kind}")
        params = [
            np.asarray(v, dtype=float) if isinstance(v, np.ndarray) else float(v)
            for v in (self.spectral, *self.phi)
        ]
        if any(isinstance(v, np.ndarray) for v in params):
            params = np.broadcast_arrays(*params)
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

def spectral_decompose(b: np.ndarray, group_tol: float = 1e-8):
    """Distinct eigenvalues of a unitary with their orthogonal projectors."""
    import scipy.linalg

    b = np.asarray(b, dtype=complex)
    if unitarity_residual(b) > 1e-8:
        raise ValueError("spectral_decompose requires a unitary input")
    t, z = scipy.linalg.schur(b, output="complex")
    vals = np.diag(t)
    groups = []  # (representative eigenvalue, column indices)
    for k, lam in enumerate(vals):
        for g in groups:
            if abs(lam - g[0]) <= group_tol:
                g[1].append(k)
                break
        else:
            groups.append([lam, [k]])
    pairs = []
    for lam, cols in groups:
        v = z[:, cols]
        p = v @ dagger(v)
        pairs.append((complex(np.mean(vals[cols])), p))
    rec = sum(lam * p for lam, p in pairs)
    if frob(rec - b) > 1e-8:
        raise ValueError("spectral reconstruction residual exceeds 1e-8")
    return pairs


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


def baxterized_gate(spec: YbSpec, x: float | None = None) -> np.ndarray:
    """Unitary R gate built via the spectral ansatz (not the closed forms)."""
    b = build_braid(spec.braid_spec())
    lams = braid_eigenvalues(spec)
    if x is None:
        if spec.family == "IV":
            x = chi_to_x(spec.chi)
        elif spec.family == "III":
            # the family-III closed forms sit at x = e^{2 mu}, not e^{mu}
            x = math.exp(2 * spec.mu)
        else:
            x = math.exp(spec.mu)
    if spec.family == "IV":
        r = baxterize2(b, lams[0], lams[1], x)
    else:
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
        return np.array(
            [
                [c, 0, 0, e * s],
                [0, c, s, 0],
                [0, -s, c, 0],
                [-s / e, 0, 0, c],
            ],
            dtype=complex,
        )

    mu = spec.mu
    if fam in ("I", "II"):
        phi, omega = spec.phase_params()
        ew = cmath.exp(1j * omega)
        if kind == 1:
            den = cmath.sin(phi - 1j * mu)
            if abs(den) < 1e-12:
                if abs(mu) < 1e-12:
                    return np.eye(4, dtype=complex)
                raise ValueError("singular parameters for kind-1 gate")
            d = cmath.sin(phi) / den
            o = -1j * cmath.sinh(mu) / den
            inner = np.array([[d, ew * o], [o / ew, d]], dtype=complex)
            r = np.eye(4, dtype=complex)
            r[1:3, 1:3] = inner
        elif kind == 2:
            delta = math.sin(phi / 2) ** 2 + math.sinh(mu / 2) ** 2
            if delta < 1e-24:
                raise ValueError("singular parameters for kind-2 gate")
            dd = cmath.sinh(0.5 * (mu + 1j * phi)) / math.sqrt(delta)
            oo = cmath.sinh(0.5 * (mu - 1j * phi)) / math.sqrt(delta)
            r = _swap_like_kind(np.array([[dd, ew * oo], [oo / ew, dd]]))
        else:
            delta = math.cos(phi / 2) ** 2 + math.sinh(mu / 2) ** 2
            if delta < 1e-24:
                raise ValueError("singular parameters for kind-3 gate")
            dd = cmath.cosh(0.5 * (mu + 1j * phi)) / math.sqrt(delta)
            oo = cmath.cosh(0.5 * (mu - 1j * phi)) / math.sqrt(delta)
            r = _swap_like_kind(np.array([[dd, ew * oo], [oo / ew, dd]]))
        if fam == "II":
            r = _X1 @ r @ _X1
        return r

    # family III
    p1, p2 = spec.phi
    c1, s1 = math.cos(p1), math.sin(p1)
    ch, sh = math.cosh(mu), math.sinh(mu)
    e2 = cmath.exp(1j * p2)
    if kind == 1:
        co = cmath.cosh(mu + 1j * p1)
        si = cmath.sinh(mu + 1j * p1)
        if abs(co) < 1e-12 or abs(si) < 1e-12:
            if abs(mu) < 1e-12:
                # sinh(i phi1) -> 0 at phi1 = k pi together with mu = 0: identity
                return np.eye(4, dtype=complex)
            raise ValueError("singular parameters for family III kind-1 gate")
        return np.array(
            [
                [ch * c1 / co, 0, 0, -e2 * sh * s1 / co],
                [0, 1j * ch * s1 / si, -sh * c1 / si, 0],
                [0, -sh * c1 / si, 1j * ch * s1 / si, 0],
                [sh * s1 / (e2 * co), 0, 0, ch * c1 / co],
            ],
            dtype=complex,
        )
    if kind == 2:
        delta = (sh * c1) ** 2 + (ch * s1) ** 2
        if delta < 1e-24:
            raise ValueError("singular parameters for family III kind-2 gate")
        rt = math.sqrt(delta)
        return np.array(
            [
                [sh * c1, 0, 0, e2 * ch * s1],
                [0, 1j * ch * s1, -sh * c1, 0],
                [0, -sh * c1, 1j * ch * s1, 0],
                [-ch * s1 / e2, 0, 0, sh * c1],
            ],
            dtype=complex,
        ) / rt
    delta = (ch * c1) ** 2 + (sh * s1) ** 2
    if delta < 1e-24:
        raise ValueError("singular parameters for family III kind-3 gate")
    rt = math.sqrt(delta)
    return np.array(
        [
            [ch * c1, 0, 0, -e2 * sh * s1],
            [0, 1j * sh * s1, -ch * c1, 0],
            [0, -ch * c1, 1j * sh * s1, 0],
            [sh * s1 / e2, 0, 0, ch * c1],
        ],
        dtype=complex,
    ) / rt


def _swap_like_kind(inner: np.ndarray) -> np.ndarray:
    """Assemble diag(d, [[0, o+],[o-, 0]], d) from a 2x2 (d, offdiag) block."""
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = r[3, 3] = inner[0, 0]
    r[1, 2] = inner[0, 1]
    r[2, 1] = inner[1, 0]
    return r


# ---------------------------------------------------------------------------
# Yang-Baxter equation residual
# ---------------------------------------------------------------------------

def _gate_at_x(spec: YbSpec, x: float) -> np.ndarray:
    if spec.family == "IV":
        return build_yb(YbSpec("IV", 1, x_to_chi(x), spec.phi))
    mu = math.log(x)
    return build_yb(YbSpec(spec.family, spec.kind, mu, spec.phi))


def scaled_distance(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """min over complex c of ||lhs - c rhs||_F."""
    t = np.trace(dagger(rhs) @ lhs)
    c = t / float(np.trace(dagger(rhs) @ rhs).real)
    return frob(lhs - c * rhs)


def ybe_residual(spec: YbSpec, mu: float, nu: float) -> float:
    """Spectral-parameter Yang-Baxter equation residual on the 8x8 operands.

    The equation is checked multiplicatively with x = e^mu, y = e^nu and
    xy = e^{mu+nu}; since each gate is normalized to its unitary
    representative, the residual is measured modulo one global scale.
    Scalar specs only.
    """
    x, y = math.exp(mu), math.exp(nu)
    rx = _gate_at_x(spec, x)
    ry = _gate_at_x(spec, y)
    rxy = _gate_at_x(spec, x * y)
    a = kron(rx, I2) @ kron(I2, rxy) @ kron(ry, I2)
    b = kron(I2, ry) @ kron(rxy, I2) @ kron(I2, rx)
    return scaled_distance(a, b)


def braid_limit_residual(spec: YbSpec, mu_large: float) -> float:
    """Distance (up to phase) between R(mu = -|mu_large|) and the braid gate."""
    if spec.family == "IV":
        raise ValueError("the braid limit check applies to families I-III")
    r = build_yb(YbSpec(spec.family, spec.kind, -abs(mu_large), spec.phi))
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

def _clamped_arccos(v):
    return np.arccos(np.clip(v, -1.0, 1.0))


def _arg_ratio(num, den):
    """arg(num / den), or 0 where num or den is below 1e-300 in modulus."""
    tiny = (np.abs(num) < 1e-300) | (np.abs(den) < 1e-300)
    return np.where(tiny, 0.0, np.angle(np.where(tiny, 1.0, num) / np.where(tiny, 1.0, den)))


def _triples(a1, a2, a3) -> np.ndarray:
    """Stack broadcast coordinate arrays into (..., 3) points."""
    return np.stack(np.broadcast_arrays(a1, a2, a3), axis=-1)


def _face_point(phi, mu) -> np.ndarray:
    """(a, a, c) coordinates of the kind-1 gates on the tetrahedron faces."""
    cos2 = np.cos(2 * phi)
    den = np.cosh(2 * mu) - cos2
    flat = np.abs(den) < 1e-14
    ratio = (1 - cos2) / np.where(flat, 1.0, den)
    a = np.where(flat, 0.0, _clamped_arccos(np.sqrt(np.clip(ratio, 0.0, 1.0))))
    c = -0.5 * _arg_ratio(np.sin(phi + 1j * mu), np.sin(phi - 1j * mu))
    return _triples(a, a, np.where(flat, 0.0, c))


def _raw_point(spec: YbSpec) -> np.ndarray:
    """Closed-form chamber point of the gate, before canonicalization."""
    fam, kind = spec.family, spec.kind
    half_pi = math.pi / 2
    if fam == "IV":
        return _triples(2 * spec.chi, 0.0, 0.0)
    mu = spec.mu
    if fam in ("I", "II"):
        phi, _ = spec.phase_params()
        if kind == 1:
            return _face_point(phi, mu)
        z = 0.5 * (phi + 1j * mu)
        if kind == 2:
            t = _arg_ratio(np.sin(np.conj(z)), np.sin(z))
        else:
            t = _arg_ratio(np.cos(z), np.cos(np.conj(z)))
        return _triples(half_pi, half_pi, half_pi - t)
    # family III
    p1 = spec.phi[0]
    if kind == 1:
        return _face_point(2 * p1, 2 * mu)
    sh, ch = np.sinh(mu), np.cosh(mu)
    x, y = (sh, ch) if kind == 2 else (ch, sh)
    d = np.sqrt(x**2 * np.cos(p1) ** 2 + y**2 * np.sin(p1) ** 2)
    if np.any(d < 1e-14):
        raise ValueError(f"singular parameters for family III kind-{kind} point")
    t = _clamped_arccos(x * np.cos(p1) / d)
    return _triples(half_pi, half_pi, half_pi - 2 * t)


@np.errstate(over="raise", divide="raise", invalid="raise")
def yb_nonlocal_closed(spec: YbSpec) -> np.ndarray:
    """Closed-form canonical chamber point of the Yang-Baxter gate.

    Shape (3,) for a scalar spec, (..., 3) for a batch spec of shape (...).
    Overflow, division by zero and invalid values raise FloatingPointError
    rather than leaving inf or nan in the result, and one singular point
    raises ValueError for the whole batch.
    """
    return canonicalize(_raw_point(spec))


@np.errstate(over="raise", divide="raise", invalid="raise")
def yb_ep(spec: YbSpec):
    """Closed-form entangling power of the Yang-Baxter gate.

    A float for a scalar spec, an array of shape (...) for a batch spec;
    errors as for `yb_nonlocal_closed`.
    """
    if spec.family == "IV":
        return (2 / 9) * np.sin(2 * spec.chi) ** 2
    return entangling_power_from_point(yb_nonlocal_closed(spec))
