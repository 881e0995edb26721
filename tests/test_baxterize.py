import math

import numpy as np
import pytest

from ybgates.baxterize import (
    YbSpec,
    baxterize2,
    baxterize3,
    baxterized_gate,
    braid_eigenvalues,
    braid_limit_residual,
    build_yb,
    chi_to_x,
    normalize_gate,
    spectral_decompose,
    x_to_chi,
    yb_ep,
    yb_nonlocal_closed,
    ybe_residual,
)
from ybgates.braid import BraidSpec, build_braid
from ybgates.linalg import frob, phase_distance, unitarity_residual
from ybgates.weyl import chamber_location, entangling_power, extract_nonlocal

RNG = np.random.default_rng(23)
PI = math.pi
ALL_GATES = [("I", 1), ("I", 2), ("I", 3), ("II", 1), ("II", 2), ("II", 3),
             ("III", 1), ("III", 2), ("III", 3), ("IV", 1)]
PHI_COUNT = {"I": 3, "II": 3, "III": 2, "IV": 1}


def random_spec(family, kind):
    if family == "IV":
        spectral = RNG.uniform(0.02, PI / 2 - 0.02)
    else:
        spectral = RNG.uniform(-1.5, 1.5)
    return YbSpec(family, kind, spectral, tuple(RNG.uniform(0, 2 * PI, PHI_COUNT[family])))


@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_build_yb_is_unitary(family, kind):
    for _ in range(30):
        assert unitarity_residual(build_yb(random_spec(family, kind))) < 1e-10


@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_closed_form_matches_spectral_ansatz(family, kind):
    for _ in range(30):
        s = random_spec(family, kind)
        assert phase_distance(build_yb(s), baxterized_gate(s)) < 1e-8


@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_yang_baxter_equation(family, kind):
    for _ in range(10):
        s = random_spec(family, kind)
        mu, nu = RNG.uniform(-1.5, 1.5, 2)
        assert ybe_residual(s, mu, nu) < 1e-9


def test_ybe_residual_detects_non_solutions():
    # a gate family that is not spectrally consistent fails the equation
    s1 = YbSpec("I", 1, 0.6, (0.2, 1.1, 2.3))
    s2 = YbSpec("I", 1, 0.6, (0.9, 0.4, 1.7))
    from ybgates.baxterize import _gate_at_x
    from ybgates.linalg import I2, kron
    from ybgates.baxterize import scaled_distance

    x, y = math.exp(0.5), math.exp(0.8)
    rx = _gate_at_x(s1, x)
    ry = _gate_at_x(s2, y)
    rxy = _gate_at_x(s1, x * y)
    lhs = kron(rx, I2) @ kron(I2, rxy) @ kron(ry, I2)
    rhs = kron(I2, ry) @ kron(rxy, I2) @ kron(I2, rx)
    assert scaled_distance(lhs, rhs) > 1e-2


@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_nonlocal_closed_matches_extraction(family, kind):
    for _ in range(40):
        s = random_spec(family, kind)
        assert np.allclose(yb_nonlocal_closed(s), extract_nonlocal(build_yb(s)), atol=1e-6)


@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_ep_closed_matches_trace_formula(family, kind):
    for _ in range(30):
        s = random_spec(family, kind)
        assert yb_ep(s) == pytest.approx(entangling_power(build_yb(s)), abs=1e-9)


def slice_spec(family, kind, phi, mu):
    """The one-parameter slice that `ybgates sweep` evaluates."""
    phases = {"I": (0.0, phi, phi), "II": (0.0, phi, phi), "III": (phi, 0.0), "IV": (phi,)}
    return YbSpec(family, kind, mu, phases[family])


def chamber_distance(a, b):
    """Max-norm distance, with [a1, a2, 0] ~ [pi - a1, a2, 0] on the base."""
    d = np.max(np.abs(a - b))
    if max(a[2], b[2]) <= 1e-7:
        d = min(d, max(abs(a[0] - (PI - b[0])), abs(a[1] - b[1]), abs(a[2] - b[2])))
    return d


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_closed_forms_on_grid_match_built_gates(family, kind):
    """Criterion 04 over a whole sweep grid, phi = 0, +-pi and mu = 0 included."""
    phi, mu = np.meshgrid(np.linspace(-PI, PI, 17), np.linspace(-2, 2, 9), indexing="ij")
    gates = {}
    for i in np.ndindex(phi.shape):
        try:
            gates[i] = build_yb(slice_spec(family, kind, phi[i], mu[i]))
        except ValueError:
            pass  # the gate is singular here, so the point has no reference
    assert len(gates) >= phi.size - 3
    # one batch: the whole (17, 9) grid, or its regular points in a row
    shape = phi.shape if len(gates) == phi.size else (len(gates),)
    spec = slice_spec(family, kind, np.array([phi[i] for i in gates]).reshape(shape),
                      np.array([mu[i] for i in gates]).reshape(shape))
    points, eps = yb_nonlocal_closed(spec), yb_ep(spec)
    assert points.shape == shape + (3,) and eps.shape == shape
    for g, a, ep in zip(gates.values(), points.reshape(-1, 3), eps.ravel()):
        assert chamber_distance(a, extract_nonlocal(g)) <= 1e-7
        assert abs(ep - entangling_power(g)) <= 1e-7


def test_batch_spec_shapes():
    spec = YbSpec("III", 1, np.array([0.1, 0.2]), (np.array([[0.3], [0.4]]), 0.5))
    assert spec.spectral.shape == spec.phi[1].shape == (2, 2)
    assert yb_nonlocal_closed(spec).shape == (2, 2, 3)
    assert isinstance(YbSpec("III", 1, 0.1, (0.3, 0.5)).phi[0], float)
    with pytest.raises(ValueError):
        YbSpec("I", 1, np.zeros(3), (0.0, np.zeros(2), 0.0))


def test_gate_geometry_edges_and_faces():
    # kinds 2 and 3 of families I-III live on the A2A3 edge; family IV on OA1
    for family in ("I", "II", "III"):
        for kind in (2, 3):
            loc = chamber_location(yb_nonlocal_closed(random_spec(family, kind)))
            assert loc in ("A2A3", "A2", "A3")
    loc = chamber_location(yb_nonlocal_closed(random_spec("IV", 1)))
    assert loc in ("OA1", "mid OA1", "O", "A1")


def test_two_eigenvalue_unitarity_real_x_only():
    b = build_braid(BraidSpec("IV", (0.9,)))
    lams = braid_eigenvalues(YbSpec("IV", 1, 0.1, (0.9,)))
    for x in RNG.uniform(-4, 4, 50):
        r = normalize_gate(baxterize2(b, lams[0], lams[1], float(x)))
        assert unitarity_residual(r) < 1e-10
    for x in (1j, 1 + 1j):
        r = normalize_gate(baxterize2(b, lams[0], lams[1], x))
        assert unitarity_residual(r) > 1e-3


def test_three_eigenvalue_requires_distinct():
    with pytest.raises(ValueError):
        baxterize3(np.eye(4, dtype=complex), 1.0, 1.0, -1.0, 2.0)


def test_spectral_decompose_projectors():
    s = random_spec("I", 1)
    b = build_braid(s.braid_spec())
    pairs = spectral_decompose(b)
    rec = sum(lam * p for lam, p in pairs)
    assert frob(rec - b) < 1e-9
    for lam, p in pairs:
        assert frob(p @ p - p) < 1e-9


@pytest.mark.parametrize("family,kind", [(f, k) for f in ("I", "II", "III") for k in (1, 2, 3)])
def test_braid_limit(family, kind):
    s = random_spec(family, kind)
    r12 = braid_limit_residual(s, 12)
    r20 = braid_limit_residual(s, 20)
    assert r12 < 1e-3
    assert r20 < 1e-7
    assert r20 < r12 + 1e-12


def test_family_iv_braid_point():
    # chi = pi/4 recovers the braid gate; chi = 0 the identity
    assert chi_to_x(PI / 4) == pytest.approx(0.0, abs=1e-15)
    for p1 in (0.0, 1.3):
        r = build_yb(YbSpec("IV", 1, PI / 4, (p1,)))
        b = build_braid(BraidSpec("IV", (p1,)))
        assert phase_distance(r, b) < 1e-12
        r0 = build_yb(YbSpec("IV", 1, 0.0, (p1,)))
        assert phase_distance(r0, np.eye(4)) < 1e-12


def test_chi_x_roundtrip():
    # principal branch of the tangent: chi in (-pi/4, 3 pi/4)
    for chi in RNG.uniform(-PI / 4 + 0.05, 3 * PI / 4 - 0.05, 20):
        assert x_to_chi(chi_to_x(chi)) == pytest.approx(chi, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        YbSpec("IV", 2, 0.3, (0.1,))
    with pytest.raises(ValueError):
        YbSpec("I", 4, 0.3, (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        YbSpec("III", 1, 0.3, (0.1,))


def test_braid_limit_rejects_family_iv():
    with pytest.raises(ValueError):
        braid_limit_residual(YbSpec("IV", 1, 0.3, (0.1,)), 10)
