import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ybgates.baxterize import (
    YbSpec,
    baxterize2,
    baxterize3,
    baxterized_gate,
    braid_eigenvalues,
    braid_limit_residual,
    build_yb,
    scaled_distance,
    chi_to_x,
    normalize_gate,
    x_to_chi,
    yb_ep,
    yb_nonlocal_closed,
    ybe_residual,
)
from ybgates.braid import BraidSpec, braid_nonlocal_closed, build_braid
from ybgates.cli import _sweep_spec
from ybgates.linalg import phase_distance, relation_sides, unitarity_residual
from ybgates.weyl import (
    canonicalize,
    chamber_location,
    entangling_power,
    entangling_power_from_point,
    extract_nonlocal,
)

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


@pytest.mark.parametrize("kind, want", [(2, 2), (2.0, 2), (np.int64(3), 3), (np.float64(1.0), 1)])
def test_yb_spec_kind_is_a_python_int(kind, want):
    s = YbSpec("I", kind, 0.4, (0.1, 0.2, 0.3))
    assert s.kind == want and type(s.kind) is int


@pytest.mark.parametrize("family", ["I", "IV"])
@pytest.mark.parametrize("kind", [True, False, np.bool_(True), 2.5, "2", None, [1], math.nan, math.inf])
def test_yb_spec_kind_must_be_an_integer(family, kind):
    with pytest.raises(ValueError) as e:
        YbSpec(family, kind, 0.4, (0.1,) * PHI_COUNT[family])
    assert str(e.value) == f"kind must be an integer, got {kind!r}"


def test_ybe_residual_detects_non_solutions():
    # a gate family that is not spectrally consistent fails the equation
    phi1, phi2 = (0.2, 1.1, 2.3), (0.9, 0.4, 1.7)
    from ybgates.linalg import I2, kron
    from ybgates.baxterize import scaled_distance

    rx = build_yb(YbSpec("I", 1, 0.5, phi1))
    ry = build_yb(YbSpec("I", 1, 0.8, phi2))
    rxy = build_yb(YbSpec("I", 1, 0.5 + 0.8, phi1))
    lhs = kron(rx, I2) @ kron(I2, rxy) @ kron(ry, I2)
    rhs = kron(I2, ry) @ kron(rxy, I2) @ kron(I2, rx)
    assert scaled_distance(lhs, rhs) > 1e-2


def ybe_residual_by_kron(spec, mu, nu):
    """The YBE residual from the three 8x8 operand products, each built with np.kron."""
    i2 = np.eye(2)

    def gate(x):
        if spec.family == "IV":
            return build_yb(YbSpec("IV", 1, x_to_chi(x), spec.phi))
        return build_yb(YbSpec(spec.family, spec.kind, math.log(x), spec.phi))

    x, y = math.exp(mu), math.exp(nu)
    rx, ry, rxy = gate(x), gate(y), gate(x * y)
    lhs = np.kron(rx, i2) @ np.kron(i2, rxy) @ np.kron(ry, i2)
    rhs = np.kron(i2, ry) @ np.kron(rxy, i2) @ np.kron(i2, rx)
    c = np.trace(rhs.conj().T @ lhs) / np.trace(rhs.conj().T @ rhs).real
    return np.linalg.norm(lhs - c * rhs)


# spectral parameters at least 0.05 from the singular mu = 0 of kinds 2 and 3
spectral = st.floats(0.05, 1.5) | st.floats(-1.5, -0.05)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_GATES), spectral, spectral, st.lists(st.floats(0, 2 * PI), min_size=3, max_size=3))
@example(("I", 1), 0.5, 0.7, [0.3, 1.1, 2.0])
@example(("III", 2), -1.2, 0.4, [0.6, PI / 2, 0.0])
def test_ybe_residual_matches_kron_products(family_kind, mu, nu, phases):
    family, kind = family_kind
    assume(abs(mu + nu) >= 0.05)
    spec = YbSpec(family, kind, 0.3, tuple(phases[: PHI_COUNT[family]]))
    assert abs(ybe_residual(spec, mu, nu) - ybe_residual_by_kron(spec, mu, nu)) <= 1e-14


def ybe_residual_of_new_specs(spec, mu, nu):
    """The YBE residual as ybe_residual forms it, from gates built with
    build_yb on a new, validated YbSpec at each spectral parameter."""

    def gate(s):
        if spec.family == "IV":
            return build_yb(YbSpec("IV", 1, x_to_chi(math.exp(s)), spec.phi))
        return build_yb(YbSpec(spec.family, spec.kind, s, spec.phi))

    rx, ry, rxy = gate(mu), gate(nu), gate(mu + nu)
    return scaled_distance(*relation_sides(rx, rxy, ry))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_GATES), spectral, spectral, spectral,
       st.lists(st.floats(0, 2 * PI), min_size=3, max_size=3))
@example(("IV", 1), 0.5, 0.7, 0.3, [0.0, 0.0, 0.0])
@example(("III", 2), -1.2, 0.4, 0.8, [0.6, PI / 2, 0.0])
def test_ybe_residual_is_the_residual_of_new_specs_bit_for_bit(family_kind, mu, nu, s, phases):
    """ybe_residual re-uses the caller's validated fields for its three gates;
    the gates, and so the residual, are those of specs built anew."""
    family, kind = family_kind
    assume(abs(mu + nu) >= 0.05)
    spec = YbSpec(family, kind, s, tuple(phases[: PHI_COUNT[family]]))
    assert spec.at(mu) == YbSpec(family, kind, mu, spec.phi)
    assert ybe_residual(spec, mu, nu).hex() == ybe_residual_of_new_specs(spec, mu, nu).hex()


@settings(max_examples=200)
@given(st.lists(st.floats(-2 * PI, 2 * PI), min_size=3, max_size=3))
@example([0.0, 0.0, 0.0])  # O
@example([PI, 0.0, 0.0])  # A1
@example([PI / 2, PI / 2, 0.0])  # A2
@example([PI / 2, PI / 2, PI / 2])  # A3
@example([2.0, 0.5, 5e-8])  # the base band, a3 within CHAMBER_TOL of 0
@example([2.0, 0.5, -5e-8])  # its exact Weyl image
@example(canonicalize([2.0, 0.5, 5e-8]).tolist())  # the reported, clamped point
def test_entangling_power_of_a_listed_point_is_the_array_value(point):
    listed = entangling_power_from_point(point)
    assert isinstance(listed, float)
    trig = [np.cos(point), np.sin(point)]
    if all(np.array_equal(t, [f(x) for x in point]) for t, f in zip(trig, (math.cos, math.sin))):
        # hex() also tells the sign of zero
        assert listed.hex() == float(entangling_power_from_point(np.array(point))).hex()
    else:
        # numpy's cos or sin differs from the C library's here, so the
        # two paths may differ in their last bits
        assert abs(listed - entangling_power_from_point(np.array(point))) <= 1e-15


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



@pytest.mark.parametrize("family,kind", ALL_GATES)
def test_closed_form_precision_near_mu_zero(family, kind):
    """The closed form keeps full precision as the spectral parameter goes to 0."""
    rng = np.random.default_rng(41)
    for size in (1e-3, 1e-5, 1e-7, 1e-9, 1e-12):
        for spectral in (size, -size):
            for _ in range(8):
                s = YbSpec(family, kind, spectral, tuple(rng.uniform(0, 2 * PI, PHI_COUNT[family])))
                try:
                    ref = canonicalize(extract_nonlocal(build_yb(s)))
                except ValueError:
                    continue  # the gate is singular here
                assert chamber_distance(yb_nonlocal_closed(s), ref) <= 1e-12, s


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_kind_one_closed_form_at_large_mu(family):
    """The kind-1 face point matches the built gate out to |mu| = 700, near its overflow."""
    rng = np.random.default_rng(43)
    for mu in (360.0, -360.0, 700.0, -700.0):
        for _ in range(4):
            s = YbSpec(family, 1, mu, tuple(rng.uniform(0, 2 * PI, PHI_COUNT[family])))
            assert chamber_distance(yb_nonlocal_closed(s), extract_nonlocal(build_yb(s))) <= 1e-12

def test_batch_spec_shapes():
    spec = YbSpec("III", 1, np.array([0.1, 0.2]), (np.array([[0.3], [0.4]]), 0.5))
    assert yb_nonlocal_closed(spec).shape == (2, 2, 3)
    assert isinstance(YbSpec("III", 1, 0.1, (0.3, 0.5)).phi[0], float)
    with pytest.raises(ValueError):
        YbSpec("I", 1, np.zeros(3), (0.0, np.zeros(2), 0.0))


@pytest.mark.parametrize("family, spectral, phi", [
    ("I", np.zeros((2, 3)), (np.zeros(2), 0.0, 0.0)),
    ("II", np.zeros((2, 1)), (np.zeros(3), np.zeros((4, 3)), 0.0)),
    ("III", 0.5, (np.zeros((2, 3)), np.zeros((3, 2)))),
    ("IV", np.zeros((5, 1, 2)), (np.zeros((4, 3)),)),
])
def test_batch_spec_shapes_that_do_not_broadcast(family, spectral, phi):
    """A batch spec whose parameter shapes do not broadcast together raises
    the ValueError of np.broadcast_shapes, message and all."""
    with pytest.raises(ValueError) as want:
        np.broadcast_shapes(*(v.shape for v in (spectral, *phi) if isinstance(v, np.ndarray)))
    with pytest.raises(ValueError) as got:
        YbSpec(family, 1, spectral, phi)
    assert str(got.value) == str(want.value)


@settings(max_examples=60)
@given(
    st.sampled_from(ALL_GATES),
    st.lists(st.floats(-2 * PI, 2 * PI), min_size=1, max_size=6),
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
)
def test_batch_closed_form_matches_scalar_specs(family_kind, phis, mus):
    """sweep's batch spec, a phi column and a mu row, against the scalar spec at each point."""
    family, kind = family_kind
    spec = _sweep_spec(family, kind, np.array(phis)[:, None], np.array(mus)[None, :])
    # the array parameters keep their given shapes
    assert {p.shape for p in (spec.spectral, *spec.phi) if isinstance(p, np.ndarray)} == {
        (len(phis), 1), (1, len(mus))}
    scalars = {}
    for i, phi in enumerate(phis):
        for j, mu in enumerate(mus):
            try:
                s = _sweep_spec(family, kind, phi, mu)
                scalars[i, j] = yb_nonlocal_closed(s), yb_ep(s)
            except ValueError:
                pass  # a singular point
    if len(scalars) < len(phis) * len(mus):
        # one singular point raises for the whole batch
        with pytest.raises(ValueError, match="singular"):
            yb_nonlocal_closed(spec)
        return
    points, eps = yb_nonlocal_closed(spec), yb_ep(spec)
    assert points.shape == (len(phis), len(mus), 3) and eps.shape == (len(phis), len(mus))
    for (i, j), (point, ep) in scalars.items():
        assert np.max(np.abs(points[i, j] - point)) <= 2e-15
        assert abs(eps[i, j] - ep) <= 2e-15


def test_spec_equality_by_value():
    def batch(mu=0.2, kind=1):
        return YbSpec("III", kind, np.array([0.1, mu]), (np.array([[0.3], [0.4]]), 0.5))

    scalar = YbSpec("I", 1, 0.6, (0.2, 1.1, 2.3))
    assert scalar == YbSpec("I", 1, 0.6, (0.2, 1.1, 2.3))
    assert scalar != YbSpec("II", 1, 0.6, (0.2, 1.1, 2.3))
    assert hash(scalar) == hash(YbSpec("I", 1, 0.6, (0.2, 1.1, 2.3)))
    assert len({scalar, YbSpec("I", 1, 0.6, (0.2, 1.1, 2.3))}) == 1
    # batch specs hold mutable arrays, so they are unhashable
    with pytest.raises(TypeError, match="unhashable"):
        hash(batch())


# The faces a1 = a2 and a1 + a2 = pi with their edges and vertices.
_KIND_1_LOCI = ("OA2A3", "A1A2A3", "OA2", "OA3", "A2A3", "A1A3", "O", "A2", "A3")


def test_gate_geometry_edges_and_faces():
    """The paper's loci, each read off the built gate and the closed form:
    kinds 2 and 3 of families I-III and braid gates of families I-III on
    the A2A3 edge, kind 1 of families I-III on the faces a1 = a2 and
    a1 + a2 = pi, family IV on OA1 and its braid gate at mid OA1."""
    for family in ("I", "II", "III"):
        for kind in (2, 3):
            s = random_spec(family, kind)
            for a in (extract_nonlocal(build_yb(s)), yb_nonlocal_closed(s)):
                assert chamber_location(a) in ("A2A3", "A2", "A3")
    s = random_spec("IV", 1)
    for a in (extract_nonlocal(build_yb(s)), yb_nonlocal_closed(s)):
        assert chamber_location(a) in ("OA1", "mid OA1", "O")
    # a generator of its own, so the draws of later tests stay as they were
    rng = np.random.default_rng(5)
    for family in ("I", "II", "III"):
        for _ in range(40):
            s = YbSpec(family, 1, rng.uniform(-1.5, 1.5),
                       tuple(rng.uniform(0, 2 * PI, PHI_COUNT[family])))
            for a in (extract_nonlocal(build_yb(s)), yb_nonlocal_closed(s)):
                assert chamber_location(a) in _KIND_1_LOCI
    for family, n in (("I", 4), ("II", 3), ("III", 2), ("IV", 1)):
        want = ("mid OA1",) if family == "IV" else ("A2A3", "A2", "A3")
        for _ in range(40):
            s = BraidSpec(family, tuple(rng.uniform(0, 2 * PI, n)))
            for a in (extract_nonlocal(build_braid(s)), braid_nonlocal_closed(s)):
                assert chamber_location(a) in want


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
