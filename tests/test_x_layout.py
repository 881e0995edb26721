"""The X layout: every braid and Yang-Baxter gate is built from its two
parity blocks, and family II Yang-Baxter gates are family I gates with the
blocks exchanged."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from test_baxterize import chamber_distance

from ybgates.baxterize import YbSpec, build_yb
from ybgates.braid import BraidSpec, build_braid
from ybgates.classify import matchgate_dets, x_shape_residual
from ybgates.linalg import I2, SX, X_EVEN, X_ODD, kron, x_gate
from ybgates.weyl import ISWAP, SWAP, canonicalize, core_gate, extract_nonlocal

PI = math.pi
BRAID_PARAMS = {"I": 4, "II": 3, "III": 2, "IV": 1}
YB_PARAMS = {"I": 3, "II": 3, "III": 2, "IV": 1}
GATES = [("braid", f, 0) for f in BRAID_PARAMS]
GATES += [("yb", f, k) for f in ("I", "II", "III") for k in (1, 2, 3)] + [("yb", "IV", 1)]

angle = (
    st.sampled_from([0.0, -0.0, -PI / 4, 1e-300, 700.0])
    | st.integers(-8, 8).map(lambda k: k * PI / 2)
    | st.floats(-7, 7)
)
spectral = (
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 400.0, 700.0, -700.0])
    | st.floats(-700, 700)
    | st.floats(-3, 3)
)
# the fourth phase is read by braid family I only
gate_draw = st.tuples(st.sampled_from(GATES), spectral, st.lists(angle, min_size=4, max_size=4))


def _spec(gate, mu, phases):
    kind, family, k = gate
    if kind == "braid":
        return BraidSpec(family, phases[: BRAID_PARAMS[family]])
    return YbSpec(family, k, mu, phases[: YB_PARAMS[family]])


def _build(spec):
    return build_braid(spec) if isinstance(spec, BraidSpec) else build_yb(spec)


def test_x_gate_layout():
    g = x_gate((1, 2, 3, 4), (5, 6, 7, 8))
    want = np.array([[1, 0, 0, 2], [0, 5, 6, 0], [0, 7, 8, 0], [3, 0, 0, 4]], dtype=complex)
    assert g.dtype == complex and g.flags.c_contiguous
    assert np.array_equal(g, want)
    assert g.ravel()[list(X_EVEN + X_ODD)].tolist() == list(range(1, 9))
    assert matchgate_dets(g) == (1 * 4 - 2 * 3, 5 * 8 - 6 * 7)


@settings(max_examples=400)
@given(gate_draw)
@example((("yb", "II", 1), 0.0, [0.0, 0.0, 0.0, 0.0]))
@example((("yb", "II", 2), 700.0, [PI / 2, PI, -PI / 4, 0.0]))
@example((("yb", "II", 3), -0.0, [1e-300, 700.0, PI, 0.0]))
@example((("yb", "III", 1), 0.0, [0.0, 0.0, 0.0, 0.0]))
@example((("yb", "III", 3), -700.0, [PI / 2, -0.0, 0.0, 0.0]))
@example((("braid", "IV", 0), 0.0, [700.0, 0.0, 0.0, 0.0]))
def test_every_gate_is_x_shaped_by_construction(draw):
    gate, mu, phases = draw
    spec = _spec(gate, mu, phases)
    try:
        g = _build(spec)
    except ValueError:  # a singular parameter point
        reject()
    assert x_shape_residual(g) == 0.0
    blocks = g.ravel()[list(X_EVEN + X_ODD)]
    assert np.array_equal(x_gate(blocks[:4], blocks[4:]), g)
    if gate[:2] == ("yb", "II"):
        # the construction the block exchange replaces
        x1 = kron(I2, SX)
        g_i = build_yb(YbSpec("I", spec.kind, spec.mu, spec.phi))
        assert np.array_equal(g, x1 @ g_i @ x1)


def parity_block_point(u):
    """The chamber point of an X-shaped gate from its parity blocks E and O:
    canonicalize([s + d, s - d, a3]) with s = atan2(|O01|, |O00|),
    d = atan2(|E01|, |E00|) and a3 = (arg det E - arg det O) / 2."""
    entries = np.asarray(u).ravel().tolist()
    e00, e01, e10, e11 = (entries[i] for i in X_EVEN)
    o00, o01, o10, o11 = (entries[i] for i in X_ODD)
    s = math.atan2(abs(o01), abs(o00))
    d = math.atan2(abs(e01), abs(e00))
    a3 = (cmath.phase(e00 * e11 - e01 * e10) - cmath.phase(o00 * o11 - o01 * o10)) / 2
    return canonicalize([s + d, s - d, a3])


def _haar2(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def _haar_x_gate(seed):
    """x_gate(E, O) of two Haar-random 2x2 blocks."""
    rng = np.random.default_rng(seed)
    return x_gate(_haar2(rng).ravel(), _haar2(rng).ravel())


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1).map(_haar_x_gate))
@example(np.eye(4, dtype=complex))
@example(SWAP)
@example(ISWAP)
@example(core_gate([0.0, 0.0, 0.0]))
@example(core_gate([PI, 0.0, 0.0]))
@example(core_gate([PI / 2, PI / 2, 0.0]))
@example(core_gate([PI / 2, PI / 2, PI / 2]))
@example(core_gate([2.0, 0.5, 1e-8]))
def test_parity_block_point_is_the_kak_point(u):
    """The point read off the parity blocks is the one extract_nonlocal finds."""
    assert chamber_distance(parity_block_point(u), extract_nonlocal(u)) <= 1e-9


@pytest.mark.parametrize("gate", GATES)
@settings(max_examples=40)
@given(spectral, st.lists(angle, min_size=4, max_size=4))
def test_parity_block_point_of_every_family(gate, mu, phases):
    try:
        g = _build(_spec(gate, mu, phases))
    except ValueError:  # a singular parameter point
        reject()
    assert chamber_distance(parity_block_point(g), extract_nonlocal(g)) <= 1e-9
