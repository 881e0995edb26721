"""The X layout: every braid and Yang-Baxter gate is built from its two
parity blocks, and family II Yang-Baxter gates are family I gates with the
blocks exchanged."""

import math

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ybgates.baxterize import YbSpec, build_yb
from ybgates.braid import BraidSpec, build_braid
from ybgates.classify import matchgate_dets, x_shape_residual
from ybgates.linalg import I2, SX, X_EVEN, X_ODD, kron, x_gate

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
