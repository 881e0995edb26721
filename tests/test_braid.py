import itertools
import math

import numpy as np
import pytest

from ybgates.braid import (
    BraidSpec,
    braid_ep_closed,
    braid_nonlocal_closed,
    braid_residual,
    build_braid,
    derived_angles,
)
from ybgates.classify import predict_conditions
from ybgates.linalg import X_EVEN, X_ODD, unitarity_residual, x_gate
from ybgates.weyl import CNOT, entangling_power, extract_nonlocal

RNG = np.random.default_rng(13)
PI = math.pi
PARAM_COUNT = {"I": 4, "II": 3, "III": 2, "IV": 1}


def random_spec(family):
    return BraidSpec(family, tuple(RNG.uniform(0, 2 * PI, PARAM_COUNT[family])))


@pytest.mark.parametrize("family", ["I", "II", "III", "IV"])
def test_braid_relation_holds(family):
    for _ in range(200):
        b = build_braid(random_spec(family))
        assert unitarity_residual(b) < 1e-12
        assert braid_residual(b) < 1e-10


def test_non_braid_gate_has_large_residual():
    assert braid_residual(CNOT) > 1.0


def test_nonlocal_closed_matches_extraction():
    for family in ("I", "II", "III", "IV"):
        for _ in range(50):
            s = random_spec(family)
            a_closed = braid_nonlocal_closed(s)
            a_num = extract_nonlocal(build_braid(s))
            assert np.allclose(a_closed, a_num, atol=1e-7)


def test_ep_closed_matches_trace_formula():
    for family in ("I", "II", "III", "IV"):
        for _ in range(50):
            s = random_spec(family)
            assert braid_ep_closed(s) == pytest.approx(
                entangling_power(build_braid(s)), abs=1e-10
            )


def test_family_iv_ep_is_maximal():
    for _ in range(5):
        s = random_spec("IV")
        assert braid_ep_closed(s) == pytest.approx(2 / 9, abs=1e-12)
        assert np.allclose(braid_nonlocal_closed(s), [PI / 2, 0, 0], atol=1e-9)


def test_derived_angle_combinations():
    s = BraidSpec("I", (0.1, 0.5, 0.9, 1.7))
    ang = derived_angles(s)
    assert ang["phi_3"] == pytest.approx(0.5 * (-0.1 + 0.5 + 0.9 - 1.7))
    assert ang["omega"] == pytest.approx(0.5 * (0.5 - 0.9))
    # family II reads family I's four combinations at phi4 = phi1
    ang = derived_angles(BraidSpec("II", (0.1, 0.5, 0.9)))
    assert ang == pytest.approx(
        {"phi_1": 0.5 * (0.9 - 0.5), "phi_2": 0.5 * (0.5 - 0.9),
         "phi_3": 0.5 * (0.5 + 0.9) - 0.1, "omega": 0.5 * (0.5 - 0.9)}
    )


def test_family_two_is_family_one_with_its_blocks_exchanged():
    """II(p) is I(p1, p2, p3, p1) with its parity blocks exchanged, which is
    conjugation by X on one qubit: a local gate, so both gates share their
    angle combinations, verdicts and chamber point."""
    rng = np.random.default_rng(37)
    lattice = [tuple(k * PI / 8 for k in ks) for ks in itertools.product(range(-8, 8), repeat=3)]
    seeded = [tuple(p) for p in rng.uniform(-20, 20, (300, 3))]
    flip = [1, 0, 3, 2]  # X on qubit 1, the right tensor factor
    for p in lattice + seeded:
        two, one = BraidSpec("II", p), BraidSpec("I", p + p[:1])
        g2, g1 = build_braid(two), build_braid(one)
        flat = g1.ravel()
        assert np.array_equal(g2, x_gate(flat[list(X_ODD)], flat[list(X_EVEN)]))
        assert np.array_equal(g2, g1[np.ix_(flip, flip)])
        assert derived_angles(two) == derived_angles(one)
        assert predict_conditions(two) == predict_conditions(one)
        assert np.max(np.abs(braid_nonlocal_closed(two) - braid_nonlocal_closed(one))) <= 1e-14
        assert np.max(np.abs(extract_nonlocal(g2) - extract_nonlocal(g1))) <= 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        BraidSpec("V", (0.0,))
    with pytest.raises(ValueError):
        BraidSpec("I", (0.0, 0.0))
    with pytest.raises(ValueError):
        BraidSpec("IV", (0.0, 0.0))
