"""Acceptance gate: one test per release criterion, at the stated tolerances."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ybgates.baxterize import (
    YbSpec,
    baxterize2,
    baxterized_gate,
    braid_eigenvalues,
    braid_limit_residual,
    build_yb,
    normalize_gate,
    yb_nonlocal_closed,
    ybe_residual,
)
from ybgates.braid import BraidSpec, braid_nonlocal_closed, braid_residual, build_braid
from ybgates.classify import is_clifford, is_dual_unitary, is_matchgate, predict_conditions
from ybgates.linalg import I2, SX, frob, kron, unitarity_residual
from ybgates.synth import synth_general, synth_riv, synth_zz, verify_circuit
from ybgates.weyl import (
    CNOT,
    ISWAP,
    SWAP,
    core_gate,
    entangling_power,
    entangling_power_mc,
    extract_nonlocal,
    kak_decompose,
    min_cnot_count,
)

PI = math.pi
BRAID_PHI = {"I": 4, "II": 3, "III": 2, "IV": 1}
YB_PHI = {"I": 3, "II": 3, "III": 2, "IV": 1}
ALL_YB = [("I", 1), ("I", 2), ("I", 3), ("II", 1), ("II", 2), ("II", 3),
          ("III", 1), ("III", 2), ("III", 3), ("IV", 1)]


def braid_draw(rng, family):
    return BraidSpec(family, tuple(rng.uniform(0, 2 * PI, BRAID_PHI[family])))


def yb_draw(rng, family, kind):
    sp = rng.uniform(-1.5, 1.5) if family != "IV" else rng.uniform(0.02, PI / 2 - 0.02)
    return YbSpec(family, kind, sp, tuple(rng.uniform(0, 2 * PI, YB_PHI[family])))


def test_criterion_01_braid_relation():
    rng = np.random.default_rng(1001)
    for family in ("I", "II", "III", "IV"):
        worst = max(
            braid_residual(build_braid(braid_draw(rng, family))) for _ in range(1000)
        )
        assert worst < 1e-10, f"family {family}: braid residual {worst:.2e}"


def test_criterion_02_yang_baxter_equation():
    rng = np.random.default_rng(1002)
    grid = np.linspace(-1.2, 1.2, 10)
    for family, kind in ALL_YB:
        worst = 0.0
        for _ in range(10):
            spec = yb_draw(rng, family, kind)
            for mu in grid:
                for nu in grid:
                    worst = max(worst, ybe_residual(spec, mu, nu))
        assert worst < 1e-9, f"R_{family},{kind}: YBE residual {worst:.2e}"


def test_criterion_03_two_eigenvalue_unitarity():
    rng = np.random.default_rng(1003)
    b = build_braid(BraidSpec("IV", (rng.uniform(0, 2 * PI),)))
    lams = braid_eigenvalues(YbSpec("IV", 1, 0.1, (0.4,)))
    for x in rng.uniform(-6, 6, 100):
        r = normalize_gate(baxterize2(b, lams[0], lams[1], float(x)))
        assert unitarity_residual(r) < 1e-10
    for x in (1j, 1 + 1j):
        r = normalize_gate(baxterize2(b, lams[0], lams[1], x))
        assert unitarity_residual(r) > 1e-3


def test_criterion_04_nonlocal_closed_forms():
    rng = np.random.default_rng(1004)
    for family, kind in ALL_YB:
        if family == "IV":
            sps = np.linspace(0.01, PI / 2 - 0.01, 20)
        else:
            sps = np.linspace(-1.5, 1.5, 20)
        phis = np.linspace(0.05, 2 * PI - 0.05, 20)
        extra = tuple(rng.uniform(0, 2 * PI, max(0, YB_PHI[family] - 1)))
        worst = 0.0
        for phi in phis:
            for sp in sps:
                if family in ("I", "II"):
                    spec = YbSpec(family, kind, sp, (extra[0], extra[0] + phi, extra[0] + phi))
                elif family == "III":
                    spec = YbSpec(family, kind, sp, (phi, extra[0]))
                else:
                    spec = YbSpec(family, kind, sp, (phi,))
                d = np.max(np.abs(yb_nonlocal_closed(spec) - extract_nonlocal(build_yb(spec))))
                worst = max(worst, d)
        assert worst < 1e-6, f"R_{family},{kind}: nonlocal mismatch {worst:.2e}"
    for family in ("I", "II", "III", "IV"):
        for _ in range(100):
            s = braid_draw(rng, family)
            d = np.max(np.abs(braid_nonlocal_closed(s) - extract_nonlocal(build_braid(s))))
            assert d < 1e-7


large_angle = st.floats(-1e300, 1e300)
# mu as criterion 04 draws it, and down to 0 through the denormals, where a
# kind-1 gate at a pole phase is a signed SWAP for any mu != 0
mu_draw = (st.floats(0, 1e-9) | st.floats(1e-9, 1.5)).flatmap(lambda m: st.sampled_from([m, -m]))
braid_large = st.sampled_from(sorted(BRAID_PHI)).flatmap(lambda f: st.builds(
    BraidSpec, st.just(f), st.lists(large_angle, min_size=BRAID_PHI[f], max_size=BRAID_PHI[f])))
yb_large = st.sampled_from(ALL_YB).flatmap(lambda fk: st.builds(
    YbSpec, st.just(fk[0]), st.just(fk[1]), large_angle if fk[0] == "IV" else mu_draw,
    st.lists(large_angle, min_size=YB_PHI[fk[0]], max_size=YB_PHI[fk[0]])))


@given(st.one_of(braid_large, yb_large))
@example(BraidSpec("III", (1e300, PI / 2)))
@example(BraidSpec("II", (1e308, -1e308, 1e308)))
@example(YbSpec("IV", 1, 1e300, (0.7,)))
@example(YbSpec("I", 1, 1e-13, (0.0, 0.0, 0.0)))
@example(YbSpec("III", 1, -5e-324, (0.0, 0.0)))
@example(YbSpec("II", 1, 0.0, (0.0, 0.0, 0.0)))
def test_criterion_04_past_two_pi(spec):
    """Criterion 04 at phases, and family IV's chi, out to 1e300, and at mu
    down to 0: the gate applies exact trig to each phase, and the closed forms
    read it modulo 2 pi before it enters a linear form."""
    try:
        if isinstance(spec, BraidSpec):
            closed, gate = braid_nonlocal_closed(spec), build_braid(spec)
        else:
            closed, gate = yb_nonlocal_closed(spec), build_yb(spec)
    except ValueError:
        assume(False)  # a singular Yang-Baxter gate
    assert unitarity_residual(gate) <= 1e-12
    assert np.max(np.abs(closed - extract_nonlocal(gate))) < 1e-7


def test_criterion_05_landmark_points():
    assert np.allclose(extract_nonlocal(CNOT), [PI / 2, 0, 0], atol=1e-9)
    assert entangling_power(CNOT) == pytest.approx(2 / 9, abs=1e-12)
    assert np.allclose(extract_nonlocal(SWAP), [PI / 2, PI / 2, PI / 2], atol=1e-9)
    assert entangling_power(SWAP) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(extract_nonlocal(ISWAP), [PI / 2, PI / 2, 0], atol=1e-9)
    assert entangling_power(ISWAP) == pytest.approx(2 / 9, abs=1e-12)
    for chi in (0.1, 0.4, PI / 4):
        spec = YbSpec("IV", 1, chi, (0.7,))
        assert np.allclose(yb_nonlocal_closed(spec), [2 * chi, 0, 0], atol=1e-12)
        assert entangling_power(build_yb(spec)) == pytest.approx(
            (2 / 9) * math.sin(2 * chi) ** 2, abs=1e-12
        )


def test_criterion_06_monte_carlo_oracle():
    rng = np.random.default_rng(1006)
    gates = [CNOT, SWAP, ISWAP] + [unitary_group.rvs(4, random_state=rng) for _ in range(10)]
    for u in gates:
        mc = entangling_power_mc(u, 200000, seed=1006)
        assert abs(mc - entangling_power(u)) < 5e-3


def test_criterion_07_classification_tables():
    rng = np.random.default_rng(1007)

    def verdicts(u):
        return {
            "clifford": bool(is_clifford(u)),
            "matchgate": bool(is_matchgate(u)),
            "dual_unitary": bool(is_dual_unitary(u)),
        }

    for family in ("I", "II", "III", "IV"):
        for _ in range(1000):
            s = braid_draw(rng, family)
            assert verdicts(build_braid(s)) == predict_conditions(s), s
    for family, kind in ALL_YB:
        for _ in range(1000):
            s = yb_draw(rng, family, kind)
            assert verdicts(build_yb(s)) == predict_conditions(s), s
    # the iswap-locus conditions, exactly on the locus
    for kind, lo, hi in ((2, 0.1, 0.75), (3, 2.3, 2.9)):
        for _ in range(50):
            phv = rng.uniform(lo, hi)
            t = math.tan(phv / 2)
            mu = 2 * math.atanh(t if kind == 2 else 1 / t)
            p1 = rng.uniform(0, 2 * PI)
            om = PI  # omega on the integer-pi lattice keeps the gate Clifford
            s = YbSpec("I", kind, mu, (p1, p1 + phv + om, p1 + phv - om))
            v = verdicts(build_yb(s))
            assert v == predict_conditions(s)
            assert v["clifford"] and v["matchgate"] and v["dual_unitary"]


def test_criterion_08_synthesis():
    rng = np.random.default_rng(1008)
    for _ in range(1000):
        u = unitary_group.rvs(4, random_state=rng)
        c = synth_general(u)
        assert verify_circuit(c, u) < 1e-7
        assert c.cnot_count == min_cnot_count(extract_nonlocal(u))
    for p1, chi in [(0.0, 0.3), (1.1, 0.9), (2.7, PI / 4)]:
        c = synth_riv(p1, chi)
        assert verify_circuit(c, build_yb(YbSpec("IV", 1, chi, (p1,)))) < 1e-10
        assert c.cnot_count == 2
    import scipy.linalg as sla

    from ybgates.linalg import SZ

    for theta in (0.31, 1.7, -2.4):
        c = synth_zz(theta)
        assert verify_circuit(c, sla.expm(-0.5j * theta * kron(SZ, SZ))) < 1e-10
        assert c.cnot_count == 2


def test_criterion_09_conjugation_identities():
    rng = np.random.default_rng(1009)
    g = kron(I2, SX)
    for _ in range(100):
        phi = rng.uniform(0, 2 * PI, 3)
        b1 = build_braid(BraidSpec("I", (phi[0], phi[1], phi[2], phi[0])))
        b2 = build_braid(BraidSpec("II", tuple(phi)))
        assert frob(b1 - g @ b2 @ g) <= 1e-12
    for _ in range(100):
        mu = rng.uniform(-1.5, 1.5)
        phi = tuple(rng.uniform(0, 2 * PI, 3))
        kind = int(rng.integers(1, 4))
        r1 = baxterized_gate(YbSpec("I", kind, mu, phi))
        r2 = baxterized_gate(YbSpec("II", kind, mu, phi))
        assert frob(r1 - g @ r2 @ g) <= 1e-12


def test_criterion_10_braid_limit():
    rng = np.random.default_rng(1010)
    for family in ("I", "II", "III"):
        for _ in range(10):
            s = yb_draw(rng, family, 1)
            assert braid_limit_residual(s, 12) < 1e-4
            assert braid_limit_residual(s, 20) < 1e-7


def test_criterion_11_kak_roundtrip():
    rng = np.random.default_rng(1011)
    for _ in range(1000):
        u = unitary_group.rvs(4, random_state=rng)
        k = kak_decompose(u)
        assert frob(k.reconstruct() - u) < 1e-8
    edge_points = [
        [0.6, 0, 0], [0.6, 0.6, 0], [0.6, 0.6, 0.6],
        [PI - 0.6, 0.6, 0], [PI - 0.7, 0.7, 0.7], [PI / 2, PI / 2, 0.6],
    ]
    for u in [CNOT, SWAP, ISWAP] + [core_gate(a) for a in edge_points]:
        k = kak_decompose(u)
        assert frob(k.reconstruct() - u) < 1e-8
