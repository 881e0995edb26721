import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ybgates.baxterize import YbSpec, build_yb
from ybgates.braid import BraidSpec, build_braid
from ybgates.classify import (
    classify_gate,
    clifford_table,
    dual_unitarity_residual,
    is_clifford,
    is_dual_unitary,
    is_matchgate,
    on_lattice,
    predict_conditions,
    reshuffle,
)
from ybgates.linalg import I2, PAULIS, SX, SZ, frob, kron
from ybgates.synth import GateOp
from ybgates.weyl import CNOT, ISWAP, SWAP, core_gate, extract_nonlocal

RNG = np.random.default_rng(31)
PI = math.pi


# --- numeric predicates ----------------------------------------------------

def test_clifford_examples():
    assert is_clifford(CNOT)
    assert is_clifford(SWAP)
    assert is_clifford(ISWAP)
    assert is_clifford(build_braid(BraidSpec("IV", (0.0,))))
    assert not is_clifford(build_braid(BraidSpec("III", (PI / 8, PI / 2))))


def test_clifford_random_circuit_closure():
    # products of H, S, CNOT stay Clifford; inserting T breaks it
    ops = [GateOp("H", (0,)), GateOp("S", (1,)), GateOp("CNOT", (0, 1)),
           GateOp("S", (0,)), GateOp("CNOT", (1, 0)), GateOp("H", (1,))]
    u = np.eye(4, dtype=complex)
    for op in ops:
        u = op.matrix() @ u
    assert is_clifford(u)
    assert not is_clifford(GateOp("T", (0,)).matrix() @ u)


def test_clifford_table_structure():
    t = clifford_table(CNOT)
    assert t["XI"][0] == "XX" and abs(t["XI"][2]) < 1e-12
    assert t["IZ"][0] == "ZZ" and abs(t["IZ"][2]) < 1e-12


_REF_GENERATORS = (("XI", kron(SX, I2)), ("ZI", kron(SZ, I2)), ("IX", kron(I2, SX)), ("IZ", kron(I2, SZ)))
_REF_STRINGS = [
    (a + b, kron(p, q)) for (a, p), (b, q) in itertools.product(zip("IXYZ", PAULIS), repeat=2)
]


def reference_clifford_table(u):
    """The nearest signed Pauli string of each generator image, one generator at a time."""
    table = {}
    for name, g in _REF_GENERATORS:
        m = u @ g @ u.conj().T
        t = np.array([np.trace(p.conj().T @ m) / 4 for _, p in _REF_STRINGS])
        k = int(np.argmax(np.maximum(np.abs(t.real), np.abs(t.imag))))
        ph = min((1, 1j, -1, -1j), key=lambda c: abs(t[k] - c))
        table[name] = (_REF_STRINGS[k][0], ph, frob(m - ph * _REF_STRINGS[k][1]))
    return table


def _check_table_matches_reference(u):
    got, want = clifford_table(u), reference_clifford_table(u)
    assert list(got) == list(want)
    for name, (label, ph, r) in want.items():
        assert got[name][:2] == (label, ph)
        assert abs(got[name][2] - r) <= 1e-12
    assert is_clifford(u) == all(r <= 1e-8 for _, _, r in want.values())


_CZ = np.diag([1, 1, 1, -1]).astype(complex)
clifford_ops = st.one_of(
    st.builds(GateOp, st.sampled_from(["H", "S"]), st.sampled_from([(0,), (1,)])),
    st.builds(GateOp, st.just("CNOT"), st.sampled_from([(0, 1), (1, 0)])),
)


@given(st.lists(clifford_ops, max_size=12), st.integers(0, 2**32 - 1), st.sampled_from([0, 1e-9, 1e-7]))
def test_clifford_table_matches_per_generator_reference(ops, seed, eps):
    """Products of H, S and CNOT, bare or moved by eps per entry."""
    u = np.eye(4, dtype=complex)
    for op in ops:
        u = op.matrix() @ u
    rng = np.random.default_rng(seed)
    _check_table_matches_reference(u + eps * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))))


def test_clifford_table_matches_reference_on_named_and_haar_gates():
    rng = np.random.default_rng(5)
    for u in (CNOT, SWAP, ISWAP, _CZ, np.eye(4)):
        for eps in (0, 1e-9, 1e-7):
            _check_table_matches_reference(u + eps * rng.standard_normal((4, 4)))
    for _ in range(50):
        _check_table_matches_reference(unitary_group.rvs(4, random_state=rng))


def test_matchgate_examples():
    for p1 in (0.0, 1.1, 4.4):
        assert is_matchgate(build_braid(BraidSpec("IV", (p1,))))
    assert not is_matchgate(build_braid(BraidSpec("III", (0.7, 1.2))))
    assert not is_matchgate(SWAP)
    # X-shaped with matching determinants
    s = BraidSpec("I", (0.3, 0.9, 0.7, 0.9 + 0.7 - 0.3 - PI))
    assert is_matchgate(build_braid(s))


def test_matchgate_implies_vanishing_third_coordinate():
    # necessary condition: the canonical point has a3 = 0
    for _ in range(30):
        a = unitary_group.rvs(2, random_state=RNG)
        b = unitary_group.rvs(2, random_state=RNG)
        b *= np.sqrt(np.linalg.det(a) / np.linalg.det(b))
        g = np.zeros((4, 4), dtype=complex)
        g[0, 0], g[0, 3], g[3, 0], g[3, 3] = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        g[1, 1], g[1, 2], g[2, 1], g[2, 2] = b[0, 0], b[0, 1], b[1, 0], b[1, 1]
        assert is_matchgate(g)
        assert extract_nonlocal(g)[2] < 1e-7


def test_dual_unitary_examples():
    assert is_dual_unitary(SWAP)
    assert not is_dual_unitary(np.eye(4))
    assert not is_dual_unitary(CNOT)
    assert is_dual_unitary(build_braid(BraidSpec("I", tuple(RNG.uniform(0, 2 * PI, 4)))))
    assert not is_dual_unitary(build_yb(YbSpec("IV", 1, 0.4, (0.7,))))


def test_dual_unitarity_iff_a2a3_edge():
    # the dual-unitary gates are exactly those with a1 = a2 = pi/2
    for _ in range(60):
        if RNG.random() < 0.5:
            a = [PI / 2, PI / 2, RNG.uniform(0, PI / 2)]
        else:
            a = sorted(RNG.uniform(0, PI / 2, 3), reverse=True)
        u = core_gate(a)
        on_edge = abs(a[0] - PI / 2) < 1e-9 and abs(a[1] - PI / 2) < 1e-9
        assert is_dual_unitary(u) == on_edge


def test_reshuffle_is_an_involution_up_to_index_swap():
    u = unitary_group.rvs(4, random_state=RNG)
    r = reshuffle(reshuffle(u))
    assert np.allclose(r, u)
    assert dual_unitarity_residual(u) >= 0


# --- symbolic predictions vs numerics --------------------------------------

PHI_COUNT = {"I": 4, "II": 3, "III": 2, "IV": 1}
YB_PHI_COUNT = {"I": 3, "II": 3, "III": 2, "IV": 1}


def numeric_verdicts(u):
    return {
        "clifford": bool(is_clifford(u)),
        "matchgate": bool(is_matchgate(u)),
        "dual_unitary": bool(is_dual_unitary(u)),
    }


@pytest.mark.parametrize("family", ["I", "II", "III", "IV"])
def test_braid_table_agreement_random(family):
    for _ in range(300):
        s = BraidSpec(family, tuple(RNG.uniform(0, 2 * PI, PHI_COUNT[family])))
        assert numeric_verdicts(build_braid(s)) == predict_conditions(s)


@pytest.mark.parametrize(
    "family,kind", [(f, k) for f in ("I", "II", "III") for k in (1, 2, 3)] + [("IV", 1)]
)
def test_yb_table_agreement_random(family, kind):
    for _ in range(300):
        sp = RNG.uniform(-2, 2) if family != "IV" else RNG.uniform(0.02, PI / 2 - 0.02)
        s = YbSpec(family, kind, sp, tuple(RNG.uniform(0, 2 * PI, YB_PHI_COUNT[family])))
        assert numeric_verdicts(build_yb(s)) == predict_conditions(s)


def test_braid_table_on_lattice_examples():
    # Clifford braid gates exactly on the condition lattice
    s = BraidSpec("I", (0.0, PI / 2, PI / 2, 0.0))
    assert predict_conditions(s)["clifford"]
    assert is_clifford(build_braid(s))
    s = BraidSpec("III", (PI / 4, PI / 2))
    assert predict_conditions(s)["clifford"]
    assert is_clifford(build_braid(s))


PI_8_LATTICE = [k * PI / 8 for k in range(16)]


@pytest.mark.parametrize("family", ["I", "II", "III", "IV"])
def test_braid_predictions_on_the_pi_8_lattice(family):
    """predicted == classification at every (phi1, phi2) on the (pi/8)Z
    lattice in [0, 2 pi)^2 (phi1 alone for family IV); the further phases of
    families I and II are drawn from the same lattice, 4 draws per point."""
    rng = np.random.default_rng(32)
    n = PHI_COUNT[family]
    for head in itertools.product(PI_8_LATTICE, repeat=min(n, 2)):
        for _ in range(4 if n > 2 else 1):
            s = BraidSpec(family, (*head, *rng.choice(PI_8_LATTICE, n - len(head))))
            assert numeric_verdicts(build_braid(s)) == predict_conditions(s), s


def test_family_iii_clifford_off_the_pi_4_lattice_in_phi2():
    """At sin phi1 = 0 the family III braid gate is a signed SWAP for any
    phi2; at cos phi1 = 0 it is a phased permutation, Clifford for phi2 on
    the pi/2 lattice."""
    for phi, clifford in [((0.0, 0.3), True), ((PI, 1.0), True), ((PI / 2, PI), True),
                          ((PI / 2, 0.0), True), ((-PI / 2, 0.3), False), ((PI / 4, PI), False)]:
        s = BraidSpec("III", phi)
        assert predict_conditions(s)["clifford"] is clifford
        assert is_clifford(build_braid(s)) is clifford


def test_braid_predictions_at_large_phases():
    """Each lattice test reads its angle modulo 2 pi, so predictions hold for
    phases drawn log-uniform out to 1e300, and the sums of phases near the
    float limit do not overflow."""
    rng = np.random.default_rng(29)
    specs = [BraidSpec("III", (1e300, PI / 2)), BraidSpec("II", (1e308, -1e308, 1e308))]
    for _ in range(100):
        for family, n in PHI_COUNT.items():
            specs.append(BraidSpec(family, rng.choice([-1, 1], n) * 10 ** rng.uniform(0, 300, n)))
    for s in specs:
        assert numeric_verdicts(build_braid(s)) == predict_conditions(s)


def test_lattice_points_many_turns_out():
    """A lattice point shifted by whole turns stays on the lattice, and a
    point off it stays off, past the 2 pi where angles are wrapped."""
    rng = np.random.default_rng(30)
    for step, offset in ((PI / 4, 0.0), (PI / 2, 0.0), (PI, PI / 2)):
        for turns in rng.integers(-10**5, 10**5, 50):
            x = offset + int(rng.integers(-8, 8)) * step + 2 * PI * int(turns)
            assert on_lattice(x, step, offset)
            assert not on_lattice(x + 1e-3, step, offset)


@st.composite
def lattice_yb_specs(draw):
    """A Yang-Baxter spec of families I-III with mu in {0.3, -1, 0} and its
    phases on the (pi/8)Z lattice."""
    family = draw(st.sampled_from(["I", "II", "III"]))
    phi = draw(st.lists(st.sampled_from(PI_8_LATTICE), min_size=YB_PHI_COUNT[family],
                        max_size=YB_PHI_COUNT[family]))
    return YbSpec(family, draw(st.integers(1, 3)), draw(st.sampled_from([0.3, -1.0, 0.0])), tuple(phi))


@settings(max_examples=600)
@given(lattice_yb_specs())
@example(YbSpec("III", 1, 0.3, (0.0, 0.0)))
@example(YbSpec("III", 1, -1.0, (PI / 2, PI / 8)))
@example(YbSpec("III", 1, 0.0, (0.0, 0.0)))
@example(YbSpec("I", 1, 0.3, (PI / 8, PI / 4, 0.0)))
@example(YbSpec("II", 1, -1.0, (0.0, PI, -PI)))
def test_yb_dual_unitary_predictions_on_the_pi_8_lattice(s):
    """Kind 1 is dual-unitary on the edge A2A3: at sin phi = 0 (sin 2 phi1 = 0
    for family III) with mu != 0.  Kinds 2 and 3 always are."""
    try:
        u = build_yb(s)
    except ValueError:  # family III kinds 2 and 3 at their singular points
        return
    assert predict_conditions(s)["dual_unitary"] is classify_gate(u).is_dual_unitary


@st.composite
def identity_and_signed_swap_specs(draw):
    """A kind-1 spec of families I-III at mu = +-0, whose gate is the
    identity, or a family III spec at sin phi1 = 0, whose gate is a signed
    SWAP; every other phase on the (pi/8)Z lattice."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(["I", "II", "III"]))
        phi = draw(st.lists(st.sampled_from(PI_8_LATTICE), min_size=YB_PHI_COUNT[family],
                            max_size=YB_PHI_COUNT[family]))
        return YbSpec(family, 1, draw(st.sampled_from([0.0, -0.0])), tuple(phi))
    phi = (draw(st.sampled_from([0.0, PI])), draw(st.sampled_from(PI_8_LATTICE)))
    return YbSpec("III", draw(st.integers(1, 3)), draw(st.sampled_from([0.3, -1.0])), phi)


@settings(max_examples=600)
@given(identity_and_signed_swap_specs())
@example(YbSpec("I", 1, 0.0, (0.0, PI / 8, 3 * PI / 8)))
@example(YbSpec("III", 1, 0.3, (0.0, 0.0)))
def test_yb_predictions_at_the_identity_and_signed_swap_points(s):
    """predicted == classification on all three fields where the gate is
    the identity or a signed SWAP."""
    assert numeric_verdicts(build_yb(s)) == predict_conditions(s), s


def test_yb_family_iv_predictions_on_the_pi_8_lattice():
    """predicted == classification at every (chi, phi1) on the (pi/8)Z
    lattice: the gate is +-1 at chi in piZ and a phased permutation at
    chi in pi/2 + piZ, Clifford there for phi1 on the pi/2 lattice."""
    for chi, phi1 in itertools.product(PI_8_LATTICE, repeat=2):
        s = YbSpec("IV", 1, chi, (phi1,))
        assert numeric_verdicts(build_yb(s)) == predict_conditions(s), s


@pytest.mark.parametrize("family", ["I", "II"])
def test_yb_families_i_ii_predictions_on_the_pi_8_lattice(family):
    """predicted == classification for kinds 1-3 at mu in {0.3, -1, +-0}.
    The gate depends on phi = (phi2 + phi3)/2 - phi1 and omega =
    (phi2 - phi3)/2 alone, 2 pi-periodic in each up to a global sign, so
    phi1 = 0 with phi2 in (pi/8)Z on [0, 4 pi) and phi3 on [0, 2 pi) reaches
    every (phi, omega) of the full (pi/8)Z^3 lattice.  Clifford needs omega
    on the pi/2 lattice where the gate is SWAP-like, and on the pi lattice on
    the iSWAP locus of kinds 2 and 3.  The singular points of kinds 2 and 3
    at mu = 0 are skipped."""
    for kind, mu in itertools.product((1, 2, 3), (0.3, -1.0, 0.0, -0.0)):
        for k2, k3 in itertools.product(range(32), range(16)):
            s = YbSpec(family, kind, mu, (0.0, k2 * PI / 8, k3 * PI / 8))
            try:
                u = build_yb(s)
            except ValueError:
                assert kind != 1 and mu == 0
                continue
            assert numeric_verdicts(u) == predict_conditions(s), s


def test_iswap_locus_conditions():
    # tanh(mu/2) = tan(phi/2) makes the second kind a Clifford matchgate
    for _ in range(10):
        phv = RNG.uniform(0.1, 0.7)
        mu = 2 * math.atanh(math.tan(phv / 2))
        p1 = RNG.uniform(0, 2 * PI)
        s = YbSpec("I", 2, mu, (p1, p1 + phv + PI, p1 + phv - PI))
        v = numeric_verdicts(build_yb(s))
        assert v == predict_conditions(s)
        assert v["matchgate"] and v["clifford"] and v["dual_unitary"]


def test_cot_locus_conditions():
    # tanh(mu/2) = cot(phi/2) for the third kind
    for _ in range(10):
        phv = RNG.uniform(2.0, 2.9)
        mu = 2 * math.atanh(1 / math.tan(phv / 2))
        p1 = RNG.uniform(0, 2 * PI)
        s = YbSpec("I", 3, mu, (p1, p1 + phv + PI, p1 + phv - PI))
        v = numeric_verdicts(build_yb(s))
        assert v == predict_conditions(s)
        assert v["matchgate"] and v["clifford"]


def test_kind_one_matchgate_locus():
    for k in range(3):
        p1 = RNG.uniform(0, 2 * PI)
        p2 = RNG.uniform(0, 2 * PI)
        p3 = 2 * (PI / 2 + k * PI + p1) - p2
        s = YbSpec("I", 1, 0.8, (p1, p2, p3))
        v = numeric_verdicts(build_yb(s))
        assert v == predict_conditions(s)
        assert v["matchgate"]


def test_classification_report():
    s = BraidSpec("IV", (0.0,))
    rep = classify_gate(build_braid(s), s)
    assert rep.is_clifford and rep.is_matchgate and not rep.is_dual_unitary
    assert rep.predicted == {"clifford": True, "matchgate": True, "dual_unitary": False}
    assert rep.dual_residual > 1e-3
    rep2 = classify_gate(CNOT)
    assert rep2.predicted is None


def test_classification_report_computes_each_quantity_once(monkeypatch):
    """classify_gate agrees with the public predicates, computing each of
    the Clifford table, the matchgate determinants and the dual residual
    once."""
    from ybgates import classify

    gates = [CNOT, SWAP, ISWAP, np.eye(4), core_gate([0.9, 0.5, 0.2])]
    gates += [build_braid(BraidSpec("IV", (0.7,))), build_braid(BraidSpec("III", (PI / 4, 0.0)))]
    gates += [unitary_group.rvs(4, random_state=RNG)]
    want = [(is_clifford(u), is_matchgate(u), is_dual_unitary(u)) for u in gates]
    calls = []
    for name in ("clifford_table", "matchgate_dets", "dual_unitarity_residual"):
        fn = getattr(classify, name)
        monkeypatch.setattr(classify, name, lambda *a, _f=fn, _n=name: calls.append(_n) or _f(*a))
    for u, verdicts in zip(gates, want):
        calls.clear()
        rep = classify_gate(u)
        assert sorted(calls) == ["clifford_table", "dual_unitarity_residual", "matchgate_dets"]
        assert (rep.is_clifford, rep.is_matchgate, rep.is_dual_unitary) == verdicts
        assert rep.dual_residual == dual_unitarity_residual(u)


def test_predict_rejects_unknown_spec():
    with pytest.raises(TypeError):
        predict_conditions(object())
