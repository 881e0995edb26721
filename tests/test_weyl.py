import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ybgates import weyl
from ybgates.linalg import SX, SY, SZ, frob, kron, unitarity_residual
from ybgates.weyl import (
    CNOT,
    ISWAP,
    SWAP,
    canonicalize,
    chamber_location,
    core_gate,
    entangling_power,
    entangling_power_from_point,
    entangling_power_mc,
    extract_nonlocal,
    kak_decompose,
    locally_equivalent,
    magic_basis,
    min_cnot_count,
    weyl_orbit,
)

RNG = np.random.default_rng(7)
PI = math.pi


def in_chamber(a, tol=1e-9):
    a1, a2, a3 = a
    ok = PI - a2 >= a1 - tol and a1 >= a2 - tol and a2 >= a3 - tol and a3 >= -tol
    if a3 <= 1e-7:
        ok = ok and a1 <= PI / 2 + tol
    return ok


def random_local():
    return kron(unitary_group.rvs(2, random_state=RNG), unitary_group.rvs(2, random_state=RNG))


def test_magic_basis_unitary():
    q = magic_basis()
    assert unitarity_residual(q) < 1e-15


def test_core_gate_is_magic_diagonal():
    q = magic_basis()
    for _ in range(10):
        a = RNG.uniform(0, PI, 3)
        d = q.conj().T @ core_gate(a) @ q
        assert frob(d - np.diag(np.diag(d))) < 1e-12
    # oracle: core_gate(a) = expm(i/2 (a1 XX + a2 YY + a3 ZZ)) for any angles
    for _ in range(40):
        a = RNG.uniform(-3 * PI, 3 * PI, 3)
        h = a[0] * kron(SX, SX) + a[1] * kron(SY, SY) + a[2] * kron(SZ, SZ)
        assert frob(core_gate(a) - sla.expm(0.5j * h)) < 1e-12


def test_canonicalize_lands_in_chamber():
    for _ in range(300):
        raw = RNG.uniform(-8, 8, 3)
        assert in_chamber(canonicalize(raw))


def test_canonicalize_constant_on_orbit():
    """Oracle: every 24-group image of a point canonicalizes identically."""
    for _ in range(40):
        raw = RNG.uniform(-4, 4, 3)
        base = canonicalize(raw)
        for img in weyl_orbit(raw):
            assert np.allclose(canonicalize(img), base, atol=1e-9)


def _bits(a):
    """The IEEE bit patterns, so that equality also sees the sign of zero."""
    return np.asarray(a, dtype=float).view(np.int64)


chamber_raw = st.tuples(*[st.floats(-4 * PI, 4 * PI)] * 3)
# Points on the branches of the reduction: exact multiples of pi (the
# shifts), a1 + a2 > pi (the pairwise fold) and a3 = 0 with a1 > pi/2
# (the base identification), plus signed zeros.
_BRANCH_POINTS = [
    (PI, -2 * PI, 4 * PI),
    (-3 * PI, 0.0, PI),
    (2.5, 2.0, 0.4),
    (-1.0, 3.0, 7.0),
    (2.0, 0.3, 0.0),
    (PI / 2 + 1e-9, 0.2, 0.0),
    (-0.0, 0.0, -0.0),
]


@given(chamber_raw)
@example(_BRANCH_POINTS[0])
@example(_BRANCH_POINTS[1])
@example(_BRANCH_POINTS[2])
@example(_BRANCH_POINTS[3])
@example(_BRANCH_POINTS[4])
@example(_BRANCH_POINTS[5])
@example(_BRANCH_POINTS[6])
def test_canonicalize_matches_move_reduction(raw):
    """The array reduction equals the move-list reduction bit for bit."""
    assert np.array_equal(_bits(canonicalize(raw)), _bits(weyl._canonical_moves(raw)[0]))


@given(st.lists(chamber_raw, min_size=1, max_size=12))
@example(_BRANCH_POINTS)
def test_canonicalize_rows_match_single_points(rows):
    """Each row of a stacked call equals the call on that row alone."""
    stack = np.array(rows)
    out = canonicalize(stack)
    ep = entangling_power_from_point(out)
    assert out.shape == stack.shape and ep.shape == stack.shape[:1]
    for i, raw in enumerate(stack):
        assert np.array_equal(_bits(out[i]), _bits(canonicalize(raw)))
        assert _bits(ep[i]) == _bits(entangling_power_from_point(out[i]))


def test_canonicalize_rejects_bad_input():
    for raw in ((0.1, 0.2), (0.1, np.nan, 0.3), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            canonicalize(raw)


def test_canonicalize_matches_core_gate_equivalence():
    for _ in range(25):
        raw = RNG.uniform(-4, 4, 3)
        a = canonicalize(raw)
        assert locally_equivalent(core_gate(raw), core_gate(a))


def test_landmark_points():
    assert np.allclose(extract_nonlocal(CNOT), [PI / 2, 0, 0], atol=1e-9)
    assert np.allclose(extract_nonlocal(SWAP), [PI / 2, PI / 2, PI / 2], atol=1e-9)
    assert np.allclose(extract_nonlocal(ISWAP), [PI / 2, PI / 2, 0], atol=1e-9)
    assert np.allclose(extract_nonlocal(np.eye(4)), [0, 0, 0], atol=1e-9)


def test_kak_roundtrip_random():
    for _ in range(250):
        u = unitary_group.rvs(4, random_state=RNG)
        k = kak_decompose(u)
        assert frob(k.reconstruct() - u) < 1e-8
        assert in_chamber(k.a)
        for v in (k.v1, k.v2, k.v3, k.v4):
            assert unitarity_residual(v) < 1e-9
            assert abs(np.linalg.det(v) - 1) <= 1e-9


# Raw points whose canonicalization needs, between them, every move:
# odd and even shifts, all swaps, and the flips (0, 1) and (0, 2).
_REPLAY_EXAMPLES = [
    (-5.0, 0.4, 0.0),
    (2.0, 0.3, 0.0),
    (2.5, 2.0, 0.4),
    (0.2, 0.9, 1.4),
    (-2 * PI, 2 * PI, PI),
]


def test_replay_examples_cover_every_move():
    moves = set()
    for raw in _REPLAY_EXAMPLES:
        for kind, i, n in weyl._canonical_moves(raw)[1]:
            moves.add((kind, i, n) if kind != "shift" else (kind, n % 2))
    assert moves >= {
        ("shift", 0), ("shift", 1), ("swap", 0, 1), ("swap", 1, 2), ("flip", 0, 1), ("flip", 0, 2)
    }


def _check_kak(k, u, a):
    assert frob(k.reconstruct() - u) <= 1e-8
    assert in_chamber(k.a)
    assert np.max(np.abs(k.a - a)) <= 1e-9
    for v in (k.v1, k.v2, k.v3, k.v4):
        assert abs(np.linalg.det(v) - 1) <= 1e-9


raw_angle = st.one_of(
    st.floats(-2 * PI, 2 * PI), st.sampled_from([0.0, PI / 2, -PI / 2, PI, -PI, 2 * PI, -2 * PI])
)
seeds = st.integers(0, 2**32 - 1)


@given(st.tuples(raw_angle, raw_angle, raw_angle), seeds)
@example(_REPLAY_EXAMPLES[0], 0)
@example(_REPLAY_EXAMPLES[1], 1)
@example(_REPLAY_EXAMPLES[2], 2)
@example(_REPLAY_EXAMPLES[3], 3)
@example(_REPLAY_EXAMPLES[4], 4)
def test_kak_replay_on_local_factors(raw, seed):
    """The moves replayed on the 2x2 factors keep U, the chamber point and det 1."""
    rng = np.random.default_rng(seed)
    l, r = (kron(unitary_group.rvs(2, random_state=rng), unitary_group.rvs(2, random_state=rng))
            for _ in range(2))
    u = l @ core_gate(raw) @ r
    a = canonicalize(raw)
    # the drawn raw point itself, so that every move of its canonicalization is replayed
    with mock.patch.object(weyl, "_magic_kak_raw", lambda _: (l, np.array(raw), r, 0.0)):
        _check_kak(kak_decompose(u), u, a)
    _check_kak(kak_decompose(u), u, a)


def test_kak_roundtrip_degenerate_landmarks():
    edges = [
        [0.4, 0, 0],
        [PI / 2, 0.4, 0.4],  # OA3 direction
        [PI / 2, 0.4, 0],
        [PI / 2, PI / 2, 0.4],
        [0.9, 0.9, 0.9],
    ]
    gates = [CNOT, SWAP, ISWAP, np.eye(4, dtype=complex)]
    gates += [core_gate(a) for a in edges]
    for u in gates:
        k = kak_decompose(u)
        assert frob(k.reconstruct() - u) < 1e-8


def test_extract_nonlocal_local_invariance():
    for _ in range(40):
        u = unitary_group.rvs(4, random_state=RNG)
        a = extract_nonlocal(u)
        b = extract_nonlocal(random_local() @ u @ random_local())
        assert np.allclose(a, b, atol=1e-7)


def test_entangling_power_formulas_agree():
    for _ in range(40):
        u = unitary_group.rvs(4, random_state=RNG)
        ep = entangling_power(u)
        ep2 = entangling_power_from_point(extract_nonlocal(u))
        assert ep == pytest.approx(ep2, abs=1e-9)
        assert 0 <= ep <= 2 / 9 + 1e-12


def test_entangling_power_landmarks():
    assert entangling_power(CNOT) == pytest.approx(2 / 9, abs=1e-12)
    assert entangling_power(SWAP) == pytest.approx(0.0, abs=1e-12)
    assert entangling_power(ISWAP) == pytest.approx(2 / 9, abs=1e-12)


def test_entangling_power_mc_matches_closed_form():
    for u in (CNOT, SWAP, unitary_group.rvs(4, random_state=RNG)):
        mc = entangling_power_mc(u, 100000, seed=5)
        assert mc == pytest.approx(entangling_power(u), abs=3e-3)


def test_entangling_power_mc_deterministic():
    u = unitary_group.rvs(4, random_state=RNG)
    assert entangling_power_mc(u, 1000, seed=9) == entangling_power_mc(u, 1000, seed=9)
    assert entangling_power_mc(u, 1000, seed=9) != entangling_power_mc(u, 1000, seed=10)


def test_min_cnot_count():
    assert min_cnot_count([0, 0, 0]) == 0
    assert min_cnot_count([PI / 2, 0, 0]) == 1
    assert min_cnot_count([PI / 2, PI / 2, 0]) == 2
    assert min_cnot_count([0.3, 0.1, 0]) == 2
    assert min_cnot_count([PI / 2, PI / 2, PI / 2]) == 3
    assert min_cnot_count([0.9, 0.5, 0.2]) == 3


def test_chamber_location_tags():
    assert chamber_location([0, 0, 0]) == "O"
    assert chamber_location([PI, 0, 0]) == "A1"
    assert chamber_location([PI / 2, PI / 2, 0]) == "A2"
    assert chamber_location([PI / 2, PI / 2, PI / 2]) == "A3"
    assert chamber_location([PI / 2, 0, 0]) == "mid OA1"
    assert chamber_location([PI / 2, PI / 2, 0.4]) == "A2A3"
    assert chamber_location([0.9, 0.5, 0.2]) == "interior"


def test_locally_equivalent():
    assert locally_equivalent(CNOT, random_local() @ CNOT @ random_local())
    assert not locally_equivalent(CNOT, SWAP)
