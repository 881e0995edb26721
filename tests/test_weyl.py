import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import special_ortho_group, unitary_group

from ybgates import braid, cli, synth, weyl
from ybgates.linalg import SX, SY, SZ, dagger, frob, kron, phase_distance, unitarity_residual
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
    min_cnot_count,
)

RNG = np.random.default_rng(7)
PI = math.pi

# Magic (Bell) basis columns:
# (|00>+|11>)/sqrt2, i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2, i(|00>-|11>)/sqrt2
MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2)


def weyl_orbit(raw) -> list:
    """All images of a point under the 24-element Weyl group, reduced mod pi.

    Brute-force oracle: coordinate permutations x pairwise sign flips,
    each coordinate then shifted into [0, pi).
    """
    a = np.asarray(raw, dtype=float)
    out = []
    for perm in itertools.permutations(range(3)):
        p = a[list(perm)]
        for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            out.append(np.mod(p * signs, math.pi))
    return out


def locally_equivalent(u, v, tol=1e-7) -> bool:
    return bool(np.max(np.abs(extract_nonlocal(u) - extract_nonlocal(v))) <= tol)


def in_chamber(a, tol=1e-9):
    a1, a2, a3 = a
    ok = PI - a2 >= a1 - tol and a1 >= a2 - tol and a2 >= a3 - tol and a3 >= -tol
    if a3 <= 1e-7:
        ok = ok and a1 <= PI / 2 + tol
    return ok


def random_local():
    return kron(unitary_group.rvs(2, random_state=RNG), unitary_group.rvs(2, random_state=RNG))


def test_magic_basis_unitary():
    assert unitarity_residual(MAGIC) < 1e-15


def test_core_gate_is_magic_diagonal():
    for _ in range(10):
        a = RNG.uniform(0, PI, 3)
        d = MAGIC.conj().T @ core_gate(a) @ MAGIC
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


# Raw points that reduce into the base band 0 < a3 <= CHAMBER_TOL with
# a1 > pi/2, where the base fold flips a3 and then clamps it to 0.
_BAND_POINTS = [
    (2.0, 0.5, 5e-8),
    (PI / 2 + 1e-9, 0.2, weyl.CHAMBER_TOL),
    (3.0, 0.1, 1e-12),
    (-1.2, 0.5, 5e-8),
    (0.5, 5e-8 + PI, 2.0 - 2 * PI),
]
# Negative coordinates whose shift by floor(a / pi) falls short: a / pi
# underflows to -0.0, or rounds to the integer -162 one ulp below -162 pi.
_SHIFT_POINTS = [(0.0, -1.0, -5e-324), (0.0, -1.0, -508.9380098815465)]


@given(chamber_raw)
@example(_BRANCH_POINTS[0])
@example(_BRANCH_POINTS[1])
@example(_BRANCH_POINTS[2])
@example(_BRANCH_POINTS[3])
@example(_BRANCH_POINTS[4])
@example(_BRANCH_POINTS[5])
@example(_BRANCH_POINTS[6])
@example(_BAND_POINTS[0])
@example(_BAND_POINTS[4])
@example(_SHIFT_POINTS[0])
@example(_SHIFT_POINTS[1])
def test_canonicalize_matches_move_reduction(raw):
    """The array reduction equals the scalar reduction bit for bit.

    A single triple is reduced by `_canonical_point` itself, so the array
    code is checked on the same triple stacked as a (1, 3) batch.
    """
    want = _bits(weyl._canonical_point(raw))
    assert np.array_equal(_bits(canonicalize(raw)), want)
    assert np.array_equal(_bits(canonicalize([raw])[0]), want)


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


# A (2, 4, 3) grid, as `sweep` passes: ties and signed zeros in rows that
# fold pairwise, fold on the base, and do not fold at all.
_GRID_POINTS = [
    [(2.5, 2.5, 0.4), (0.0, -0.0, 1.0), (2.0, -0.0, 0.0), (1.0, 1.0, 1.0)],
    [(3.0, 2.0, 2.0), (0.0, -0.0, 2.0), (PI / 2 + 1e-9, 0.2, 0.0), (-PI, PI, -0.0)],
]


@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(chamber_raw, min_size=m, max_size=m), min_size=1, max_size=5)))
@example(_GRID_POINTS)
def test_canonicalize_grid_matches_single_points(grid):
    """Each point of an (n, m, 3) batch equals `_canonical_point` on it, bit
    for bit, and the batch given is left as it was."""
    raw = np.array(grid)
    before = _bits(raw).copy()
    out = canonicalize(raw)
    assert out.shape == raw.shape
    assert np.array_equal(_bits(raw), before)
    for index in np.ndindex(raw.shape[:2]):
        assert np.array_equal(_bits(out[index]), _bits(weyl._canonical_point(raw[index])))


@given(chamber_raw)
@example(_BRANCH_POINTS[4])
@example(_BAND_POINTS[0])
@example(_BAND_POINTS[1])
@example(_BAND_POINTS[2])
@example(_BAND_POINTS[3])
@example(_BAND_POINTS[4])
@example(_SHIFT_POINTS[0])
@example(_SHIFT_POINTS[1])
def test_canonicalize_lands_in_chamber_on_every_branch(raw):
    """The reduced point is in the chamber; only the clamp moves it off the
    exact Weyl image, and only a3, by at most CHAMBER_TOL."""
    a = canonicalize(raw)
    assert in_chamber(a, tol=1e-9)
    exact = weyl._canonical_point(raw, clamp=False)
    assert np.array_equal(a[:2], exact[:2])
    assert abs(a[2] - exact[2]) <= weyl.CHAMBER_TOL
    if _bits(a[2]) != _bits(exact[2]):
        assert _bits(a[2]) == _bits(0.0)  # clamped to +0, never -0


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
        for v in _factor_gates(k.factors):
            assert unitarity_residual(v) < 1e-9
            assert abs(np.linalg.det(v) - 1) <= 1e-9


# Raw points whose canonicalization takes, between them, every step:
# odd and even shifts, all swaps, the pairwise fold and the base fold.
_DRESSED_EXAMPLES = [
    (-5.0, 0.4, 0.0),
    (2.0, 0.3, 0.0),
    (2.5, 2.0, 0.4),
    (0.2, 0.9, 1.4),
    (-2 * PI, 2 * PI, PI),
]


def _check_kak(k, u, a):
    assert frob(k.reconstruct() - u) <= 1e-8
    assert in_chamber(k.a)
    assert np.max(np.abs(k.a - a)) <= 1e-9
    for v in _factor_gates(k.factors):
        assert abs(np.linalg.det(v) - 1) <= 1e-9


raw_angle = st.one_of(
    st.floats(-2 * PI, 2 * PI), st.sampled_from([0.0, PI / 2, -PI / 2, PI, -PI, 2 * PI, -2 * PI])
)
seeds = st.integers(0, 2**32 - 1)


def _dressed(u, seed):
    """Haar local gates on both sides of u."""
    rng = np.random.default_rng(seed)
    l, r = (kron(unitary_group.rvs(2, random_state=rng), unitary_group.rvs(2, random_state=rng))
            for _ in range(2))
    return l @ u @ r


@given(st.tuples(raw_angle, raw_angle, raw_angle), seeds)
@example(_DRESSED_EXAMPLES[0], 0)
@example(_DRESSED_EXAMPLES[1], 1)
@example(_DRESSED_EXAMPLES[2], 2)
@example(_DRESSED_EXAMPLES[3], 3)
@example(_DRESSED_EXAMPLES[4], 4)
def test_kak_on_dressed_raw_points(raw, seed):
    """KAK of a dressed raw point keeps U, finds its chamber point and det 1 factors."""
    u = _dressed(core_gate(raw), seed)
    _check_kak(kak_decompose(u), u, canonicalize(raw))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the KAK band of ROADMAP item 20: KAK keeps the exact "
                   "base-fold image, a3 < 0, where this check wants the clamped point")
@pytest.mark.parametrize("raw", [(1.0, 2.0, 1e-8), (1.0, 5.96e-8, -1.0)])
def test_kak_band_points_keep_the_exact_image(raw):
    """Dressed with seed 0, these points give a3 = -1.0e-8 and -5.96e-8
    from KAK, which `canonicalize` clamps to 0."""
    u = _dressed(core_gate(raw), 0)
    _check_kak(kak_decompose(u), u, canonicalize(raw))


_H = PI / 2
# (s, t) in [0, 1]^2 to raw points on the chamber's faces, edges and vertices,
# and in the base band 0 < a3 <= CHAMBER_TOL where the base fold applies
_BOUNDARY = (
    lambda s, t: (_H * s, _H * s * t, 0.0),
    lambda s, t: (_H * s, _H * s, _H * s * t),
    lambda s, t: (PI * s, min(s, 1 - s) * PI * t, min(s, 1 - s) * PI * t),
    lambda s, t: (_H + _H * s, _H - _H * s, (_H - _H * s) * t),
    lambda s, t: (PI * s, 0.0, 0.0),
    lambda s, t: (_H * s, _H * s, 0.0),
    lambda s, t: (_H * s, _H * s, _H * s),
    lambda s, t: (_H + _H * s, _H - _H * s, 0.0),
    lambda s, t: (_H + _H * s, _H - _H * s, _H - _H * s),
    lambda s, t: (_H, _H, _H * s),
    lambda s, t: (_H + _H * s, _H * t, weyl.CHAMBER_TOL * t),
    lambda s, t: (0.0, 0.0, 0.0),
    lambda s, t: (PI, 0.0, 0.0),
    lambda s, t: (_H, _H, 0.0),
    lambda s, t: (_H, _H, _H),
)
unit = st.floats(0, 1)
boundary_points = st.builds(lambda f, s, t: f(s, t), st.sampled_from(_BOUNDARY), unit, unit)


def _clamped(a):
    """A chamber point with a3 clamped at 0, as the base fold clamps it."""
    return np.array([a[0], a[1], max(a[2], 0.0)])


def _check_one_spectrum(u):
    """`extract_nonlocal(u)` is KAK's point with a3 clamped at 0, bit for bit
    (compared as floats, so a zero a3 may differ in sign)."""
    a = extract_nonlocal(u)
    assert a[2] >= 0
    assert a.tolist() == _clamped(kak_decompose(u).a).tolist()


# Gates on the base fold's threshold (a1 = pi/2 within rounding, a3 in the
# band), with seeds at which two eigensolvers of the same m took different
# fold decisions
_FOLD_THRESHOLD_POINTS = [
    ((3 * PI / 4, PI / 2, 1e-7), 1),
    ((PI / 2, PI / 2, 4.8e-9), 5),
    ((PI / 2, PI / 4, 5e-8), 1),
]


@given(boundary_points, seeds)
@example((2.0, 0.5, 5e-8), 0)
@example(*_FOLD_THRESHOLD_POINTS[0])
@example(*_FOLD_THRESHOLD_POINTS[1])
@example(*_FOLD_THRESHOLD_POINTS[2])
def test_extract_nonlocal_matches_kak_on_dressed_boundary_points(raw, seed):
    """The chamber point is the one KAK reports, clamped, from one spectrum.

    Band rule: on the base band, a3 within CHAMBER_TOL of 0 with a1 > pi/2,
    the base fold gives [pi - a1, a2, -a3].  KAK keeps that exact image,
    a3 <= 0, because its 1e-8 reconstruction check is tighter than
    CHAMBER_TOL; `extract_nonlocal` clamps a3 to 0, into the chamber.  Both
    read the same eigenphases, so they take the same fold decisions.
    """
    _check_one_spectrum(_dressed(core_gate(raw), seed))


@given(boundary_points, seeds)
@example((2.0, 0.5, 5e-8), 0)
@example((PI / 2 + 1e-9, 0.2, weyl.CHAMBER_TOL), 1)
@example(*_FOLD_THRESHOLD_POINTS[0])
@example(*_FOLD_THRESHOLD_POINTS[1])
@example(*_FOLD_THRESHOLD_POINTS[2])
def test_reported_point_is_in_the_chamber(raw, seed):
    """The analyze report is in the chamber, at most CHAMBER_TOL from the
    exact image KAK keeps, and its a3, as that of `extract_nonlocal`, is
    never negative: it is 0.0 wherever KAK's base fold left a3 < 0, fold
    thresholds included.
    """
    for u in (core_gate(raw), _dressed(core_gate(raw), seed)):
        reported = np.array(cli.build_report(u, None, 0, 16, 0.5, 0.7)["nonlocal"])
        extracted = extract_nonlocal(u)
        exact = kak_decompose(u).a
        assert in_chamber(reported, tol=1e-9)
        assert _same_point_up_to_base(reported, exact, weyl.CHAMBER_TOL)
        assert reported[2] >= 0.0 and extracted[2] >= 0.0
        if exact[2] < 0:
            assert reported[2] == 0.0 and extracted[2] == 0.0


@given(boundary_points, seeds)
@example((2.0, 0.5, 5e-8), 0)
@example((PI / 2 + 1e-9, 0.2, weyl.CHAMBER_TOL), 1)
@example((0.6, 0.0, 0.0), 2)
def test_reported_point_is_the_extracted_point_bit_for_bit(raw, seed):
    """The report reads its point off `extract_nonlocal`, with no second
    reduction, and writes a negative zero as 0.0."""
    for u in (core_gate(raw), _dressed(core_gate(raw), seed)):
        reported = cli.build_report(u, None, 0, 16, 0.5, 0.7)["nonlocal"]
        want = [x + 0.0 for x in extract_nonlocal(u).tolist()]
        assert _bits(reported).tolist() == _bits(want).tolist()
        assert all(isinstance(x, float) and math.copysign(1.0, x) == 1.0 for x in reported)


def test_build_report_reduces_the_point_once(monkeypatch):
    """One report runs one chamber reduction, whatever the spec."""
    calls = []
    reduce = weyl._canonical_point
    monkeypatch.setattr(weyl, "_canonical_point", lambda *a: calls.append(a) or reduce(*a))
    specs = [
        {"named": "cnot"},
        {"braid": {"family": "III", "phi": ["pi/8", 0.3]}},
        {"yb": {"family": "I", "kind": 2, "mu": 0.4, "phi": [0.1, 0.2, 0.3]}},
        {"yb": {"family": "IV", "chi": 0.3, "phi": [0.7]}},
    ]
    gates = [cli.load_spec(obj) for obj in specs]
    gates += [(_dressed(core_gate((2.0, 0.5, 5e-8)), 0), None), (unitary_group.rvs(4, random_state=RNG), None)]
    for u, spec in gates:
        calls.clear()
        cli.build_report(u, spec, 0, 16, 0.5, 0.7)
        assert len(calls) == 1


def _rotation(a, b):
    """The rotation o in SO(4) with MAGIC o MAGIC^dag = a x b, for a local
    gate a x b (MAGIC^dag (a x b) MAGIC is real up to rounding)."""
    return (dagger(MAGIC) @ kron(a, b) @ MAGIC).real


rotations = seeds.map(lambda s: special_ortho_group.rvs(4, random_state=s))
# its imaginary part before .real is about 2e-17
XY_ROTATION = _rotation(SX, SY)


def _factor_gates(entries) -> np.ndarray:
    """The (4, 2, 2) stack v1, v2, v3, v4 of the 16 entries `_local_factors`
    returns, after checking that they are 16 Python complex numbers."""
    assert isinstance(entries, list) and len(entries) == 16
    assert all(type(x) is complex for x in entries)
    return np.array(entries).reshape(4, 2, 2)


@given(rotations, rotations)
@example(np.eye(4), np.eye(4))
@example(XY_ROTATION, np.eye(4))
@example(np.eye(4), XY_ROTATION)
def test_local_factors_split_rotations(left, p):
    """MAGIC left MAGIC^dag = v1 x v2 and MAGIC p^T MAGIC^dag = v3 x v4 to
    1e-12 on Haar SO(4) pairs, each factor of det 1 to 1e-12."""
    v1, v2, v3, v4 = _factor_gates(weyl._local_factors(left, p))
    for a, b, o in ((v1, v2, left), (v3, v4, p.T)):
        assert frob(kron(a, b) - MAGIC @ o @ dagger(MAGIC)) <= 1e-12
        for g in (a, b):
            assert abs(np.linalg.det(g) - 1) <= 1e-12


@given(seeds)
def test_local_factors_recover_haar_factors(seed):
    """The rotations of Haar SU(2) pairs split back into those pairs, up to
    the joint sign that a x b does not see."""
    rng = np.random.default_rng(seed)
    f = []
    for _ in range(4):
        g = unitary_group.rvs(2, random_state=rng)
        f.append(g / np.sqrt(np.linalg.det(g)))
    got = _factor_gates(weyl._local_factors(_rotation(f[0], f[1]), _rotation(f[2], f[3]).T))
    for pair in ((0, 1), (2, 3)):
        sign = np.sign(np.vdot(f[pair[0]], got[pair[0]]).real)
        for i in pair:
            assert frob(got[i] - sign * f[i]) <= 1e-12


@given(rotations, rotations)
def test_local_factors_slots_split_alike(o1, o2):
    """The transposed table splits p as the table splits p^T, to 1e-15, and
    neither slot's factors depend on the other slot."""
    a = _factor_gates(weyl._local_factors(o1, o2))
    b = _factor_gates(weyl._local_factors(o2.T, o1.T))
    assert np.max(np.abs(a[2:] - b[:2])) <= 1e-15
    assert np.max(np.abs(a[:2] - b[2:])) <= 1e-15


def test_local_factors_reject_non_rotations():
    """A det -1 orthogonal matrix, a NaN entry or a scale 1e-6 off 1 in either
    slot fails the 1e-7 residual check; a scale 1e-9 off 1 passes it."""
    rng = np.random.default_rng(11)
    o = special_ortho_group.rvs(4, random_state=rng)
    swap = (dagger(MAGIC) @ SWAP @ MAGIC).real
    reflection = special_ortho_group.rvs(4, random_state=rng) @ np.diag([1.0, 1.0, 1.0, -1.0])
    bad = [swap, reflection, (1 + 1e-6) * o]
    for k in range(16):
        nan = o.copy()
        nan.flat[k] = np.nan
        bad.append(nan)
    for b in bad:
        for pair in ((b, o), (o, b)):
            with pytest.raises(ValueError, match="not a tensor product"):
                weyl._local_factors(*pair)
    weyl._local_factors((1 + 1e-9) * o, o)
    weyl._local_factors(o, (1 + 1e-9) * o)


@given(st.one_of(seeds.map(lambda s: unitary_group.rvs(4, random_state=np.random.default_rng(s))),
                 st.builds(_dressed, st.sampled_from([np.eye(4), CNOT, ISWAP, SWAP]), seeds)))
@example(np.eye(4))
@example(SWAP)
@example(_dressed(CNOT, 0))
def test_reconstruct_is_the_kak_product(u):
    """`reconstruct()` is e^{i phase} kron(v1, v2) core_gate(a) kron(v3, v4)
    to 1e-14, for v1..v4 the 2x2 gates of the entries in `factors`."""
    k = kak_decompose(u)
    v1, v2, v3, v4 = _factor_gates(k.factors)
    want = np.exp(1j * k.phase) * kron(v1, v2) @ core_gate(k.a) @ kron(v3, v4)
    assert frob(k.reconstruct() - want) <= 1e-14


def _near_unitary(seed, residual):
    """A Haar gate v times I + e h, h Hermitian, with unitarity residual about `residual`."""
    rng = np.random.default_rng(seed)
    v = unitary_group.rvs(4, random_state=rng)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + dagger(h)) / frob(h + dagger(h))
    return v @ (np.eye(4) + 0.5 * residual * h)


@given(seeds, st.floats(-12, -8))
@example(0, -12.0)
@example(1, -9.5)
@example(2, math.log10(0.999e-8))
def test_library_decomposes_near_unitary_gates(seed, log_residual):
    """Residuals in [1e-12, 1e-8] are admitted by the library's own entry points,
    and every result is checked against the input as given."""
    u = _near_unitary(seed, 10.0**log_residual)
    assume(unitarity_residual(u) <= 1e-8)  # the top of the range can round past it
    k = kak_decompose(u)
    assert phase_distance(k.reconstruct(), u) <= 1e-8
    assert in_chamber(k.a)
    for v in _factor_gates(k.factors):
        assert abs(np.linalg.det(v) - 1) <= 1e-9
    assert extract_nonlocal(u).tolist() == _clamped(k.a).tolist()
    c = synth.synth_general(u)
    assert frob(synth.evaluate(c) - u) <= 1e-7
    assert c.cnot_count == min_cnot_count(k.a)


_BRAID_PARAMS = {"I": 4, "II": 3, "III": 2, "IV": 1}
braid_specs = st.sampled_from(braid.FAMILIES).flatmap(
    lambda f: st.builds(braid.BraidSpec, st.just(f),
                        st.lists(st.floats(-10, 10), min_size=_BRAID_PARAMS[f],
                                 max_size=_BRAID_PARAMS[f]))
)


@given(braid_specs, st.one_of(st.none(), seeds))
def test_extract_nonlocal_matches_kak_on_braid_gates(spec, seed):
    """As above, for the four braid families, bare and dressed."""
    u = braid.build_braid(spec)
    if seed is not None:
        u = _dressed(u, seed)
    _check_one_spectrum(u)


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


def _same_point_up_to_base(a, b, tol):
    """Max-norm distance within tol, with [a1, a2, a3] ~ [pi - a1, a2, -a3]
    in the base band, where the fold threshold can go either way."""
    d = np.max(np.abs(a - b))
    if min(abs(a[2]), abs(b[2])) <= weyl.CHAMBER_TOL + 1e-9:
        d = min(d, max(abs(a[0] - (PI - b[0])), abs(a[1] - b[1]), abs(a[2] + b[2])))
    return d <= tol


@given(boundary_points, seeds)
@example((2.809247135682249, PI / 2, 1e-7), 47)
def test_extract_nonlocal_local_invariance_on_boundary(raw, seed):
    """Local dressing leaves the chamber point of a face, edge or vertex gate.

    Compared as the exact Weyl images KAK keeps: `extract_nonlocal` clamps
    a3 on the base band, so where dressing moves a point across the fold
    threshold (a1 = pi/2 here) the two clamped points differ by up to
    CHAMBER_TOL in a3.
    """
    g = core_gate(raw)
    assert _same_point_up_to_base(kak_decompose(g).a, kak_decompose(_dressed(g, seed)).a, 1e-9)


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


@given(seeds, st.floats(-11.5, -8))
@example(1, -9.5)
@example(2, math.log10(0.999e-8))
def test_entangling_power_of_near_unitary_gate_is_its_polar_factors(seed, log_residual):
    """A unitarity residual in (1e-12, 1e-8] gives the value of the polar factor."""
    u = _near_unitary(seed, 10.0**log_residual)
    assume(1e-12 < unitarity_residual(u) <= 1e-8)
    w, _ = sla.polar(u)
    assert abs(entangling_power(u) - entangling_power(w)) <= 1e-15


_NAN_CNOT = CNOT.copy()
_NAN_CNOT[1, 1] = np.nan


@pytest.mark.parametrize("u", [_near_unitary(3, 3e-8), 2 * CNOT, _NAN_CNOT], ids=["3e-8", "2cnot", "nan"])
def test_entangling_power_rejects_non_unitary_input(u):
    """A residual past 1e-8, NaN included, raises."""
    assert not unitarity_residual(u) <= 1e-8
    with pytest.raises(ValueError, match="not unitary"):
        entangling_power(u)


def test_entangling_power_mc_matches_closed_form():
    for u in (CNOT, SWAP, unitary_group.rvs(4, random_state=RNG)):
        mc = entangling_power_mc(u, 100000, seed=5)
        assert mc == pytest.approx(entangling_power(u), abs=3e-3)


def test_entangling_power_mc_deterministic():
    u = unitary_group.rvs(4, random_state=RNG)
    assert entangling_power_mc(u, 1000, seed=9) == entangling_power_mc(u, 1000, seed=9)
    assert entangling_power_mc(u, 1000, seed=9) != entangling_power_mc(u, 1000, seed=10)


def _density_matrix_mc(u, n, seed):
    """Reference estimator: unit product states, rho = M M^dag, tr rho^2."""
    u = np.asarray(u, dtype=complex)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, n, 2)) + 1j * rng.standard_normal((2, n, 2))
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    psi = np.einsum("ni,nj->nij", z[0], z[1]).reshape(n, 4) @ u.T
    m = psi.reshape(n, 2, 2)
    rho = m @ np.conj(m).transpose(0, 2, 1)
    purity = np.einsum("nij,nji->n", rho, rho).real
    return float(np.mean(1.0 - purity))


def test_entangling_power_mc_matches_density_matrix_reference():
    """Same draws and value as the density-matrix estimator, seed for seed."""
    rng = np.random.default_rng(31)
    haar = [unitary_group.rvs(4, random_state=rng) for _ in range(4)]
    # a gate off unitarity by about 1e-7, as `analyze` admits
    near = haar[3] + 1e-7 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for u in (CNOT, SWAP, np.eye(4), *haar[:3], near):
        for seed in (0, 1006):
            for n in (1, 7, 20000):
                want = _density_matrix_mc(u, n, seed)
                assert abs(entangling_power_mc(u, n, seed) - want) <= 1e-12, (n, seed)


def _near_haar(gate_seed, eps):
    """A Haar gate moved off unitarity by up to eps per entry."""
    rng = np.random.default_rng(gate_seed)
    u = unitary_group.rvs(4, random_state=rng)
    return u + eps * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))


mc_gates = st.builds(_near_haar, seeds, st.one_of(st.just(0.0), st.floats(0, 1e-6)))


@given(mc_gates, seeds, st.integers(1, 64))
@example(CNOT, 0, 20000)
@example(SWAP, 1006, 3)
@example(np.eye(4), 1, 1)
@example(_near_haar(5, 1e-6), 7, 20000)
def test_entangling_power_mc_moment_form_matches_density_matrix(u, seed, n):
    assert abs(entangling_power_mc(u, n, seed) - _density_matrix_mc(u, n, seed)) <= 1e-12


def test_entangling_power_mc_cache_hit_matches_miss():
    u = unitary_group.rvs(4, random_state=RNG)
    weyl._mc_moments.cache_clear()
    miss = entangling_power_mc(u, 20000, seed=4)
    assert weyl._mc_moments.cache_info().misses == 1
    hit = entangling_power_mc(u, 20000, seed=4)
    assert weyl._mc_moments.cache_info().hits == 1
    assert hit.hex() == miss.hex()


@pytest.mark.parametrize("n", [1, 20000])
def test_mc_moments_are_read_only_16x16(n):
    m, l, k = weyl._mc_moments(n, 0)
    assert m.shape == (16, 16)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-15)
    for t in (m, l, k):
        assert t.shape == (16, 16)
        with pytest.raises(ValueError):
            t[0, 0] = 0.0


def test_entangling_power_mc_seed_must_be_an_integer():
    for bad in (None, np.random.default_rng(0), 1.0):
        with pytest.raises(TypeError):
            entangling_power_mc(CNOT, 10, seed=bad)
    with pytest.raises(ValueError):
        entangling_power_mc(CNOT, 10, seed=-1)
    assert entangling_power_mc(ISWAP, 10, seed=np.int64(3)) == entangling_power_mc(ISWAP, 10, seed=3)


# Every location tag at a point that defines it, with the point's CNOT
# count: 0 at O, 1 at mid OA1, 2 elsewhere on the base a3 = 0 and 3 off it.
_TAG_POINTS = {
    "O": ([0, 0, 0], 0),
    "A2": ([PI / 2, PI / 2, 0], 2),
    "A3": ([PI / 2, PI / 2, PI / 2], 3),
    "mid OA1": ([PI / 2, 0, 0], 1),
    "OA1": ([0.3, 0, 0], 2),
    "OA2": ([0.4, 0.4, 0], 2),
    "OA3": ([0.4, 0.4, 0.4], 3),
    "A1A3": ([PI - 0.4, 0.4, 0.4], 3),
    "A2A3": ([PI / 2, PI / 2, 0.4], 3),
    "OA1A2": ([0.3, 0.1, 0], 2),
    "OA2A3": ([0.9, 0.9, 0.2], 3),
    "A1A2A3": ([2.0, PI - 2.0, 0.3], 3),
    "OA1A3": ([0.9, 0.3, 0.3], 3),
    "interior": ([0.9, 0.5, 0.2], 3),
}


def test_min_cnot_count():
    for point, cnots in _TAG_POINTS.values():
        assert min_cnot_count(point) == cnots


def test_chamber_location_tags():
    assert len(_TAG_POINTS) == len(weyl._LOCATIONS) + 1
    for tag, (point, _) in _TAG_POINTS.items():
        assert chamber_location(point) == tag


def test_locally_equivalent():
    assert locally_equivalent(CNOT, random_local() @ CNOT @ random_local())
    assert not locally_equivalent(CNOT, SWAP)


def test_kak_decompositions_compare_by_identity():
    # the generated __eq__ would compare the array `a` and raise
    k, k2 = kak_decompose(CNOT), kak_decompose(CNOT)
    assert k == k
    assert k != k2
    assert k in [k2, k]
