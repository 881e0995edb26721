import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import unitary_group

from ybgates.linalg import (
    I2,
    POLAR_TOL,
    SX,
    SZ,
    dagger,
    frob,
    kron,
    phase_distance,
    sym_unitary_eig,
    unitarity_residual,
    unitary_part,
)

RNG = np.random.default_rng(101)


def brute_phase_distance(a, b, steps=20000):
    phis = np.linspace(0, 2 * np.pi, steps, endpoint=False)
    return min(frob(a - np.exp(1j * p) * b) for p in phis)


def test_phase_distance_matches_grid_oracle():
    for _ in range(20):
        a = unitary_group.rvs(4, random_state=RNG)
        b = unitary_group.rvs(4, random_state=RNG)
        assert phase_distance(a, b) == pytest.approx(brute_phase_distance(a, b), abs=1e-3)


def test_phase_distance_zero_iff_phase_equal():
    u = unitary_group.rvs(4, random_state=RNG)
    assert phase_distance(u, np.exp(0.77j) * u) < 1e-12
    assert phase_distance(u, u @ np.diag([1, 1, 1, -1])) > 1e-2


def test_phase_distance_symmetric():
    a = unitary_group.rvs(4, random_state=RNG)
    b = unitary_group.rvs(4, random_state=RNG)
    assert phase_distance(a, b) == pytest.approx(phase_distance(b, a), abs=1e-12)


def test_kron_dimension_guard():
    with pytest.raises(ValueError):
        kron(np.eye(4), np.eye(4))
    assert kron(I2, I2).shape == (4, 4)
    for da, db in ((2, 2), (4, 2)):
        a = RNG.standard_normal((da, da)) + 1j * RNG.standard_normal((da, da))
        b = RNG.standard_normal((db, db)) + 1j * RNG.standard_normal((db, db))
        assert frob(kron(a, b) - np.kron(a, b)) == 0.0


def test_unitarity_residual():
    assert unitarity_residual(np.eye(4)) == 0.0
    assert unitarity_residual(2 * np.eye(4)) == pytest.approx(np.sqrt(4 * 9))
    assert unitarity_residual(unitary_group.rvs(4, random_state=RNG)) <= 1e-9


def random_symmetric_unitary(n=4):
    """Oracle construction: O diag(e^{i t}) O^T with O real orthogonal."""
    o, _ = np.linalg.qr(RNG.standard_normal((n, n)))
    t = RNG.uniform(0, 2 * np.pi, n)
    return o @ np.diag(np.exp(1j * t)) @ o.T, o, t


def test_sym_unitary_eig_reconstructs():
    for _ in range(50):
        m, _, _ = random_symmetric_unitary()
        angles, o = sym_unitary_eig(m)
        rec = o @ np.diag(np.exp(1j * angles)) @ o.T
        assert frob(rec - m) < 1e-9
        assert frob(o.imag) == 0.0
        assert frob(o @ o.T - np.eye(4)) < 1e-10


def test_sym_unitary_eig_degenerate_spectrum():
    # repeated eigenvalues force the simultaneous-diagonalization path
    o, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
    t = np.array([0.3, 0.3, 2.1, 2.1])
    m = o @ np.diag(np.exp(1j * t)) @ o.T
    angles, ob = sym_unitary_eig(m)
    assert frob(ob @ np.diag(np.exp(1j * angles)) @ ob.T - m) < 1e-9


@given(st.sampled_from([2, 3, 4]), st.integers(1, 4), st.sampled_from([None, 0.0, np.pi, -np.pi]),
       st.integers(0, 2**32 - 1))
def test_sym_unitary_eig_on_repeated_and_real_eigenphases(n, repeat, pinned, seed):
    """Eigenphases that repeat up to n times, or sit at +-1: the basis is
    orthogonal, rebuilds m, and gives the angles of the two-einsum formula
    (diagonals of o^T A o and o^T B o for m = A + iB) on the same o."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-np.pi, np.pi, n)
    t[: min(repeat, n)] = t[0] if pinned is None else pinned
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.exp(1j * t)) @ q.T
    angles, o = sym_unitary_eig(m)
    assert frob(o.T @ o - np.eye(n)) <= 1e-10
    assert frob((o * np.exp(1j * angles)) @ o.T - m) <= 1e-9
    s = (m + m.T) / 2
    old = np.arctan2(np.einsum("ij,ik,kj->j", o, s.imag, o), np.einsum("ij,ik,kj->j", o, s.real, o))
    # on the circle: an eigenvalue -1 reads as pi or -pi
    assert np.abs(np.exp(1j * angles) - np.exp(1j * old)).max() <= 1e-12


def test_sym_unitary_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_unitary_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    u = unitary_group.rvs(4, random_state=RNG)
    if frob(u - u.T) > 1e-3:
        with pytest.raises(ValueError):
            sym_unitary_eig(u)


@pytest.mark.parametrize("m", [np.full((4, 4), np.nan, dtype=complex), np.diag([1, 1, 1, np.nan]).astype(complex)])
def test_sym_unitary_eig_rejects_nan_before_eigh(m, monkeypatch):
    """A NaN input fails the symmetry or unitarity check, not 20 eigh attempts."""
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or (None, None))
    with pytest.raises(ValueError, match="not symmetric|not unitary"):
        sym_unitary_eig(m)
    assert calls == []


def test_dagger_and_paulis():
    assert frob(dagger(SX) - SX) == 0.0
    assert frob(SX @ SZ + SZ @ SX) == 0.0


complex_matrices = st.sampled_from([2, 4, 8]).flatmap(
    lambda n: arrays(complex, (n, n), elements=st.complex_numbers(
        max_magnitude=1e100, allow_nan=False, allow_infinity=False))
)


@given(complex_matrices)
def test_frob_matches_numpy_norm(m):
    assert abs(frob(m) - np.linalg.norm(m)) <= 1e-15 * np.linalg.norm(m)
    assert type(frob(m)) is float


@pytest.mark.parametrize("n", [2, 4, 8])
def test_frob_of_zero_matrix_is_exactly_zero(n):
    assert frob(np.zeros((n, n), dtype=complex)) == 0.0


def _no_svd(*args, **kwargs):
    raise AssertionError("an exact input paid for an SVD")


def test_unitary_part_returns_exact_inputs_without_an_svd(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    for u in (np.eye(4), unitary_group.rvs(4, random_state=RNG)):
        gate, res = unitary_part(u, 1e-8)
        assert res == unitarity_residual(u) <= POLAR_TOL
        assert np.array_equal(gate, u)


@given(st.integers(0, 2**32 - 1), st.floats(-12, -6))
def test_unitary_part_admits_up_to_its_bound_and_takes_the_polar_factor(seed, log_eps):
    rng = np.random.default_rng(seed)
    v = unitary_group.rvs(4, random_state=rng)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + dagger(h)) / frob(h + dagger(h))
    u = v @ (np.eye(4) + 10.0**log_eps * h)
    res = unitarity_residual(u)
    for admit in (1e-8, 1e-6):
        if not res <= admit:
            with pytest.raises(ValueError, match="not unitary"):
                unitary_part(u, admit)
            continue
        gate, got = unitary_part(u, admit)
        assert got == res
        if res > POLAR_TOL:
            # the polar factor of v (1 + eps h) is v
            assert unitarity_residual(gate) <= 1e-14
            assert frob(gate - v) <= 1e-14 + 2 * res
        else:
            assert gate is u or np.array_equal(gate, u)


def test_unitary_part_rejects_nan():
    with pytest.raises(ValueError, match="not unitary"):
        unitary_part(np.full((4, 4), np.nan), 1e-6)
