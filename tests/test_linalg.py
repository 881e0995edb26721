import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import unitary_group

from ybgates.linalg import (
    I2,
    SX,
    SZ,
    dagger,
    frob,
    is_unitary,
    kron,
    phase_distance,
    sym_unitary_eig,
    unitarity_residual,
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
    assert is_unitary(unitary_group.rvs(4, random_state=RNG))


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


def test_sym_unitary_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_unitary_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    u = unitary_group.rvs(4, random_state=RNG)
    if frob(u - u.T) > 1e-3:
        with pytest.raises(ValueError):
            sym_unitary_eig(u)


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
