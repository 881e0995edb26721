"""The two-qubit Clifford group as an oracle.

The group is enumerated up to global phase by a breadth-first search over
H and S on each qubit and CNOT in both directions: 11520 elements.  Every
element must be Clifford, sit at one of the four Clifford class points of
the chamber with its CNOT count, and synthesize exactly.  The X-shaped
elements and seeded lattice X-gates check the entry-level Clifford rule
for X-type gates against `is_clifford`.
"""

import functools
import itertools
import math

import numpy as np

from ybgates.classify import is_clifford, x_shape_residual
from ybgates.linalg import X_EVEN, X_ODD, x_gate
from ybgates.synth import GateOp, synth_general, verify_circuit
from ybgates.weyl import extract_nonlocal, min_cnot_count

PI = math.pi
GENERATORS = [GateOp(kind, q).matrix() for kind, q in
              (("H", (0,)), ("H", (1,)), ("S", (0,)), ("S", (1,)), ("CNOT", (0, 1)), ("CNOT", (1, 0)))]

# the four classes of the group: their chamber point, size and CNOT count
CLASSES = [
    ((0.0, 0.0, 0.0), 576, 0),
    ((PI / 2, 0.0, 0.0), 5184, 1),
    ((PI / 2, PI / 2, 0.0), 5184, 2),
    ((PI / 2, PI / 2, PI / 2), 576, 3),
]


def _phase_key(u: np.ndarray) -> bytes:
    """The entries of u with the phase of its first nonzero entry divided
    out, rounded: equal for two elements iff they agree up to phase."""
    flat = u.ravel()
    lead = flat[np.argmax(np.abs(flat) > 0.1)]
    v = np.round(flat * (abs(lead) / lead), 8) + 0.0  # + 0.0 turns -0.0 into 0.0
    return v.tobytes()


@functools.lru_cache(maxsize=1)
def clifford_group() -> tuple:
    """Every two-qubit Clifford gate up to global phase, in BFS order."""
    one = np.eye(4, dtype=complex)
    seen = {_phase_key(one): one}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for u in frontier:
            for g in GENERATORS:
                w = g @ u
                key = _phase_key(w)
                if key not in seen:
                    seen[key] = w
                    nxt.append(w)
        frontier = nxt
    return tuple(seen.values())


def x_rule(u: np.ndarray, tol: float = 1e-9) -> bool:
    """The Clifford rule for an X-shaped unitary, on its eight block entries
    (read through X_EVEN and X_ODD).  It is Clifford iff

    1. its nonzero entries share one modulus;
    2. every ratio of two nonzero entries is in {1, i, -1, -i};
    3. det E / det O is real;
    4. when both blocks are balanced (all eight moduli equal),
       (E01 O00) / (E00 O01) is real.
    """
    flat = np.asarray(u, dtype=complex).ravel()
    e00, e01, e10, e11 = flat[list(X_EVEN)]
    o00, o01, o10, o11 = flat[list(X_ODD)]
    nonzero = [x for x in (e00, e01, e10, e11, o00, o01, o10, o11) if abs(x) > tol]
    first = nonzero[0]
    for x in nonzero:
        r = x / first
        if min(abs(r - p) for p in (1, 1j, -1, -1j)) > tol:  # clauses 1 and 2
            return False
    ratio = (e00 * e11 - e01 * e10) / (o00 * o11 - o01 * o10)
    if abs(ratio.imag) > tol:  # clause 3
        return False
    # clause 4
    return len(nonzero) < 8 or bool(abs(((e01 * o00) / (e00 * o01)).imag) <= tol)


def test_group_has_11520_elements_all_clifford():
    group = clifford_group()
    assert len(group) == 11520
    assert all(is_clifford(u) for u in group)


def test_group_classes_and_cnot_counts():
    """576 / 5184 / 5184 / 576 elements at O, (pi/2, 0, 0), A2 and A3,
    needing 0 / 1 / 2 / 3 CNOTs."""
    counts = [0] * 4
    for u in clifford_group():
        a = extract_nonlocal(u)
        (i,) = [i for i, (p, _, _) in enumerate(CLASSES) if np.max(np.abs(a - p)) <= 1e-9]
        assert min_cnot_count(a) == CLASSES[i][2]
        counts[i] += 1
    assert counts == [size for _, size, _ in CLASSES]


def test_x_rule_on_the_x_shaped_elements():
    """384 elements are X-shaped, and the rule holds on every one."""
    xs = [u for u in clifford_group() if x_shape_residual(u) <= 1e-12]
    assert len(xs) == 384
    assert all(x_rule(u) for u in xs)


def _block(rng, step: float) -> np.ndarray:
    """e^{i ph} Rz(al) Ry(be) Rz(ga) with its four angles on the step lattice."""
    ph, al, be, ga = rng.integers(0, round(2 * PI / step), 4) * step
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    ry = np.array([[math.cos(be / 2), -math.sin(be / 2)], [math.sin(be / 2), math.cos(be / 2)]])
    return np.exp(1j * ph) * rz(al) @ ry @ rz(ga)


def test_x_rule_equals_is_clifford_on_lattice_x_gates():
    """1000 seeded X-gates with block angles on (pi/4)Z, then 1000 on (pi/8)Z."""
    rng = np.random.default_rng(19)
    cliffords = 0
    for step in (PI / 4, PI / 8):
        for _ in range(1000):
            u = x_gate(_block(rng, step).ravel(), _block(rng, step).ravel())
            verdict = is_clifford(u)
            assert x_rule(u) is verdict, u
            cliffords += verdict
    assert cliffords > 0


def test_x_rule_needs_clause_4():
    """Balanced blocks that pass clauses 1-3 (det E / det O = 1) but not
    clause 4, from the (pi/4)Z lattice: not Clifford."""
    even = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / 2
    odd = np.array([1 + 1j, -1 - 1j, -1 - 1j, -1 - 1j]) / 2
    u = x_gate(even, odd)
    assert np.allclose(np.abs(u[u != 0]), 1 / math.sqrt(2))
    assert np.isclose(np.linalg.det(even.reshape(2, 2)) / np.linalg.det(odd.reshape(2, 2)), 1)
    assert not is_clifford(u)
    assert x_rule(u) is False


def test_synthesis_of_every_16th_element():
    """Each circuit is exact to 1e-12 and has the minimal CNOT count."""
    for u in itertools.islice(clifford_group(), 0, None, 16):
        c = synth_general(u)
        assert verify_circuit(c, u) <= 1e-12
        cnots = sum(op.kind == "CNOT" for op in c.ops)
        assert cnots == min_cnot_count(extract_nonlocal(u))
