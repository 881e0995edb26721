import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group
from test_baxterize import chamber_distance

import ybgates
from ybgates import baxterize, braid, cli, weyl
from ybgates.linalg import phase_distance, unitarity_residual
from ybgates.synth import Circuit, GateOp, evaluate
from ybgates.weyl import CNOT, SWAP

PI = math.pi


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_spec(tmp_path, obj, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# --- angle parsing ---------------------------------------------------------

def test_parse_angle():
    assert cli.parse_angle("pi") == PI
    assert cli.parse_angle("pi/2") == PI / 2
    assert cli.parse_angle("-3pi/4") == -3 * PI / 4
    assert cli.parse_angle("2*pi/3") == pytest.approx(2 * PI / 3)
    assert cli.parse_angle("0.75") == 0.75
    assert cli.parse_angle(1.5) == 1.5
    with pytest.raises(cli.InputError):
        cli.parse_angle("two pi")
    for v in ("nan", "inf", "-inf", "1e999", "pi/0", float("nan"), 10**400):
        with pytest.raises(cli.InputError, match="finite"):
            cli.parse_angle(v)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--mu", "foo", "-"),
        ("analyze", "--nu", "foo", "-"),
        ("verify", "--mu", "foo", "-"),
        ("verify", "--nu", "foo", "-"),
    ],
)
def test_bad_angle_flag_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cannot parse angle 'foo'" in err


@pytest.mark.parametrize(
    "argv, spec",
    [
        (("analyze", "-"), {"braid": {"family": "IV", "phi": ["nan"]}}),
        (("analyze", "-"), {"yb": {"family": "I", "mu": "1e999", "phi": [0, 0, 0]}}),
        (("synth", "-"), {"braid": {"family": "IV", "phi": [10**400]}}),
        (("analyze", "--mu", "inf", "-"), {"named": "cnot"}),
        (("verify", "--nu", "nan", "-"), {"named": "cnot"}),
        (("sweep", "--family", "I", "--phi-grid", "nan,0.3", "--mu-grid", "0"), None),
        (("sweep", "--family", "IV", "--phi-grid", "0", "--mu-grid", "lin:0:1e999:3"), None),
    ],
)
def test_non_finite_angle_exit_two(capsys, monkeypatch, argv, spec):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_unallocatable_mc_samples_exit_two(capsys, monkeypatch):
    """A 582 TiB draw is refused at once, so nothing is allocated."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"named": "cnot"})))
    code, out, err = run(capsys, "analyze", "--mc-samples", "10000000000000", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1


_YB_MU_800 = {"yb": {"family": "I", "kind": 1, "mu": 800, "phi": [0.1, 0.2, 0.3]}}
_YB_PHASE_OVERFLOW = {"yb": {"family": "II", "kind": 3, "mu": 0.3, "phi": [1e308, -1e308, 1e308]}}
_BRAID_PHASE_OVERFLOW = {"braid": {"family": "II", "phi": [1e308, -1e308, 1e308]}}


@pytest.mark.parametrize(
    "argv, spec",
    [
        (("analyze", "-"), _YB_MU_800),
        (("synth", "-"), {"yb": {"family": "III", "kind": 1, "mu": 800, "phi": [0.1, 0.2]}}),
        (("sweep", "--family", "I", "--kind", "1", "--phi-grid", "0.3", "--mu-grid", "800"), None),
        (("analyze", "--mu", "800", "-"),
         {"yb": {"family": "I", "kind": 1, "mu": 0.3, "phi": [0.1, 0.2, 0.3]}}),
        (("analyze", "-"), {"yb": {"family": "III", "kind": 2, "mu": 800, "phi": [0.3, 0.2]}}),
        (("synth", "-"), {"yb": {"family": "III", "kind": 3, "mu": -800, "phi": [0.3, 0.2]}}),
        # omega = (p2 - p3) / 2 overflows to -inf, so the gate is NaN
        (("analyze", "-"), _YB_PHASE_OVERFLOW),
        (("verify", "-"), _YB_PHASE_OVERFLOW),
        (("synth", "-"), _YB_PHASE_OVERFLOW),
    ],
)
def test_overflowing_spectral_parameter_exit_two(capsys, monkeypatch, argv, spec):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err.lower()


_BRAID_LARGE_PHASES = [
    _BRAID_PHASE_OVERFLOW,
    {"braid": {"family": "III", "phi": [1.6e308, 0.2]}},
    {"braid": {"family": "III", "phi": [1e300, 1.5707963267948966]}},
]


@pytest.mark.parametrize("command", ["analyze", "verify", "synth"])
def test_braid_gate_with_overflowing_phases(capsys, monkeypatch, command):
    """Braid gates are finite at any finite phases."""
    for spec in _BRAID_LARGE_PHASES:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
        code, out, err = run(capsys, command, "-")
        assert code == 0 and out


def test_analyze_braid_gate_with_a_degenerate_spectrum(capsys, monkeypatch):
    """A phased permutation whose m = ubar^T ubar is i I up to 4.6e-18
    off-diagonal entries, where a general eigensolver does not converge."""
    spec = {"braid": {"family": "I", "phi": [0, 0, 1.1786734576358608e16, 1.1786734576358608e16]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, "analyze", "--mc-samples", "64", "-")
    assert code == 0 and err == ""
    assert np.max(np.abs(np.array(json.loads(out)["nonlocal"]) - PI / 2)) <= 1e-12


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_gate_with_an_underflowing_phase(capsys, monkeypatch, command):
    """diag(1, 1, 1, e^{i 1e-309}): the phase of tr(a^dag b) underflows,
    where cmath.phase raises OverflowError."""
    matrix = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    matrix[3][3] = [1.0, 1e-309]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"matrix": matrix})))
    code, out, err = run(capsys, command, "-")
    assert code == 0 and out and "error" not in err


@pytest.mark.parametrize(
    "spec", _BRAID_LARGE_PHASES, ids=["II-overflow", "III-overflow", "III-1e300"]
)
def test_analyze_predicts_braid_class_at_overflowing_phases(capsys, monkeypatch, spec):
    """analyze's lattice tests read each phase modulo 2 pi, so their sums
    do not overflow and the predicted classes are the numeric ones."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, "analyze", "-")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["predicted"] == report["classification"]


@pytest.mark.parametrize("kind", [2, 3])
@pytest.mark.parametrize("mu", [400, -400, 700, -700])
def test_family_three_kinds_two_three_at_large_mu(capsys, monkeypatch, kind, mu):
    """analyze and synth build the gate until cosh mu overflows, past |mu| ~710."""
    import io

    spec = {"yb": {"family": "III", "kind": kind, "mu": mu, "phi": [0.3, 0.2]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, "analyze", "--mc-samples", "64", "-")
    assert code == 0 and err == ""
    closed = baxterize.yb_nonlocal_closed(baxterize.YbSpec("III", kind, mu, (0.3, 0.2)))
    assert np.max(np.abs(np.array(json.loads(out)["nonlocal"]) - closed)) <= 1e-9
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, "synth", "-")
    assert code == 0 and err.startswith("cnots=3 ")


@pytest.mark.parametrize("kind, message", [(True, "got True"), ("2", "got '2'"), (2.5, "got 2.5")])
def test_yb_kind_message(capsys, monkeypatch, kind, message):
    """The kind rule is YbSpec's; the CLI reports it as a bad yb spec."""
    spec = {"yb": {"family": "IV", "kind": kind, "chi": 0.4, "phi": [0.1]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, "analyze", "-")
    assert (code, out) == (2, "")
    assert err == f"error: bad yb spec: kind must be an integer, {message}\n"


@pytest.mark.parametrize("kind", [2, 3])
def test_family_iii_singular_set_is_one_for_analyze_and_sweep(capsys, monkeypatch, kind):
    """Near the singular points of family III kinds 2 and 3, analyze and sweep
    both exit 2, or both exit 0 with the same chamber point."""
    for mu in (0.0, 5e-15, -5e-15, 5e-13, -5e-13, 2e-12, -2e-12, 0.3):
        for p1 in (0.0, PI / 2, PI, 1e-13):
            spec = {"yb": {"family": "III", "kind": kind, "mu": mu, "phi": [p1, 0.0]}}
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
            code, out, _ = run(capsys, "analyze", "-", "--mc-samples", "8")
            sweep = run(capsys, "sweep", "--family", "III", "--kind", str(kind),
                        f"--phi-grid={p1!r}", f"--mu-grid={mu!r}")
            assert code == sweep[0] and code in (0, 2), (mu, p1)
            if code == 0:
                row = np.array(sweep[1].splitlines()[1].split(",")[4:7], dtype=float)
                assert chamber_distance(row, np.array(json.loads(out)["nonlocal"])) <= 1e-12, (mu, p1)


@pytest.mark.parametrize("kind, code", [(2, 0), (2.0, 0), (2.9, 2), (True, 2), ("2.5", 2)])
def test_yb_kind_must_be_an_integer(capsys, monkeypatch, kind, code):
    import io

    spec = {"yb": {"family": "I", "kind": kind, "mu": 0.4, "phi": [0.1, 0.2, 0.3]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    got, out, err = run(capsys, "synth", "-")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: bad yb spec: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"braid": {"family": "I", "phi": "0123"}},
        {"braid": {"family": "III", "phi": {"0.3": 0, "0.2": 1}}},
        {"braid": {"family": "III", "phi": [False, 0.2]}},
        {"yb": {"family": "I", "kind": 1, "mu": True, "phi": [0.1, 0.2, 0.3]}},
        {"yb": {"family": "IV", "kind": 1, "chi": False, "phi": [0.7]}},
        {"yb": {"family": "I", "kind": 1, "mu": 0.4, "phi": "012"}},
        {"yb": {"family": "III", "kind": 2, "mu": 0.4, "phi": {"0.8": 0, "1.2": 1}}},
        {"yb": {"family": "I", "kind": 1, "mu": 0.4, "phi": [True, 0.2, 0.3]}},
    ],
)
def test_phi_is_an_array_and_booleans_are_not_angles(capsys, monkeypatch, spec):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad {next(iter(spec))} spec: ") and err.count("\n") == 1


@pytest.mark.parametrize("threshold, code", [("nan", 2), ("inf", 2), ("-inf", 2), ("1e-8", 0), ("-1e-3", 1)])
def test_verify_threshold_must_be_finite(capsys, monkeypatch, threshold, code):
    spec = {"braid": {"family": "I", "phi": [0.3, 1.2, 2.1, 0.5]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    got, out, err = run(capsys, "verify", "-", "--threshold", threshold)
    assert got == code
    if code == 2:
        assert out == ""
        assert f"threshold must be a finite number, got {threshold!r}" in err


def test_linear_grid_count_must_be_an_integer(capsys):
    code, out, err = run(capsys, "sweep", "--family", "I", "--phi-grid", "lin:0:1:2.5", "--mu-grid", "0")
    assert code == 2
    assert out == ""
    assert err == "error: linear grid count must be an integer, got '2.5'\n"


def test_parse_grid():
    assert cli.parse_grid("0,pi/2").tolist() == [0.0, PI / 2]
    lin = cli.parse_grid("lin:0:pi:5").tolist()
    assert len(lin) == 5 and lin[0] == 0.0 and lin[-1] == pytest.approx(PI)
    with pytest.raises(cli.InputError):
        cli.parse_grid("")


def _grid_outcome(make):
    """The bytes of a grid, or the kind of the first RuntimeWarning it raises
    as an error. The wording after the kind differs across numpy versions."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return make().tobytes()
        except RuntimeWarning as e:
            return str(e).partition(" encountered")[0]


endpoints = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-306, 1e-306)


@given(st.one_of(st.tuples(endpoints, endpoints), endpoints.map(lambda x: (x, x))), st.integers(1, 64))
@example((0.0, -0.0), 1)
@example((-0.0, -0.0), 3)
@example((5e-324, 2e-323), 7)
@example((-1e-310, 1e-310), 64)
@example((0.3, 0.3), 3)
@example((0.5, 2.0), 1)
@example((-1e308, 1e308), 5)
@example((1.7976931348623157e308, -1.7976931348623157e308), 1)
def test_linear_grid_is_linspace(ends, count):
    """lin:a:b:n holds np.linspace(a, b, n) bit for bit, signed zeros and
    denormals included.  A span that overflows, where linspace warns, is an
    input error."""
    start, stop = ends
    want = _grid_outcome(lambda: np.linspace(start, stop, count))
    text = f"lin:{start!r}:{stop!r}:{count}"
    if math.isfinite(stop - start):
        assert _grid_outcome(lambda: cli.parse_grid(text)) == want
    else:
        assert want == "overflow"
        with pytest.raises(cli.InputError, match="is not finite"):
            cli.parse_grid(text)


# --- analyze ---------------------------------------------------------------

def test_analyze_cnot(tmp_path, capsys):
    path = write_spec(tmp_path, {"named": "cnot"})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert np.allclose(rep["nonlocal"], [PI / 2, 0, 0], atol=1e-9)
    assert rep["location"] == "mid OA1"
    assert rep["entangling_power"] == pytest.approx(2 / 9, abs=1e-12)
    assert rep["min_cnot_count"] == 1


def test_analyze_braid_table_row(tmp_path, capsys):
    path = write_spec(tmp_path, {"braid": {"family": "IV", "phi": [0]}})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == {"clifford": True, "matchgate": True, "dual_unitary": False}
    assert rep["predicted"] == rep["classification"]


def test_analyze_swap_point(tmp_path, capsys):
    path = write_spec(
        tmp_path, {"yb": {"family": "I", "kind": 2, "mu": 0.0, "phi": [0.3, 1.1, 2.0]}}
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["location"] == "A3"


def test_analyze_roundtrip_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, {"named": "iswap"})
    _, out1, _ = run(capsys, "analyze", path, "--seed", "3")
    _, out2, _ = run(capsys, "analyze", path, "--seed", "3")
    assert out1 == out2
    rep = json.loads(out1)
    assert json.dumps(rep, indent=2) + "\n" == out1


def test_analyze_seed_env(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, {"named": "cnot"})
    monkeypatch.setenv(cli.DEFAULT_SEED_ENV, "11")
    _, out_env, _ = run(capsys, "analyze", path)
    monkeypatch.delenv(cli.DEFAULT_SEED_ENV)
    _, out_explicit, _ = run(capsys, "analyze", path, "--seed", "11")
    rep_env, rep_explicit = json.loads(out_env), json.loads(out_explicit)
    assert rep_env["entangling_power_mc"] == rep_explicit["entangling_power_mc"]
    assert rep_env["seed"] == rep_explicit["seed"] == 11
    assert rep_env["version"] == ybgates.__version__
    assert rep_env["mc_samples"] == 20000


@pytest.mark.parametrize("argv, env", [(["--seed", "-1"], None), ([], "-1"), ([], "1.5")])
def test_analyze_bad_seed_exits_two(tmp_path, capsys, monkeypatch, argv, env):
    path = write_spec(tmp_path, {"named": "cnot"})
    if env is not None:
        monkeypatch.setenv(cli.DEFAULT_SEED_ENV, env)
    code, out, err = run(capsys, "analyze", path, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_schema_error(tmp_path, capsys):
    path = write_spec(tmp_path, {"bogus": 1})
    assert run(capsys, "analyze", path)[0] == 2
    path = write_spec(tmp_path, {"named": "cnot", "braid": {"family": "I", "phi": [0, 0, 0, 0]}})
    assert run(capsys, "analyze", path)[0] == 2
    path = tmp_path / "nojson.json"
    path.write_text("{")
    assert run(capsys, "analyze", str(path))[0] == 2


@pytest.mark.parametrize("spec", [{"matrix": {"a": 1}}, {"named": []}])
def test_malformed_spec_value_exits_two(tmp_path, capsys, spec):
    code, out, err = run(capsys, "analyze", write_spec(tmp_path, spec))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _pairs(u):
    return [[[float(x.real), float(x.imag)] for x in row] for row in u]


REPORT_SPECS = [{"named": name} for name in cli._NAMED] + [
    {"matrix": _pairs(unitary_group.rvs(4, random_state=np.random.default_rng(s)))}
    for s in range(3)
] + [
    {"matrix": _pairs(SWAP)},
    {"braid": {"family": "I", "phi": [0.3, 1.2, 2.1, 0.5]}},
    {"braid": {"family": "II", "phi": ["pi/4", 0.7, -1.1]}},
    {"braid": {"family": "III", "phi": ["pi/8", 0.3]}},
    {"braid": {"family": "IV", "phi": [0.9]}},
    {"yb": {"family": "I", "kind": 1, "mu": 0.5, "phi": [0.3, 1.1, 2.0]}},
    {"yb": {"family": "II", "kind": 3, "mu": -1.2, "phi": [0.4, 0.2, 1.3]}},
    {"yb": {"family": "III", "kind": 2, "mu": 0.8, "phi": [0.6, "pi/2"]}},
    {"yb": {"family": "IV", "chi": 0.4, "phi": [1.3]}},
]


@pytest.mark.parametrize("spec", REPORT_SPECS)
def test_analyze_report_takes_entangling_power_from_the_point(capsys, monkeypatch, spec):
    """The report prints build_report's dict in one JSON document, with the
    entangling power of its chamber point and no second pass over the gate."""
    u, parsed = cli.load_spec(spec)
    ep = weyl.entangling_power(u)
    want = json.dumps(cli.build_report(u, parsed, 5, 64, 0.5, 0.7), indent=2) + "\n"
    calls = []
    monkeypatch.setattr(weyl, "entangling_power", lambda *a: calls.append(a))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, _ = run(capsys, "analyze", "-", "--seed", "5", "--mc-samples", "64")
    assert code == 0 and calls == []
    assert out == want
    assert abs(json.loads(out)["entangling_power"] - ep) <= 1e-15


def test_analyze_non_unitary(tmp_path, capsys):
    m = [[[2.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path = write_spec(tmp_path, {"matrix": m})
    assert run(capsys, "analyze", path)[0] == 3


def test_matrix_input_roundtrip(tmp_path, capsys):
    m = [[[float(SWAP[i, j].real), float(SWAP[i, j].imag)] for j in range(4)] for i in range(4)]
    path = write_spec(tmp_path, {"matrix": m})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["location"] == "A3"


# --- verify ----------------------------------------------------------------

def test_verify_braid_ok(tmp_path, capsys):
    path = write_spec(tmp_path, {"braid": {"family": "I", "phi": [0.3, 1.2, 2.1, 0.5]}})
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert json.loads(out)["braid_residual"] < 1e-10


def test_verify_yb_ok(tmp_path, capsys):
    path = write_spec(tmp_path, {"yb": {"family": "III", "kind": 2, "mu": 0.4, "phi": [0.8, 1.2]}})
    code, out, _ = run(capsys, "verify", path, "--mu", "0.4", "--nu", "-0.9")
    assert code == 0
    assert json.loads(out)["ybe_residual"] < 1e-9


def test_verify_failure_exit_one(tmp_path, capsys):
    m = [[[float(CNOT[i, j].real), float(CNOT[i, j].imag)] for j in range(4)] for i in range(4)]
    path = write_spec(tmp_path, {"matrix": m})
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["braid_residual"] > 1.0


@pytest.mark.parametrize("spec", [
    {"braid": {"family": "I", "phi": [0.3, 1.2, 2.1, 0.5]}},
    {"yb": {"family": "III", "kind": 2, "mu": 0.4, "phi": [0.8, 1.2]}},
])
def test_verify_writes_json_dumps_bytes(tmp_path, capsys, spec):
    code, out, _ = run(capsys, "verify", write_spec(tmp_path, spec))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# --- synth -----------------------------------------------------------------

def test_synth_swap(tmp_path, capsys):
    path = write_spec(tmp_path, {"named": "swap"})
    out_file = tmp_path / "c.txt"
    code, _, err = run(capsys, "synth", path, "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# qubits=2")
    c = cli.parse_circuit(text)
    assert c.cnot_count == 3
    assert phase_distance(evaluate(c), SWAP) < 1e-7


def test_synth_identity_empty(tmp_path, capsys):
    path = write_spec(tmp_path, {"named": "identity"})
    code, out, _ = run(capsys, "synth", path)
    assert code == 0
    assert cli.parse_circuit(out).cnot_count == 0


@pytest.mark.parametrize("chi", [0.3, 0, "pi/8", "pi/4", "-pi/4", "pi/2"])
def test_synth_family_iv_cnot_minimal(tmp_path, capsys, chi):
    """synth prints as many CNOTs as analyze says the gate needs: 0 at
    chi = 0 and pi/2, 1 at the CNOT points chi = +-pi/4, 2 elsewhere."""
    path = write_spec(tmp_path, {"yb": {"family": "IV", "kind": 1, "chi": chi, "phi": [0.5]}})
    code, out, err = run(capsys, "synth", path)
    assert code == 0
    cnots = cli.parse_circuit(out).cnot_count
    stats = dict(field.split("=") for field in err.split())
    assert int(stats["cnots"]) == cnots
    assert float(stats["residual"]) <= 1e-6
    code, out, _ = run(capsys, "analyze", path, "--mc-samples", "16")
    assert code == 0
    assert cnots == json.loads(out)["min_cnot_count"]
    if chi == 0.3:
        assert cnots == 2


def test_synth_failure_exits_4(tmp_path, capsys, monkeypatch):
    """A synthesis that fails on an admitted input is exit 4, one error line,
    no circuit on stdout and no --out file."""

    def fail(u):
        raise ValueError("synthesis reconstruction failed (residual 1.00e-07)")

    monkeypatch.setattr(cli.synth, "synth_general", fail)
    path = write_spec(tmp_path, {"named": "cnot"})
    out_file = tmp_path / "c.txt"
    for argv in (["synth", path], ["synth", path, "--out", str(out_file)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == "error: synthesis reconstruction failed (residual 1.00e-07)\n"
    assert not out_file.exists()


def _haar2(rng):
    """A Haar-random 2x2 unitary by numpy QR."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def test_synth_exits_4_exactly_where_synthesis_fails():
    """Dressed core gates at a3 = 1e-7, inside the chamber's base band: synth
    exits 4 where synth_general raises on the admitted gate, and 0 elsewhere."""
    codes = []
    for a1 in (1.0, 1.5, 2.0):
        for seed in range(40):
            g = np.random.default_rng(seed)
            u = np.kron(_haar2(g), _haar2(g)) @ weyl.core_gate([a1, 0.5, 1e-7]) @ np.kron(_haar2(g), _haar2(g))
            code, out, err, m = _run_matrix(["synth", "-"], u)
            try:
                cli.synth.synth_general(cli.unitary_part(m, cli.UNITARY_TOL)[0])
                want = 0
            except ValueError:
                want = 4
            assert code == want, (a1, seed, err)
            if code == 4:
                assert out == "" and err.startswith("error: synthesis") and err.count("\n") == 1
            codes.append(code)
    # a1 = 1.0 at seed 29 is one of the failures
    assert codes[29] == 4 and 0 in codes


@pytest.mark.parametrize(
    "line", ["CNOT 0", "RZ 0", "H", "H 2", "RZ 0 nan", "FOO 1", "# phase=inf", "H 0 1"]
)
def test_parse_circuit_bad_line_is_input_error(line):
    with pytest.raises(cli.InputError, match=repr(line)):
        cli.parse_circuit(f"# qubits=2\nH 0\n{line}\n")


def test_circuit_text_roundtrip():
    c = Circuit(
        [GateOp("H", (0,)), GateOp("RZ", (1,), 0.123456789012345), GateOp("CNOT", (1, 0)),
         GateOp("SDG", (0,)), GateOp("T", (1,))],
        phase=0.7,
    )
    c2 = cli.parse_circuit(cli.format_circuit(c))
    assert phase_distance(evaluate(c2), evaluate(c)) < 1e-15
    assert c2.phase == c.phase
    assert [op.kind for op in c2.ops] == [op.kind for op in c.ops]


# every valid (kind, qubits) of the gate set
_OP_KEYS = [(kind, (q,)) for kind in ("H", "S", "SDG", "T", "TDG", "RZ") for q in (0, 1)] + [
    ("CNOT", (0, 1)), ("CNOT", (1, 0))]
_finite = st.floats(allow_nan=False, allow_infinity=False)
# Python floats and np.float64, signed zeros, subnormals and 1e308 among them
_angles = (_finite | _finite.map(np.float64) | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308])
           | st.sampled_from([np.float64(-0.0), np.float64(5e-324), np.float64(1e308)]))


@st.composite
def _gate_ops(draw):
    kind, qubits = draw(st.sampled_from(_OP_KEYS))
    return GateOp(kind, qubits, draw(_angles) if kind == "RZ" else None)


def _fields(c):
    """Kind, qubits and the bits of each angle, and the bits of the phase."""
    ops = [(op.kind, op.qubits, None if op.angle is None else float(op.angle).hex()) for op in c.ops]
    return ops, float(c.phase).hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(_gate_ops(), max_size=12), _angles)
@example([GateOp("RZ", (1,), np.float64(0.3))], np.float64(0.3))
@example([GateOp(kind, qubits, -0.0 if kind == "RZ" else None) for kind, qubits in _OP_KEYS], -0.0)
def test_circuit_text_roundtrip_is_exact(ops, phase):
    c = Circuit(ops, phase)
    assert _fields(cli.parse_circuit(cli.format_circuit(c))) == _fields(c)


# --- sweep -----------------------------------------------------------------

def test_sweep_identity_point(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "I", "--kind", "1",
        "--phi-grid", "pi/2", "--mu-grid", "0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,kind,phi,mu,a1,a2,a3,ep"
    assert float(lines[1].split(",")[-1]) == 0.0


def test_sweep_iswap_limit(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "I", "--kind", "1",
        "--phi-grid", "pi/2", "--mu-grid", "8",
    )
    assert float(out.strip().splitlines()[1].split(",")[-1]) == pytest.approx(2 / 9, abs=1e-6)


def test_sweep_family_iv_closed_form(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "IV",
        "--phi-grid", "0.5", "--mu-grid", "lin:0:pi/4:9",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cols = [float(v) for v in line.split(",")[2:]]
        chi, ep = cols[1], cols[-1]
        assert ep == pytest.approx((2 / 9) * math.sin(2 * chi) ** 2, abs=1e-12)


def test_sweep_family_iv_past_two_pi(capsys):
    """A chi grid past 2 pi gives, row by row, the point of the built gate."""
    chis = [7.0, -7.0, 1e6, 1e300, -1e300, 2 * PI]
    code, out, _ = run(capsys, "sweep", "--family", "IV", "--phi-grid", "0.5,9",
                       "--mu-grid", ",".join(map(repr, chis)))
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        phi, chi, a1, a2, a3, _ = (float(v) for v in line.split(",")[2:])
        g = baxterize.build_yb(baxterize.YbSpec("IV", 1, chi, (phi,)))
        assert np.max(np.abs(np.array([a1, a2, a3]) - weyl.extract_nonlocal(g))) < 1e-7


def test_sweep_row_order_and_digits(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "II", "--kind", "2",
        "--phi-grid", "0.25,0.5", "--mu-grid", "0.1,0.2",
    )
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [
        ("0.25", "0.10000000000000001"), ("0.25", "0.20000000000000001"),
        ("0.5", "0.10000000000000001"), ("0.5", "0.20000000000000001"),
    ]
    # 17 significant digits round-trip
    for r in rows:
        assert float(r[3]) in (0.1, 0.2)


@pytest.mark.parametrize("kind, phi", [(2, "0"), (3, "pi/2")])
def test_sweep_singular_point_aborts_csv(capsys, kind, phi):
    code, out, err = run(
        capsys, "sweep", "--family", "III", "--kind", str(kind),
        "--phi-grid", f"0.3,{phi}", "--mu-grid", "0.5,0",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"singular parameters for family III kind-{kind} point" in err


def test_sweep_flat_face_point_warns_nothing(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "sweep", "--family", "I", "--kind", "1",
            "--phi-grid", "lin:-pi:pi:17", "--mu-grid", "lin:-2:2:9",
        )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 17 * 9
    # the grid's (phi, mu) = (0, 0) point is the identity, the flat face point O
    assert rows[8 * 9 + 4][2:] == ["0", "0", "0", "0", "0", "0"]



def test_sweep_kind_one_past_cosh_overflow(capsys):
    # the gate and its closed form are finite at mu = 400, so the whole CSV is written
    for family in ("I", "III"):
        code, out, err = run(
            capsys, "sweep", "--family", family, "--kind", "1", "--phi-grid", "0.3", "--mu-grid", "1,2,400",
        )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["1", "2", "400"]
        assert all(math.isfinite(float(v)) for r in rows for v in r[4:])

def test_sweep_empty_grid(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sweep", "--family", "I", "--phi-grid", "lin:0:1:0", "--mu-grid", "0",
    )
    assert code == 2


@pytest.mark.parametrize("grid", ["lin:-1e308:1e308:3", "lin:1.7976931348623157e308:-1e308:1"])
def test_sweep_overflowing_linear_span_is_one_error_line(grid):
    """A lin: span past the float range exits 2 with one error line and no
    numpy warning, in a process of its own (default warning filters)."""
    proc = _cli_process("sweep", "--family", "I", "--phi-grid", grid, "--mu-grid", "0.5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: linear grid span ") and "is not finite" in proc.stderr


FAMILY_KINDS = [("I", 1), ("I", 2), ("I", 3), ("II", 1), ("II", 2), ("II", 3),
                ("III", 1), ("III", 2), ("III", 3), ("IV", 1)]


def reference_grid(text):
    """A grid argument read without cli.parse_grid: lin:a:b:n by np.linspace,
    and a comma grid one parse_angle at a time."""
    if text.startswith("lin:"):
        _, start, stop, count = text.split(":")
        return np.linspace(cli.parse_angle(start), cli.parse_angle(stop), int(count))
    return np.array([cli.parse_angle(v) for v in text.split(",")])


def sweep_csv_per_row(family, kind, phi_grid, mu_grid):
    """Reference CSV: the sweep table formatted row by row with %.17g."""
    phi, mu = np.meshgrid(reference_grid(phi_grid), reference_grid(mu_grid), indexing="ij")
    a = baxterize.yb_nonlocal_closed(cli._sweep_spec(family, kind, phi, mu))
    ep = weyl.entangling_power_from_point(a)
    table = np.column_stack([phi.ravel(), mu.ravel(), a.reshape(-1, 3), ep.ravel()]) + 0.0
    row = f"{family},{kind}" + ",%.17g" * 6
    return "\n".join(["family,kind,phi,mu,a1,a2,a3,ep"] + [row % tuple(r) for r in table.tolist()]) + "\n"


grid_values = (st.sampled_from(["0", "-0", "1e-9", "-1e-9", "0.5", "-0.5", "pi/2", "-pi", "2"])
               | st.floats(-4, 4).map(repr))
grid_texts = st.one_of(
    st.builds(lambda a, b, n: f"lin:{a}:{b}:{n}", grid_values, grid_values, st.integers(1, 40)),
    # comma grids, repeated values included
    st.lists(grid_values, min_size=1, max_size=8).flatmap(
        lambda vals: st.lists(st.sampled_from(vals), min_size=1, max_size=12)).map(",".join),
    grid_values,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILY_KINDS), grid_texts, grid_texts)
@example(("III", 2), "0,0.3", "-0,0,0.5")
@example(("I", 1), "-0", "-0")
# a table where most values repeat, and one where few do
@example(("II", 2), "lin:-pi:pi:17", "lin:-1.5:1.5:9")
@example(("I", 1), "0.3", "lin:0:2:100")
# 9 rows, and 10, the fewest that are indexed
@example(("I", 1), "lin:-1:1:3", "lin:-1:1:3")
@example(("I", 1), "lin:-1:1:5", "-0.5,0.5")
# 20 distinct values of 40, which are indexed, and 21 of 40, which are not
@example(("I", 1), "0,0,0.5,-1,-pi/2", "0.5,1")
@example(("I", 1), "0,0,0.5,-0.5,1", "0.5,1")
@example(("I", 1), "lin:-pi:pi:65", "lin:-2:2:61")
def test_sweep_csv_matches_per_row_formatting(family_kind, phi_grid, mu_grid):
    family, kind = family_kind
    try:
        expected, expected_code = sweep_csv_per_row(family, kind, phi_grid, mu_grid), 0
    except (ValueError, ArithmeticError):
        # singular or overflowing grid point: no CSV at all
        expected, expected_code = "", 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--family", family, "--kind", str(kind),
                         f"--phi-grid={phi_grid}", f"--mu-grid={mu_grid}"])
    assert (code, out.getvalue()) == (expected_code, expected)
    assert err.getvalue().count("\n") == (1 if expected_code else 0)


# the 25x17 slice grid of each family and kind (phi lin:-pi:pi:25, mu
# lin:-2:2:17); family III kinds 2/3 are singular at mu = 0 there, so they
# are also run on a mu grid of 16 points that avoids it
SLICE_GRIDS = [(family, kind, 17) for family, kind in FAMILY_KINDS] + [("III", 2, 16), ("III", 3, 16)]


@pytest.mark.parametrize("family, kind, n_mu", SLICE_GRIDS)
def test_sweep_csv_slice_grids_match_per_row_formatting(capsys, family, kind, n_mu):
    phi_grid, mu_grid = "lin:-pi:pi:25", f"lin:-2:2:{n_mu}"
    code, out, err = run(
        capsys, "sweep", "--family", family, "--kind", str(kind),
        "--phi-grid", phi_grid, "--mu-grid", mu_grid,
    )
    if family == "III" and kind != 1 and n_mu == 17:
        assert (code, out) == (2, "")
        assert err == f"error: singular parameters for family III kind-{kind} point\n"
    else:
        assert (code, err) == (0, "")
        assert out == sweep_csv_per_row(family, kind, phi_grid, mu_grid)


@pytest.mark.parametrize("phi_grid, mu_grid", [("lin:-pi:pi:25", "lin:-2:2:17"), ("0.3", "lin:0.1:2:200")])
def test_sweep_out_file_matches_stdout(tmp_path, capsys, phi_grid, mu_grid):
    """--out writes the bytes of stdout, for an indexed table (most values
    repeat) and for one formatted in place (few do)."""
    argv = ["sweep", "--family", "I", "--kind", "1", "--phi-grid", phi_grid, "--mu-grid", mu_grid]
    code, out, _ = run(capsys, *argv)
    path = tmp_path / "out.csv"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert code == 0 and path.read_bytes() == out.encode()


def _out_argv(tmp_path, command) -> list:
    if command == "sweep":
        return ["sweep", "--family", "I", "--phi-grid", "0.3", "--mu-grid", "0.5"]
    return ["synth", write_spec(tmp_path, {"named": "cnot"})]


@pytest.mark.parametrize("command", ["sweep", "synth"])
@pytest.mark.parametrize("target", ["missing", "directory", "full"])
def test_unwritable_out_exits_two(tmp_path, capsys, command, target):
    if target == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    out_path = {"missing": tmp_path / "no-such-dir" / "out.txt", "directory": tmp_path,
                "full": "/dev/full"}[target]
    code, out, err = run(capsys, *_out_argv(tmp_path, command), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: cannot write output: ")


class _FailingFile(io.StringIO):
    """A file whose write or close fails as on a full disk."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def close(self):
        super().close()
        if self.failing == "close":
            raise OSError(5, "Input/output error")


@pytest.mark.parametrize("command", ["sweep", "synth"])
@pytest.mark.parametrize("failing", ["write", "close"])
def test_failed_out_write_exits_two(tmp_path, capsys, monkeypatch, command, failing):
    """An --out file that opens but cannot be written or closed is an input
    error too, with one line naming the OS error."""
    argv = _out_argv(tmp_path, command)

    def fake_open(path, mode="r"):
        # the spec is read as usual
        return _FailingFile(failing) if mode == "w" else open(path, mode)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: [Errno ") and err.count("\n") == 1


def test_stdin_spec(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"named": "cnot"})))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["min_cnot_count"] == 1


def test_repeated_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    """In one process, main() gives the same result for the same argv every
    time, also after a usage error, and never builds a new parser."""

    def no_rebuild():
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    spec = write_spec(tmp_path, {"braid": {"family": "III", "phi": ["pi/8", 0.3]}})
    calls = [
        ("analyze", "--seed", "3", "--mc-samples", "50", spec),
        ("sweep", "--family", "II", "--kind", "2", "--phi-grid", "0,pi/3", "--mu-grid", "0.5"),
        ("synth", spec),
    ]
    for argv in calls:
        first = run(capsys, *argv)
        assert first[0] == 0
        bad = run(capsys, argv[0], "--no-such-flag", *argv[1:])
        assert bad[0] == 2 and bad[1] == ""
        again = run(capsys, *argv)
        assert again[:2] == first[:2]


def test_broken_stdout_is_not_an_input_error(monkeypatch):
    """Only an --out path that cannot be opened exits 2; a failing stdout
    (a closed pipe) is not bad input."""

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli.main(["sweep", "--family", "I", "--phi-grid", "0.3", "--mu-grid", "0.5"])


@pytest.mark.parametrize("command", ["analyze", "verify", "synth", "sweep"])
def test_main_dispatches_to_the_current_command_function(tmp_path, monkeypatch, command):
    """main() calls the cmd_* bound on the module at call time, so a wrapper
    installed after import (a tracing span) is the one that runs."""
    seen = []

    def recorder(args):
        seen.append(args.command)
        return 0

    monkeypatch.setattr(cli, f"cmd_{command}", recorder)
    if command == "sweep":
        argv = ["sweep", "--family", "I", "--phi-grid", "0", "--mu-grid", "0"]
    else:
        argv = [command, write_spec(tmp_path, {"named": "cnot"})]
    assert cli.main(argv) == 0
    assert seen == [command]


_COMMAND_ARGV = {
    "analyze": ["analyze", "-"],
    "verify": ["verify", "-"],
    "synth": ["synth", "-"],
    "sweep": ["sweep", "--family", "I", "--phi-grid", "0", "--mu-grid", "0"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
@pytest.mark.parametrize("where", ["first", "last"])
def test_unknown_flag_is_named_by_its_command(capsys, monkeypatch, command, where):
    """Each command's flags are read by that command's own parser, so the
    usage error names the command."""
    argv = list(_COMMAND_ARGV[command])
    argv.insert(1 if where == "first" else len(argv), "--no-such-flag")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"named": "cnot"})))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: ybgates {command} ")
    assert err.endswith(f"ybgates {command}: error: unrecognized arguments: --no-such-flag\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["--no-such-flag", "analyze", "-"], "unrecognized arguments: --no-such-flag"),
    ],
)
def test_missing_or_unknown_command_is_a_top_level_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: ybgates [-h] {analyze,verify,synth,sweep} ...\n")
    assert f"ybgates: error: {message}" in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["-h", "analyze"], *[[c, "-h"] for c in _COMMAND_ARGV]])
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    prog = "ybgates" if argv[0].startswith("-") else f"ybgates {argv[0]}"
    assert out.startswith(f"usage: {prog} ")


@pytest.mark.parametrize("spec", [
    {"yb": {"family": "IV", "kind": 1, "chi": 0.3, "phi": [0]}},
    {"yb": {"family": "IV", "kind": 1, "chi": "pi/8", "phi": [0.7]}},
])
def test_analyze_writes_no_negative_zero(capsys, monkeypatch, spec):
    """A chamber coordinate that is zero is written as 0.0, never -0.0."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, _ = run(capsys, "analyze", "-", "--mc-samples", "64")
    assert code == 0 and "-0.0" not in out
    point = json.loads(out)["nonlocal"]
    assert all(math.copysign(1.0, x) == 1.0 for x in point) and 0.0 in point


# --- signed flag values ----------------------------------------------------

YB_SPEC = {"yb": {"family": "I", "kind": 1, "mu": 0.3, "phi": [0.1, 0.2, 0.3]}}


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["sweep", "--family", "I", "--phi-grid", "-0.5,0", "--mu-grid", "0"],
         ["sweep", "--family", "I", "--phi-grid=-0.5,0", "--mu-grid", "0"]),
        (["sweep", "--family", "I", "--phi-grid", "-pi/2", "--mu-grid", "0"],
         ["sweep", "--family", "I", "--phi-grid=-pi/2", "--mu-grid", "0"]),
        (["sweep", "--family", "II", "--phi-grid", "0.4", "--mu-grid", "-1e-3,-0.5"],
         ["sweep", "--family", "II", "--phi-grid", "0.4", "--mu-grid=-1e-3,-0.5"]),
        (["verify", "-", "--mu", "-pi/4"], ["verify", "-", "--mu=-pi/4"]),
        (["verify", "-", "--nu", "-pi/3", "--threshold", "-1e-3"],
         ["verify", "-", "--nu=-pi/3", "--threshold=-1e-3"]),
        (["analyze", "-", "--mu", "-pi/4", "--mc-samples", "64"],
         ["analyze", "-", "--mu=-pi/4", "--mc-samples", "64"]),
    ],
)
def test_negative_value_after_its_flag(capsys, monkeypatch, spaced, joined):
    """A value that starts with "-" may follow its flag after a space."""
    results = []
    for argv in (spaced, joined):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(YB_SPEC)))
        results.append(run(capsys, *argv))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1) and results[0][1]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--mu", "-"],  # "-" is the stdin spec, not a value
        ["analyze", "--mu", "-"],
        ["verify", "-", "--mu", "--nu", "0.7"],  # the value is missing
        ["sweep", "--family", "I", "--phi-grid", "--mu-grid", "0"],
    ],
)
def test_flag_without_its_value_stays_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(YB_SPEC)))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: argument" in err


def test_option_strings_are_every_flag_of_both_parsers():
    """The option set that keeps a flag from being read as a signed value is
    every option string of the top-level parser and of each command's parser."""
    parsers = (cli._PARSER, *cli._COMMAND_PARSERS.values())
    want = {s for p in parsers for a in p._actions for s in a.option_strings}
    assert cli._OPTIONS == want
    assert {"-h", "--help", "--mu", "--phi-grid", "--threshold", "--out"} <= want


# --- the analyze report writer ----------------------------------------------

report_floats = (
    st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1.7976931348623157e308,
                       math.nan, math.inf, -math.inf, np.float64(-0.0), np.float64(math.inf)])
)
report_ints = st.integers() | st.integers(-(10**60), 10**60)
verdicts = st.fixed_dictionaries(
    {"clifford": st.booleans(), "matchgate": st.booleans(), "dual_unitary": st.booleans()}
)
reports = st.fixed_dictionaries(
    {
        "version": st.text(max_size=8),
        "seed": report_ints,
        "mc_samples": report_ints,
        "nonlocal": st.lists(report_floats, min_size=3, max_size=3),
        "location": st.text(max_size=8),
        "entangling_power": report_floats,
        "entangling_power_mc": report_floats,
        "min_cnot_count": report_ints,
        "classification": verdicts,
        "predicted": st.none() | verdicts,
        "residuals": st.fixed_dictionaries(
            {
                "unitarity": report_floats,
                "braid": report_floats,
                "ybe": st.none() | report_floats,
                "dual_unitarity": report_floats,
            }
        ),
    }
)


@settings(max_examples=200)
@given(reports)
def test_report_writer_matches_json_dumps(report):
    """Reports of every value shape; the reports of each spec kind, run
    through cli.main, are checked in test_analyze_report_takes_entangling_power_from_the_point."""
    assert cli.format_report(report) == json.dumps(report, indent=2)


# --- input contract --------------------------------------------------------

json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
angles = st.one_of(
    st.floats(-10, 10),
    st.sampled_from(["pi/2", "-3pi/4", "2*pi/3", "pi/0", "1e400", "nan", "x"]),
    json_values,
)
angle_lists = st.lists(st.floats(-10, 10), min_size=1, max_size=4) | st.lists(angles, max_size=5) | json_values
matrices = st.lists(
    st.lists(st.lists(st.floats() | json_leaves, min_size=2, max_size=2) | json_values,
             min_size=4, max_size=4),
    min_size=4, max_size=4,
)
families = st.sampled_from(braid.FAMILIES) | json_values
yb_fields = {
    "kind": st.integers(0, 4) | json_values,
    "mu": angles,
    "chi": angles,
}
spec_bodies = {
    "matrix": matrices | json_values,
    "named": st.sampled_from(sorted(cli._NAMED)) | json_values,
    "braid": st.fixed_dictionaries({"family": families, "phi": angle_lists})
    | st.fixed_dictionaries({}, optional={"family": families, "phi": angle_lists, "x": json_values})
    | json_values,
    "yb": st.fixed_dictionaries({"family": families, "phi": angle_lists}, optional=yb_fields)
    | st.fixed_dictionaries({}, optional={"family": families, "phi": angle_lists, **yb_fields})
    | json_values,
}
# one spec key, with stray keys (maybe another spec key) beside it
keyed_specs = st.sampled_from(sorted(spec_bodies)).flatmap(
    lambda key: st.builds(
        lambda body, stray: {**stray, key: body},
        spec_bodies[key],
        st.dictionaries(st.sampled_from(["bogus", "", "named"]), json_values, max_size=1),
    )
)
commands = st.one_of(
    st.builds(
        lambda n, seed: ["analyze", "-", "--mc-samples", str(n), "--seed", str(seed)],
        st.integers(1, 64),
        st.integers(0, 3),
    ),
    st.just(["verify", "-"]),
    st.just(["synth", "-"]),
)
# the identity with entry (0, 0) at 1e300, whose unitarity residual overflows
_HUGE_ENTRY = [[[1e300 if i == j == 0 else float(i == j), 0.0] for j in range(4)] for i in range(4)]
# the identity with subnormal imaginary parts off the diagonal
_SUBNORMAL_ENTRIES = [[[float(i == j), 0.0 if i == j else 5e-324] for j in range(4)] for i in range(4)]


@settings(max_examples=300)
@given(commands, keyed_specs | json_values)
@example(["analyze", "-", "--mc-samples", "8", "--seed", "0"], {"matrix": {"a": 1}})
@example(["analyze", "-", "--mc-samples", "8", "--seed", "0"], {"named": []})
@example(["analyze", "-", "--mc-samples", "8", "--seed", "0"], {"matrix": _HUGE_ENTRY})
@example(["verify", "-"], {"matrix": _HUGE_ENTRY})
@example(["synth", "-"], {"matrix": _HUGE_ENTRY})
@example(["analyze", "-", "--mc-samples", "8", "--seed", "0"], {"matrix": _SUBNORMAL_ENTRIES})
@example(["synth", "-"], {"matrix": _SUBNORMAL_ENTRIES})
def test_cli_survives_arbitrary_spec_json(argv, spec):
    """Any JSON spec ends in a documented exit code with at most one stderr
    line and no warning, whatever the warning filters."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(json.dumps(spec))),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    assert err.getvalue().count("\n") <= 1


def _near_unitary(residual, seed):
    """A matrix with unitarity residual about `residual`: the identity scaled
    by 1 + residual / 4 (seed None), or a Haar gate times I + residual / 2 H
    with H Hermitian of unit norm."""
    if seed is None:
        return np.eye(4, dtype=complex) * (1 + residual / 4)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    return unitary_group.rvs(4, random_state=rng) @ (np.eye(4) + residual / 2 * h / np.linalg.norm(h))


def _run_matrix(argv, m):
    """(exit code, stdout, stderr) of the CLI on {"matrix": m} read from stdin,
    and the matrix as the CLI parses it."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(json.dumps({"matrix": rows}))),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), np.array([[complex(*z) for z in row] for row in rows])


_MATRIX_ARGV = {
    "analyze": ["analyze", "-", "--mc-samples", "16"],
    "synth": ["synth", "-"],
    "verify": ["verify", "-"],
}


@settings(max_examples=60)
@given(st.floats(-9, -5.7), st.none() | st.integers(0, 2**32 - 1), st.sampled_from(sorted(_MATRIX_ARGV)))
@example(math.log10(2e-7), None, "analyze")
@example(math.log10(2e-7), None, "synth")
@example(math.log10(2e-7), 0, "verify")
def test_near_unitary_matrix_gets_a_report_or_a_circuit(log_residual, seed, command):
    """Residuals up to UNITARY_TOL exit 0, past the library's 1e-8 too; above, exit 3.

    verify judges the braid relation on the matrix as given.
    """
    code, out, err, m = _run_matrix(_MATRIX_ARGV[command], _near_unitary(10.0**log_residual, seed))
    res = unitarity_residual(m)
    if res > cli.UNITARY_TOL:
        assert code == 3 and "not unitary" in err
        return
    if command == "verify":
        lines = json.loads(out)
        assert lines["braid_residual"] == braid.braid_residual(m)
        assert code == (0 if lines["braid_residual"] <= 1e-8 else 1)
        return
    assert code == 0, err
    if command == "analyze":
        report = json.loads(out)
        assert report["residuals"]["unitarity"] == res
        assert report["residuals"]["braid"] == braid.braid_residual(m)
        assert report["min_cnot_count"] == (0 if seed is None else 3)
    else:
        c = cli.parse_circuit(out)
        assert c.cnot_count == (0 if seed is None else 3)
        assert phase_distance(evaluate(c), m) <= 1e-6


@pytest.mark.parametrize("eps", [5e-10, 5e-8, 2e-7])
def test_verify_judges_a_perturbed_braid_gate_as_given(eps):
    """B (I + eps H) has the braid gate B as its polar factor, but a braid
    residual of order eps: verify and the report's residuals see the latter."""
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T)
    b = braid.build_braid(braid.BraidSpec("I", (0.3, 1.1, -0.7, 2.0)))
    assert braid.braid_residual(b) <= 1e-14
    code, out, _, m = _run_matrix(["verify", "-"], b @ (np.eye(4) + eps * h))
    res = braid.braid_residual(m)
    assert json.loads(out)["braid_residual"] == res
    assert code == (0 if res <= 1e-8 else 1)
    if eps >= 5e-8:
        assert res > 1e-8 and code == 1
    code, out, err, _ = _run_matrix(["analyze", "-", "--mc-samples", "16"], m)
    assert code == 0, err
    report = json.loads(out)
    assert report["residuals"]["braid"] == res
    assert report["residuals"]["unitarity"] == unitarity_residual(m)


def _cli_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(ybgates.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cli_process(*argv, stdin=None):
    """`python -m ybgates argv` in a process of its own."""
    return subprocess.run(
        [sys.executable, "-m", "ybgates", *argv],
        input=stdin, capture_output=True, text=True, env=_cli_env(), timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    proc = _cli_process("analyze", "-", stdin=json.dumps({"named": "cnot"}))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["min_cnot_count"] == 1


def test_cli_runs_without_scipy(tmp_path):
    """analyze, synth and sweep need numpy alone: scipy is a test dependency."""
    specs = {
        "braid": {"braid": {"family": "I", "phi": [0.1, 0.2, 0.3, 0.1]}},
        "yb": {"yb": {"family": "III", "kind": 2, "mu": 0.4, "phi": [0.3, 0.5]}},
        "matrix": {"matrix": [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]},
    }
    paths = {name: write_spec(tmp_path, obj, f"{name}.json") for name, obj in specs.items()}
    argvs = [["analyze", paths[name], "--mc-samples", "16"] for name in specs]
    argvs += [["synth", paths["matrix"]],
              ["sweep", "--family", "I", "--kind", "2", "--phi-grid", "0.3", "--mu-grid", "0.2"]]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ybgates import cli\n"
        "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
