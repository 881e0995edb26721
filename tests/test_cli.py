import json
import math

import numpy as np
import pytest

import ybgates
from ybgates import cli
from ybgates.linalg import phase_distance
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


_YB_MU_800 = {"yb": {"family": "I", "kind": 1, "mu": 800, "phi": [0.1, 0.2, 0.3]}}


@pytest.mark.parametrize(
    "argv, spec",
    [
        (("analyze", "-"), _YB_MU_800),
        (("synth", "-"), {"yb": {"family": "III", "kind": 1, "mu": 800, "phi": [0.1, 0.2]}}),
        (("sweep", "--family", "I", "--kind", "1", "--phi-grid", "0.3", "--mu-grid", "800"), None),
        (("analyze", "--mu", "800", "-"),
         {"yb": {"family": "I", "kind": 1, "mu": 0.3, "phi": [0.1, 0.2, 0.3]}}),
    ],
)
def test_overflowing_spectral_parameter_exit_two(capsys, monkeypatch, argv, spec):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_parse_grid():
    assert cli.parse_grid("0,pi/2") == [0.0, PI / 2]
    lin = cli.parse_grid("lin:0:pi:5")
    assert len(lin) == 5 and lin[0] == 0.0 and lin[-1] == pytest.approx(PI)
    with pytest.raises(cli.InputError):
        cli.parse_grid("")


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


def test_synth_riv_template(tmp_path, capsys):
    path = write_spec(tmp_path, {"yb": {"family": "IV", "kind": 1, "chi": 0.3, "phi": [0.5]}})
    code, out, _ = run(capsys, "synth", path)
    assert code == 0
    c = cli.parse_circuit(out)
    assert c.cnot_count == 2


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


def test_sweep_empty_grid(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sweep", "--family", "I", "--phi-grid", "lin:0:1:0", "--mu-grid", "0",
    )
    assert code == 2


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
