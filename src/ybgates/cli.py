"""Command-line frontend: analyze / verify / synth / sweep.

Gate specifications are JSON objects holding exactly one of:

  {"matrix": [[[re, im], ...], ...]}   4x4 complex matrix
  {"named": "cnot" | "swap" | "iswap" | "identity"}
  {"braid": {"family": "I", "phi": [...]}}
  {"yb": {"family": "I", "kind": 1, "mu": 0.5, "phi": [...]}}
      (family IV uses "chi" instead of "mu")

Angles may be decimal literals or exact pi expressions such as "pi/2",
"-3pi/4", "2*pi/3".

Exit codes: 0 success, 1 verification failure, 2 input error (including
parameters whose gate overflows), 3 non-unitary input, 4 synthesis
residual failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import baxterize, braid, classify, synth, weyl
from .linalg import unitarity_residual

UNITARY_TOL = 1e-6
DEFAULT_SEED_ENV = "GATE_TOOL_SEED"

_NAMED = {
    "cnot": lambda: weyl.CNOT,
    "swap": lambda: weyl.SWAP,
    "iswap": lambda: weyl.ISWAP,
    "identity": lambda: np.eye(4, dtype=complex),
}


class InputError(ValueError, argparse.ArgumentTypeError):
    """Malformed gate specification or flags (exit code 2).

    argparse reports it as a usage error, with this message, when a flag's
    type function raises it.
    """


class NonUnitaryError(Exception):
    """Spec parsed but the matrix is not unitary (exit code 3)."""


_PI_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$"
)


def parse_angle(v) -> float:
    """Float or exact pi-expression string -> finite radians."""
    if isinstance(v, (int, float)):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
    elif isinstance(v, str):
        m = _PI_RE.match(v)
        if m:
            num = float(m.group("num") or 1.0)
            den = float(m.group("den") or 1.0)
            sign = -1.0 if m.group("sign") == "-" else 1.0
            x = sign * num * math.pi / den if den else math.inf
        else:
            try:
                x = float(v)
            except ValueError:
                raise InputError(f"cannot parse angle {v!r}")
    else:
        raise InputError(f"cannot parse angle {v!r}")
    if not math.isfinite(x):
        raise InputError(f"angle {v!r} is not finite")
    return x


def _parse_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (4, 4, 2):
        raise InputError("matrix must be 4x4 of [re, im] pairs")
    m = arr[..., 0] + 1j * arr[..., 1]
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return m


def load_spec(obj):
    """Parse a GateSpecFile object -> (matrix, spec-or-None).

    spec is a BraidSpec or YbSpec when the input named one, else None.
    """
    if not isinstance(obj, dict):
        raise InputError("gate spec must be a JSON object")
    keys = [k for k in ("matrix", "named", "braid", "yb") if k in obj]
    if len(keys) != 1:
        raise InputError("spec needs exactly one of matrix/named/braid/yb")
    key = keys[0]
    if key == "matrix":
        return _parse_matrix(obj["matrix"]), None
    if key == "named":
        name = obj["named"]
        if name not in _NAMED:
            raise InputError(f"unknown named gate {name!r}")
        return _NAMED[name]().copy(), None
    if key == "braid":
        body = obj["braid"]
        try:
            spec = braid.BraidSpec(body["family"], [parse_angle(p) for p in body["phi"]])
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"bad braid spec: {e}")
        return braid.build_braid(spec), spec
    body = obj["yb"]
    try:
        family = body["family"]
        if family == "IV":
            spectral = parse_angle(body["chi"])
        else:
            spectral = parse_angle(body["mu"])
        kind = body.get("kind", 1)
        if isinstance(kind, bool) or not (
            isinstance(kind, int) or (isinstance(kind, float) and kind.is_integer())
        ):
            raise ValueError(f"kind must be an integer, got {kind!r}")
        spec = baxterize.YbSpec(
            family, int(kind), spectral, [parse_angle(p) for p in body["phi"]]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad yb spec: {e}")
    return baxterize.build_yb(spec), spec


def _read_spec_file(path: str):
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as f:
                obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read spec: {e}")
    return load_spec(obj)


def _require_unitary(u: np.ndarray) -> float:
    res = unitarity_residual(u)
    if res > UNITARY_TOL:
        raise NonUnitaryError(f"matrix is not unitary (residual {res:.3e})")
    return res


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(DEFAULT_SEED_ENV)
    return int(env) if env else 0


def build_report(u: np.ndarray, spec, seed: int, mc_samples: int, mu: float, nu: float) -> dict:
    ures = _require_unitary(u)
    a = weyl.extract_nonlocal(u)
    cls = classify.classify_gate(u, spec)
    ybe = None
    if isinstance(spec, baxterize.YbSpec):
        ybe = baxterize.ybe_residual(spec, mu, nu)
    report = {
        "nonlocal": [float(x) for x in a],
        "location": weyl.chamber_location(a),
        "entangling_power": float(weyl.entangling_power(u)),
        "entangling_power_mc": float(weyl.entangling_power_mc(u, mc_samples, seed)),
        "min_cnot_count": int(weyl.min_cnot_count(a)),
        "classification": {
            "clifford": bool(cls.is_clifford),
            "matchgate": bool(cls.is_matchgate),
            "dual_unitary": bool(cls.is_dual_unitary),
        },
        "predicted": cls.predicted,
        "residuals": {
            "unitarity": float(ures),
            "braid": float(braid.braid_residual(u)),
            "ybe": None if ybe is None else float(ybe),
            "dual_unitarity": float(cls.dual_residual),
        },
    }
    return report


def cmd_analyze(args) -> int:
    u, spec = _read_spec_file(args.spec)
    report = build_report(u, spec, _seed(args), args.mc_samples, args.mu, args.nu)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_verify(args) -> int:
    u, spec = _read_spec_file(args.spec)
    _require_unitary(u)
    lines = {}
    lines["braid_residual"] = braid.braid_residual(u)
    ok = lines["braid_residual"] <= args.threshold
    if isinstance(spec, baxterize.YbSpec):
        lines["ybe_residual"] = baxterize.ybe_residual(spec, args.mu, args.nu)
        # a Yang-Baxter gate only reaches the braid relation in the limit,
        # so the YBE residual is the verdict for yb specs
        ok = lines["ybe_residual"] <= args.threshold
    json.dump(lines, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if ok else 1


def format_circuit(c: synth.Circuit) -> str:
    out = ["# qubits=2", f"# phase={c.phase!r}"]
    for op in c.ops:
        if op.kind == "RZ":
            out.append(f"RZ {op.qubits[0]} {op.angle!r}")
        elif op.kind == "CNOT":
            out.append(f"CNOT {op.qubits[0]} {op.qubits[1]}")
        else:
            out.append(f"{op.kind} {op.qubits[0]}")
    return "\n".join(out) + "\n"


def parse_circuit(text: str) -> synth.Circuit:
    c = synth.Circuit()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# phase="):
            c.phase = float(line.split("=", 1)[1])
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "CNOT":
            c.ops.append(synth.GateOp("CNOT", (int(parts[1]), int(parts[2]))))
        elif kind == "RZ":
            c.ops.append(synth.GateOp("RZ", (int(parts[1]),), float(parts[2])))
        elif kind in ("H", "S", "SDG", "T", "TDG"):
            c.ops.append(synth.GateOp(kind, (int(parts[1]),)))
        else:
            raise InputError(f"unknown circuit line {line!r}")
    return c


def cmd_synth(args) -> int:
    u, spec = _read_spec_file(args.spec)
    _require_unitary(u)
    if isinstance(spec, baxterize.YbSpec) and spec.family == "IV":
        c = synth.synth_riv(spec.phi[0], spec.chi)
    else:
        c = synth.synth_general(u)
    res = synth.verify_circuit(c, u)
    text = format_circuit(c)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    print(f"cnots={c.cnot_count} residual={res:.3e}", file=sys.stderr)
    if res > 1e-6:
        return 4
    return 0


def parse_grid(text: str) -> list:
    """Comma-separated angles, or lin:<start>:<stop>:<count> for a linspace."""
    text = text.strip()
    if not text:
        raise InputError("empty grid")
    if text.startswith("lin:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise InputError("linear grid is lin:<start>:<stop>:<count>")
        start, stop = parse_angle(parts[1]), parse_angle(parts[2])
        count = int(parts[3])
        if count < 1:
            raise InputError("empty grid")
        return list(np.linspace(start, stop, count))
    return [parse_angle(v) for v in text.split(",")]


def _sweep_spec(family: str, kind: int, phi, mu) -> baxterize.YbSpec:
    """One-parameter slice per family: phi is the one swept braid angle."""
    if family in ("I", "II"):
        # phi1 = 0, phi2 = phi3 = phi: phase parameter phi, omega = 0
        return baxterize.YbSpec(family, kind, mu, (0.0, phi, phi))
    if family == "III":
        return baxterize.YbSpec(family, kind, mu, (phi, 0.0))
    return baxterize.YbSpec("IV", kind, mu, (phi,))


def cmd_sweep(args) -> int:
    phi, mu = np.meshgrid(parse_grid(args.phi_grid), parse_grid(args.mu_grid), indexing="ij")
    # the whole grid is one batch spec; rows run over mu within each phi
    spec = _sweep_spec(args.family, args.kind, phi, mu)
    a = baxterize.yb_nonlocal_closed(spec)
    ep = baxterize.yb_ep(spec)
    # + 0.0 normalizes negative zeros out of the CSV
    table = np.column_stack([phi.ravel(), mu.ravel(), a.reshape(-1, 3), ep.ravel()]) + 0.0
    row = f"{args.family},{args.kind}" + ",%.17g" * 6
    rows = ["family,kind,phi,mu,a1,a2,a3,ep"]
    rows.extend(row % tuple(vals) for vals in table.tolist())
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ybgates", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_spec(sp):
        sp.add_argument("spec", help="gate spec JSON file, or - for stdin")

    pa = sub.add_parser("analyze", help="full gate report as JSON")
    add_spec(pa)
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--mc-samples", type=int, default=20000)
    pa.add_argument("--mu", type=parse_angle, default=0.5)
    pa.add_argument("--nu", type=parse_angle, default=0.7)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="braid / Yang-Baxter residuals")
    add_spec(pv)
    pv.add_argument("--mu", type=parse_angle, default=0.5)
    pv.add_argument("--nu", type=parse_angle, default=0.7)
    pv.add_argument("--threshold", type=float, default=1e-8)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("synth", help="emit a minimal-CNOT circuit")
    add_spec(ps)
    ps.add_argument("--out", default=None, help="circuit text output path")
    ps.set_defaults(func=cmd_synth)

    pw = sub.add_parser("sweep", help="nonlocal parameters and entangling power over a grid")
    pw.add_argument("--family", required=True, choices=braid.FAMILIES)
    pw.add_argument("--kind", type=int, default=1)
    pw.add_argument("--phi-grid", required=True)
    pw.add_argument("--mu-grid", required=True, help="chi grid for family IV")
    pw.add_argument("--out", default=None, help="CSV output path")
    pw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonUnitaryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
