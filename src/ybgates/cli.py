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
parameters whose gate overflows, sizes too large to allocate and an --out
path that cannot be written), 3 non-unitary input, 4 synthesis failure on
an admitted input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's string quoting

import numpy as np

from . import __version__, baxterize, braid, classify, synth, weyl
from .linalg import unitary_part

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
    """Number (not a bool) or exact pi-expression string -> finite radians."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
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


def _parse_angles(v) -> list:
    """A JSON array of angles; a string or an object is not one."""
    if not isinstance(v, list):
        raise ValueError(f"phi must be an array of angles, got {v!r}")
    return [parse_angle(p) for p in v]


def parse_threshold(text: str) -> float:
    """A finite --threshold; NaN would fail every comparison."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise InputError(f"threshold must be a finite number, got {text!r}")
    return x


def _parse_matrix(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (4, 4, 2):
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
        if not isinstance(name, str) or name not in _NAMED:
            raise InputError(f"unknown named gate {name!r}")
        return _NAMED[name]().copy(), None
    if key == "braid":
        body = obj["braid"]
        try:
            spec = braid.BraidSpec(body["family"], _parse_angles(body["phi"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"bad braid spec: {e}")
        return braid.build_braid(spec), spec
    body = obj["yb"]
    try:
        family = body["family"]
        spectral = parse_angle(body["chi" if family == "IV" else "mu"])
        spec = baxterize.YbSpec(family, body.get("kind", 1), spectral, _parse_angles(body["phi"]))
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


def _require_unitary(u: np.ndarray):
    """(gate, residual) of an input matrix; exit 3 past UNITARY_TOL, 2 if not finite.

    `linalg.unitary_part` with the CLI's wider admission: a residual in
    (POLAR_TOL, UNITARY_TOL] gives the polar factor of u as the gate, and
    the residual is the one of u.
    """
    try:
        return unitary_part(u, UNITARY_TOL)
    except ValueError as e:
        # a matrix spec holds finite entries only, so a non-finite gate was
        # built from parameters that overflow
        if not np.all(np.isfinite(u)):
            raise InputError("gate parameters overflow: the gate is not finite") from None
        raise NonUnitaryError(str(e)) from None


def _seed(args) -> int:
    """The effective Monte Carlo seed: --seed, else GATE_TOOL_SEED, else 0."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(DEFAULT_SEED_ENV)
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise InputError(f"{DEFAULT_SEED_ENV} must be an integer, got {env!r}")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    return seed


def build_report(u: np.ndarray, spec, seed: int, mc_samples: int, mu: float, nu: float) -> dict:
    gate, ures = _require_unitary(u)
    # the chamber point, and what is read off it, is of the nearest unitary;
    # residuals, classification and the Monte Carlo estimate are of u.
    # + 0.0 writes a negative zero as 0.0
    a = [x + 0.0 for x in weyl.extract_nonlocal(gate).tolist()]
    cls = classify.classify_gate(u, spec)
    ybe = None
    if isinstance(spec, baxterize.YbSpec):
        ybe = baxterize.ybe_residual(spec, mu, nu)
    report = {
        "version": __version__,
        "seed": seed,
        "mc_samples": mc_samples,
        "nonlocal": a,
        "location": weyl.chamber_location(a),
        "entangling_power": weyl.entangling_power_from_point(a),
        "entangling_power_mc": float(weyl.entangling_power_mc(u, mc_samples, seed)),
        "min_cnot_count": weyl.min_cnot_count(a),
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


def _json_scalar(v) -> str:
    """One JSON value as json.dumps writes it; containers are left to the caller."""
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
    elif v is None:
        return "null"
    elif v is True:
        return "true"
    elif v is False:
        return "false"
    elif isinstance(v, int):
        return int.__repr__(v)
    elif isinstance(v, str):
        return _quote(v)
    # non-finite floats and empty containers
    return json.dumps(v)


def format_report(report: dict) -> str:
    """json.dumps(report, indent=2), byte for byte, for an analyze or verify report.

    The report's layout is fixed: string keys, and values that are JSON
    scalars or one level of lists and dicts of them.  Writing that layout
    directly skips json's general-purpose encoder, which is pure Python
    once an indent is set.
    """
    fields = []
    for key, v in report.items():
        if isinstance(v, dict) and v:
            inner = ",\n    ".join(f"{_quote(k)}: {_json_scalar(x)}" for k, x in v.items())
            text = "{\n    " + inner + "\n  }"
        elif isinstance(v, (list, tuple)) and v:
            text = "[\n    " + ",\n    ".join(map(_json_scalar, v)) + "\n  ]"
        else:
            text = _json_scalar(v)
        fields.append(f"{_quote(key)}: {text}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def cmd_analyze(args) -> int:
    u, spec = _read_spec_file(args.spec)
    report = build_report(u, spec, _seed(args), args.mc_samples, args.mu, args.nu)
    sys.stdout.write(format_report(report) + "\n")
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
    sys.stdout.write(format_report(lines) + "\n")
    return 0 if ok else 1


def format_circuit(c: synth.Circuit) -> str:
    """One line per op, `kind q... [angle]`; every float as its repr, so
    parse_circuit reads the same bits back."""
    out = ["# qubits=2", f"# phase={float(c.phase)!r}"]
    for op in c.ops:
        fields = [op.kind, *map(str, op.qubits)]
        if op.angle is not None:
            fields.append(repr(op.angle))
        out.append(" ".join(fields))
    return "\n".join(out) + "\n"


def parse_circuit(text: str) -> synth.Circuit:
    """Circuit text as written by format_circuit; InputError names a bad line.

    Each line's kind, qubits and angle go to synth.GateOp, which decides
    what a valid op is; RZ, the one op with an angle, ends in it.
    """
    c = synth.Circuit()
    for line in text.splitlines():
        line = line.strip()
        try:
            if line.startswith("# phase="):
                c.phase = parse_angle(line.split("=", 1)[1])
                continue
            if not line or line.startswith("#"):
                continue
            kind, *args = line.split()
            angle = float(args.pop()) if kind == "RZ" and args else None
            op = synth.GateOp(kind, tuple(map(int, args)), angle)
        except ValueError as e:
            raise InputError(f"bad circuit line {line!r}: {e}") from None
        c.ops.append(op)
    return c


def _emit(text: str, out) -> None:
    """Write text to the --out path, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        # such as a path in a missing directory, a directory itself or a full disk
        with open(out, "w") as f:
            f.write(text)
    except OSError as e:
        raise InputError(f"cannot write output: {e}") from None


def cmd_synth(args) -> int:
    u, _ = _read_spec_file(args.spec)
    gate, _ = _require_unitary(u)
    try:
        c = synth.synth_general(gate)
    except ValueError as e:
        # the input is admitted, so what failed is the synthesis
        print(f"error: {e}", file=sys.stderr)
        return 4
    # the residual against the input as given
    res = synth.verify_circuit(c, u)
    _emit(format_circuit(c), args.out)
    print(f"cnots={c.cnot_count} residual={res:.3e}", file=sys.stderr)
    return 0


def parse_grid(text: str) -> np.ndarray:
    """Comma-separated angles, or lin:<start>:<stop>:<count>, as a 1-d float64 array.

    A lin: grid holds np.linspace(start, stop, count) bit for bit: the same
    arithmetic on one arange, without linspace's general-purpose wrapper.
    A span stop - start past the float range, where linspace warns, is an
    InputError.
    """
    text = text.strip()
    if not text:
        raise InputError("empty grid")
    if not text.startswith("lin:"):
        return np.array([parse_angle(v) for v in text.split(",")])
    parts = text.split(":")
    if len(parts) != 4:
        raise InputError("linear grid is lin:<start>:<stop>:<count>")
    start, stop = parse_angle(parts[1]), parse_angle(parts[2])
    try:
        count = int(parts[3])
    except ValueError:
        raise InputError(f"linear grid count must be an integer, got {parts[3]!r}") from None
    if count < 1:
        raise InputError("empty grid")
    delta = stop - start
    if not math.isfinite(delta):
        raise InputError(f"linear grid span {parts[2]} - {parts[1]} is not finite")
    # a single point is start + 0 * delta, and delta / 1 is delta
    div = max(count - 1, 1)
    step = delta / div
    y = np.arange(count, dtype=float)
    if step != 0:
        y *= step
    else:
        # the step underflows, as over a denormal span or equal endpoints
        y /= div
        y *= delta
    y += start
    if count > 1:
        y[-1] = stop
    return y


def _sweep_spec(family: str, kind: int, phi, mu) -> baxterize.YbSpec:
    """One-parameter slice per family: phi is the one swept braid angle."""
    if family in ("I", "II"):
        # phi1 = 0, phi2 = phi3 = phi: phase parameter phi, omega = 0
        return baxterize.YbSpec(family, kind, mu, (0.0, phi, phi))
    if family == "III":
        return baxterize.YbSpec(family, kind, mu, (phi, 0.0))
    return baxterize.YbSpec("IV", kind, mu, (phi,))


def _pieces(template: str, values: list) -> list:
    """template % v for each of the floats values, from one % over all of
    them; "|" is in no %.17g text and in no family or kind."""
    return ((template + "|") * len(values) % tuple(values)).split("|")[:-1]


def _distinct_half(x: np.ndarray):
    """(sorted distinct values, index of each value of x among them) of a flat
    x, by one argsort, when at least half of its values repeat; else None."""
    order = x.argsort()
    ordered = x[order]
    # whether each sorted value differs from the one before it
    first = np.empty(x.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) > x.size:
        return None
    index = np.empty(x.size, dtype=np.intp)
    # each value's place in the table, scattered back to its place in x
    index[order] = first.cumsum() - 1
    return ordered[first], index


def cmd_sweep(args) -> int:
    phis, mus = parse_grid(args.phi_grid), parse_grid(args.mu_grid)
    # one batch spec of a phi column and a mu row; rows run over mu within each phi
    a = baxterize.yb_nonlocal_closed(_sweep_spec(args.family, args.kind, phis[:, None], mus[None, :]))
    # the a1, a2, a3, ep values of each row; ep by yb_ep's formula, on the
    # point at hand. + 0.0 normalizes negative zeros out of the CSV
    point = np.empty(a.shape[:-1] + (4,))
    point[..., :3] = a
    point[..., 3] = weyl.entangling_power_from_point(a)
    point += 0.0
    # one cell per CSV piece, each led by its separator. Each grid value is
    # formatted once, not once per row
    lead = _pieces(f"\n{args.family},{args.kind},%.17g", (phis + 0.0).tolist())
    cells = np.empty(a.shape[:-1] + (6,), dtype=object)
    cells[..., 0] = np.array(lead, dtype=object)[:, None]
    cells[..., 1] = _pieces(",%.17g", (mus + 0.0).tolist())
    # formatting each distinct value once pays for the index from 10 rows on,
    # once at least half of the values repeat (as on grids symmetric about 0,
    # or along a chamber edge)
    rows = phis.size * mus.size
    distinct = _distinct_half(point.ravel()) if rows >= 10 else None
    if distinct is not None:
        values, index = distinct
        table = np.array(_pieces(",%.17g", values.tolist()), dtype=object)
        cells[..., 2:] = table[index.reshape(point.shape)]
        text = "".join(cells.ravel().tolist())
    else:
        cells[..., 2:] = point
        text = ("%s%s" + ",%.17g" * 4) * rows % tuple(cells.ravel().tolist())
    _emit("family,kind,phi,mu,a1,a2,a3,ep" + text + "\n", args.out)
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

    pv = sub.add_parser("verify", help="braid / Yang-Baxter residuals")
    add_spec(pv)
    pv.add_argument("--mu", type=parse_angle, default=0.5)
    pv.add_argument("--nu", type=parse_angle, default=0.7)
    pv.add_argument("--threshold", type=parse_threshold, default=1e-8)

    ps = sub.add_parser("synth", help="emit a minimal-CNOT circuit")
    add_spec(ps)
    ps.add_argument("--out", default=None, help="circuit text output path")

    pw = sub.add_parser("sweep", help="nonlocal parameters and entangling power over a grid")
    pw.add_argument("--family", required=True, choices=braid.FAMILIES)
    pw.add_argument("--kind", type=int, default=1)
    pw.add_argument("--phi-grid", required=True)
    pw.add_argument("--mu-grid", required=True, help="chi grid for family IV")
    pw.add_argument("--out", default=None, help="CSV output path")
    return p


# built once: argparse parsers hold no state between parse_args calls
_PARSER = build_parser()
# each command's own parser, by name
_COMMAND_PARSERS = next(a.choices for a in _PARSER._actions if isinstance(a.choices, dict))
# every option string of the top-level parser and of each command's parser
_OPTIONS = frozenset().union(*(p._option_string_actions for p in (_PARSER, *_COMMAND_PARSERS.values())))
# flags whose value may start with "-": angles, grids and the threshold
_SIGNED_FLAGS = frozenset({"--phi-grid", "--mu-grid", "--mu", "--nu", "--threshold"})


def _attach_signed_values(argv: list) -> list:
    """argv with "--mu -pi/4" written as "--mu=-pi/4".

    argparse reads a token that starts with "-" as an option unless it
    looks like a plain negative number, so "-pi/4" or "-0.5,0" after a
    flag would leave the flag without its value.  A token that is an
    option string, or the stdin spec "-", is left where it is.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_FLAGS and tok[:1] == "-" and tok != "-" and tok not in _OPTIONS:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parse_args(argv: list) -> argparse.Namespace:
    """The flags of the command named first in argv, read by that command's
    parser alone; the top-level parser handles -h and a missing or unknown
    command."""
    command = argv[0] if argv else None
    if command not in _COMMAND_PARSERS:
        return _PARSER.parse_args(argv)
    return _COMMAND_PARSERS[command].parse_args(argv[1:], argparse.Namespace(command=command))


def main(argv=None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # looked up at call time, so a cmd_* rebound on this module (a tracing
    # wrapper, a test double) is the one that runs
    commands = {"analyze": cmd_analyze, "verify": cmd_verify, "synth": cmd_synth, "sweep": cmd_sweep}
    try:
        return commands[args.command](args)
    except NonUnitaryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # numpy's allocation failure is a private MemoryError subclass
        print(f"error: MemoryError: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
