"""The three workloads: seeded request generation, the call into the
program, and the output check of each request.

Each workload hands out requests in balanced cycles: one cycle holds every
request type in fixed proportion, in a seeded order with seeded parameters.
The runner measures whole cycles, so every seed runs the same mix and only
the drawn values change.

A check returns None for a correct output, or (kind, message) where kind
is "exit" (non-zero exit code) or "mismatch" (an output disagreeing with
its reference). The runner records exceptions as kind "exception".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from ybgates import baxterize, braid, cli, synth, weyl

import reference as ref

PI = math.pi
CIRCUIT_TOL = 1e-7
POINT_TOL = 1e-7
BRAID_TOL = 1e-10  # acceptance criterion 01
YBE_TOL = 1e-9  # acceptance criterion 02
MC_SAMPLES = 20000  # the analyze default

YB_KINDS = [("I", 1), ("I", 2), ("I", 3), ("II", 1), ("II", 2), ("II", 3),
            ("III", 1), ("III", 2), ("III", 3), ("IV", 1)]
BRAID_PHASES = {"I": 4, "II": 3, "III": 2, "IV": 1}
YB_PHASES = {"I": 3, "II": 3, "III": 2, "IV": 1}


@dataclass
class Request:
    kind: str  # request type, used to report failures by cause
    payload: object  # what the program receives
    items: int = 1  # work items the request completes on success
    expect: dict = field(default_factory=dict)  # reference values for the check


def run_cli(argv: list, stdin_text: str = ""):
    """In-process `ybgates <argv>` with stdin fed and stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _exit_problem(rc, err: str):
    if rc == 0:
        return None
    lines = err.strip().splitlines()
    return ("exit", f"exit {rc}: {lines[-1] if lines else '(no message)'}")


def _yb_draw(rng, family: str):
    """(spectral, phases) as the acceptance tests draw them."""
    if family == "IV":
        spectral = rng.uniform(0.02, PI / 2 - 0.02)
    else:
        spectral = rng.uniform(-1.5, 1.5)
    return spectral, [float(p) for p in rng.uniform(0, 2 * PI, YB_PHASES[family])]


class SynthStream:
    """synth.synth_general(u) on a seeded mix of generic and structured gates.

    Half of each cycle is Haar-random 4x4 unitaries (3 CNOTs). The other
    half is structured: braid gates of families I-IV, Yang-Baxter gates of
    every family and kind, and the Clifford class points with 0-3 CNOTs,
    each dressed on both sides in Haar-random local unitaries.
    """

    name = "synth_stream"

    def __init__(self):
        self.op_counts: list = []

    def cycle(self, rng, shuffle: bool = True) -> list:
        reqs = []
        for family, n in BRAID_PHASES.items():
            spec = braid.BraidSpec(family, rng.uniform(0, 2 * PI, n))
            reqs.append(self._structured(rng, f"braid {family}", braid.build_braid(spec),
                                         braid.braid_nonlocal_closed(spec)))
        for family, kind in YB_KINDS:
            spec = baxterize.YbSpec(family, kind, *_yb_draw(rng, family))
            reqs.append(self._structured(rng, f"yb {family}{kind}", baxterize.build_yb(spec),
                                         baxterize.yb_nonlocal_closed(spec)))
        for name, (g, point) in ref.CLASS_POINTS.items():
            reqs.append(self._structured(rng, f"class {name}", g, point))
        n_structured = len(reqs)
        for _ in range(n_structured):
            reqs.append(Request("haar", ref.haar_unitary(rng, 4), expect={"cnots": 3}))
        if shuffle:
            rng.shuffle(reqs)
        return reqs

    def _structured(self, rng, kind, g, point):
        return Request(kind, ref.wrap_local(rng, g), expect={"cnots": ref.min_cnots(point)})

    def call(self, req):
        return synth.synth_general(req.payload)

    def check(self, req, circuit):
        ops = [(op.kind, op.qubits, op.angle) for op in circuit.ops]
        self.op_counts.append(len(ops))
        res = ref.phase_free_distance(ref.circuit_unitary(ops, circuit.phase), req.payload)
        if not res <= CIRCUIT_TOL:
            return ("mismatch", f"circuit residual {res:.2e} > {CIRCUIT_TOL:g}")
        cnots = sum(1 for kind, _, _ in ops if kind == "CNOT")
        if cnots != req.expect["cnots"]:
            return ("mismatch", f"{cnots} CNOTs, minimum is {req.expect['cnots']}")
        return None


def _angle_text(rng) -> tuple:
    """A pi-expression angle as users type it, with its value."""
    k = int(rng.integers(-8, 9))
    return f"{k}*pi/8", k * PI / 8


class AnalyzeMix:
    """In-process `ybgates analyze -` with default flags on a seeded spec mix.

    A cycle holds one braid spec per family, one yb spec per family and
    kind, the four named gates and two raw matrices. The last phase of
    braid and yb specs is written as a pi-expression.
    """

    name = "analyze_mix"

    def cycle(self, rng, shuffle: bool = True) -> list:
        reqs = []
        for family, n in BRAID_PHASES.items():
            phases = [float(p) for p in rng.uniform(0, 2 * PI, n - 1)]
            text, value = _angle_text(rng)
            spec = braid.BraidSpec(family, phases + [value])
            body = {"braid": {"family": family, "phi": phases + [text]}}
            reqs.append(self._request(f"braid {family}", body,
                                      braid.braid_nonlocal_closed(spec),
                                      braid.braid_ep_closed(spec), "braid"))
        for family, kind in YB_KINDS:
            spectral, phases = _yb_draw(rng, family)
            text, value = _angle_text(rng)
            spec = baxterize.YbSpec(family, kind, spectral, phases[:-1] + [value])
            body = {"family": family, "kind": kind, "phi": phases[:-1] + [text]}
            body["chi" if family == "IV" else "mu"] = spectral
            reqs.append(self._request(f"yb {family}{kind}", {"yb": body},
                                      baxterize.yb_nonlocal_closed(spec),
                                      baxterize.yb_ep(spec), "ybe"))
        for name in ("cnot", "swap", "iswap", "identity"):
            point = ref.CLASS_POINTS[name][1]
            reqs.append(self._request(f"named {name}", {"named": name}, point,
                                      ref.ep_from_point(point), None))
        for _ in range(2):
            point = ref.chamber_point(rng)
            u = ref.wrap_local(rng, ref.core(point))
            rows = [[[float(z.real), float(z.imag)] for z in row] for row in u]
            reqs.append(self._request("matrix", {"matrix": rows}, point,
                                      ref.ep_from_point(point), None))
        if shuffle:
            rng.shuffle(reqs)
        return reqs

    def _request(self, kind, body, point, ep, relation):
        expect = {"point": [float(x) for x in point], "ep": float(ep), "relation": relation}
        return Request(kind, json.dumps(body), expect=expect)

    def call(self, req):
        return run_cli(["analyze", "-"], req.payload)

    def check(self, req, out):
        rc, stdout, stderr = out
        problem = _exit_problem(rc, stderr)
        if problem:
            return problem
        report = json.loads(stdout)
        want = req.expect
        d = ref.point_distance(report["nonlocal"], want["point"])
        if not d <= POINT_TOL:
            return ("mismatch", f"nonlocal {report['nonlocal']} vs {want['point']}")
        if not abs(report["entangling_power"] - want["ep"]) <= POINT_TOL:
            return ("mismatch", f"entangling_power {report['entangling_power']} vs {want['ep']}")
        tol = ref.mc_tolerance(want["ep"], MC_SAMPLES)
        if not abs(report["entangling_power_mc"] - want["ep"]) <= tol:
            return ("mismatch", f"entangling_power_mc {report['entangling_power_mc']} "
                                f"vs {want['ep']} beyond 5 sigma ({tol:.2e})")
        if report["min_cnot_count"] != ref.min_cnots(want["point"]):
            return ("mismatch", f"min_cnot_count {report['min_cnot_count']}")
        if want["relation"] == "braid" and not report["residuals"]["braid"] <= BRAID_TOL:
            return ("mismatch", f"braid residual {report['residuals']['braid']:.2e}")
        if want["relation"] == "ybe" and not report["residuals"]["ybe"] <= YBE_TOL:
            return ("mismatch", f"ybe residual {report['residuals']['ybe']:.2e}")
        return None


class SweepGrid:
    """In-process `ybgates sweep` over plot-slice grids.

    A cycle crosses every family and kind with four grid shapes. Grids are
    written as users write them: phi over lin:-pi:pi with a step of pi/8,
    pi/10, pi/12 or pi/16, and a symmetric mu range with an odd count, so
    both include 0. Singular points are not avoided.
    """

    name = "sweep_grid"
    SHAPES = ((17, 9), (21, 13), (25, 17), (33, 11))
    MU_RANGES = (1.0, 1.5, 2.0, 2.5, 3.0)
    SAMPLED_ROWS = 3

    def __init__(self):
        self.reference_undefined = 0

    def cycle(self, rng, shuffle: bool = True) -> list:
        reqs = []
        for family, kind in YB_KINDS:
            for n_phi, n_mu in self.SHAPES:
                m = float(rng.choice(self.MU_RANGES))
                argv = ["sweep", "--family", family, "--kind", str(kind),
                        "--phi-grid", f"lin:-pi:pi:{n_phi}", "--mu-grid", f"lin:-{m:g}:{m:g}:{n_mu}"]
                rows = sorted(int(r) for r in rng.choice(n_phi * n_mu, self.SAMPLED_ROWS, replace=False))
                expect = {"family": family, "kind": kind, "phis": np.linspace(-PI, PI, n_phi),
                          "mus": np.linspace(-m, m, n_mu), "rows": rows}
                reqs.append(Request(f"sweep {family}{kind}", argv, n_phi * n_mu, expect))
        if shuffle:
            rng.shuffle(reqs)
        return reqs

    def call(self, req):
        return run_cli(req.payload)

    def spec_of(self, family, kind, phi, mu):
        """The one-parameter slice `sweep` documents for each family."""
        if family in ("I", "II"):
            phases = (0.0, phi, phi)
        elif family == "III":
            phases = (phi, 0.0)
        else:
            phases = (phi,)
        return baxterize.YbSpec(family, kind, mu, phases)

    def check(self, req, out):
        rc, stdout, stderr = out
        problem = _exit_problem(rc, stderr)
        if problem and "singular parameters" in problem[1]:
            return (problem[0], problem[1] + " (known: sweep has no singular-point policy)")
        if problem:
            return problem
        lines = stdout.splitlines()
        want = req.expect
        if lines[0] != "family,kind,phi,mu,a1,a2,a3,ep" or len(lines) != 1 + req.items:
            return ("mismatch", f"CSV has header {lines[0]!r} and {len(lines) - 1} rows")
        n_mu = len(want["mus"])
        for r in want["rows"]:
            fields = lines[1 + r].split(",")
            family, kind = fields[0], int(fields[1])
            phi, mu, a1, a2, a3, ep = (float(v) for v in fields[2:])
            grid = (want["phis"][r // n_mu], want["mus"][r % n_mu])
            if (family, kind) != (want["family"], want["kind"]) or \
                    max(abs(phi - grid[0]), abs(mu - grid[1])) > 1e-12:
                return ("mismatch", f"row {r} is {fields[:4]}, expected grid point {grid}")
            try:
                g = baxterize.build_yb(self.spec_of(family, kind, phi, mu))
            except ValueError:
                # the gate itself is singular here; the row has no reference
                self.reference_undefined += 1
                continue
            point = weyl.extract_nonlocal(g)
            if not ref.point_distance((a1, a2, a3), point) <= POINT_TOL:
                return ("mismatch", f"row {r}: point {(a1, a2, a3)} vs {list(point)}")
            if not abs(ep - weyl.entangling_power(g)) <= POINT_TOL:
                return ("mismatch", f"row {r}: ep {ep} vs {weyl.entangling_power(g)}")
        return None


WORKLOADS = {w.name: w for w in (SynthStream, AnalyzeMix, SweepGrid)}
