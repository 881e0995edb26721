"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs every workload for one cycle of requests, untraced and traced, and
checks that each metric BENCHMARK.json names is printed; then checks that
the output checks reject corrupted outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import program

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=program.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.fixture(scope="module")
def workloads():
    program.prepare()
    import workloads

    return workloads


def first_request(wl, kind: str, rng_seed: int = 5):
    import numpy as np

    return next(r for r in wl.cycle(np.random.default_rng(rng_seed)) if r.kind == kind)


def test_synth_check_rejects_a_dropped_op(workloads):
    wl = workloads.SynthStream()
    req = first_request(wl, "haar")
    circuit = wl.call(req)
    assert wl.check(req, circuit) is None
    for dropped in ("CNOT", "H"):
        i = next(k for k, op in enumerate(circuit.ops) if op.kind == dropped)
        corrupted = type(circuit)(circuit.ops[:i] + circuit.ops[i + 1:], circuit.phase)
        problem = wl.check(req, corrupted)
        assert problem is not None and problem[0] == "mismatch", dropped


def test_sweep_check_rejects_a_perturbed_a3(workloads):
    wl = workloads.SweepGrid()
    req = first_request(wl, "sweep I1")
    rc, stdout, stderr = wl.call(req)
    assert wl.check(req, (rc, stdout, stderr)) is None
    lines = stdout.splitlines()
    row = 1 + req.expect["rows"][0]
    fields = lines[row].split(",")
    fields[6] = repr(float(fields[6]) + 1e-6)
    lines[row] = ",".join(fields)
    problem = wl.check(req, (rc, "\n".join(lines) + "\n", stderr))
    assert problem is not None and problem[0] == "mismatch"
    assert wl.reference_undefined == 0
