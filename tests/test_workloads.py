"""One cycle of the benchmark's sweep workload passes the benchmark's own checks."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads(monkeypatch):
    # workloads.py imports its sibling reference.py as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_sweep_grid_cycle_fails_only_at_singular_points(monkeypatch):
    workload = _load_workloads(monkeypatch).SweepGrid()
    failures = []
    for req in workload.cycle(np.random.default_rng([1, 0])):
        problem = workload.check(req, workload.call(req))
        if problem is not None:
            failures.append((req.kind, *problem))
    # family III kinds 2 and 3 are singular at mu = 0 on phi = k pi and
    # phi = pi/2 + k pi, which every grid of the cycle contains
    assert len(failures) == 8
    for kind, what, message in failures:
        assert kind in ("sweep III2", "sweep III3"), (kind, message)
        assert what == "exit" and "singular parameters" in message, message
