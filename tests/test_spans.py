"""The benchmark's span tracer names only functions that exist in ybgates."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    for mod, name in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"ybgates.{mod}"), name)), (mod, name)
    for mod, cls, name in spans.METHODS:
        owner = getattr(importlib.import_module(f"ybgates.{mod}"), cls)
        assert callable(owner.__dict__[name]), (mod, cls, name)
