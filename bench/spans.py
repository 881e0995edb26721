"""Span tracing of the program's public functions, from outside the program.

Each traced function is replaced, wherever a `ybgates` module binds it
(matched by identity), by a wrapper that records a span: name, start,
end, parent span, request id and whether an exception escaped. Spans stay
in memory while the run lasts and are written out when it ends. A
layer's self time is its span's duration minus the durations of its
direct child spans.

The program has no queue, lock or other place where work waits, so no
wait time is measured.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs of the program's public layer boundaries.
FUNCTIONS = (
    ("linalg", "kron"), ("linalg", "sym_unitary_eig"),
    ("linalg", "phase_distance"), ("linalg", "unitarity_residual"),
    ("weyl", "kak_decompose"), ("weyl", "extract_nonlocal"), ("weyl", "canonicalize"),
    ("weyl", "core_gate"), ("weyl", "entangling_power"), ("weyl", "entangling_power_mc"),
    ("braid", "build_braid"), ("braid", "braid_residual"),
    ("baxterize", "build_yb"), ("baxterize", "ybe_residual"),
    ("baxterize", "yb_nonlocal_closed"), ("baxterize", "yb_ep"),
    ("classify", "classify_gate"),
    ("synth", "synth_general"), ("synth", "evaluate"), ("synth", "verify_circuit"),
    ("cli", "main"), ("cli", "load_spec"), ("cli", "build_report"), ("cli", "cmd_sweep"),
)
METHODS = (("synth", "GateOp", "matrix"),)
LABELS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(f"{m}.{c}.{f}" for m, c, f in METHODS)
EIGH_LABEL = "linalg.sym_unitary_eig"
COLUMNS = ("span", "name", "start_ns", "end_ns", "parent", "request", "error")


class Tracer:
    """Records spans while `request` is set; install() wraps, remove() restores.

    Spans are numbered in the order they open and stored flat, seven int64
    values each (see COLUMNS), in the order they close.
    """

    def __init__(self):
        self.request = None
        self.spans = array("q")
        self.open: list = []  # (span id, name index) of the spans still running
        self.eigh_attempts = 0
        self._ids = itertools.count()
        self._undo: list = []

    def _wrap(self, index: int, fn):
        spans, open_spans, ids, clock = self.spans, self.open, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = self.request
            if request is None:
                return fn(*args, **kwargs)
            span = next(ids)
            parent = open_spans[-1][0] if open_spans else -1
            open_spans.append((span, index))
            error = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = 0
                return result
            finally:
                end = clock()
                open_spans.pop()
                spans.extend((span, index, start, end, parent, request, error))

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed function in every loaded ybgates module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ybgates" or n.startswith("ybgates."))]
        for index, (mod, name) in enumerate(FUNCTIONS):
            original = getattr(sys.modules[f"ybgates.{mod}"], name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for offset, (mod, cls_name, name) in enumerate(METHODS):
            cls = getattr(sys.modules[f"ybgates.{mod}"], cls_name)
            self._replace(cls, name, self._wrap(len(FUNCTIONS) + offset, cls.__dict__[name]))
        self._wrap_eigh()

    def _wrap_eigh(self) -> None:
        """Count numpy.linalg.eigh calls made directly by sym_unitary_eig."""
        eigh = np.linalg.eigh
        target = LABELS.index(EIGH_LABEL)

        @functools.wraps(eigh)
        def counted(*args, **kwargs):
            if self.request is not None and self.open and self.open[-1][1] == target:
                self.eigh_attempts += 1
            return eigh(*args, **kwargs)

        self._replace(np.linalg, "eigh", counted)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def table(self) -> np.ndarray:
        """The spans as an (n, 7) int64 array with the columns COLUMNS."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(COLUMNS))

    def summary(self) -> dict:
        """Per label: calls, self time in ms and escaped exceptions."""
        t = self.table()
        span, name, parent, error = t[:, 0], t[:, 1], t[:, 4], t[:, 6]
        dur = (t[:, 3] - t[:, 2]).astype(float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(t))
        n = len(LABELS)
        calls = np.bincount(name, minlength=n)
        self_ns = np.bincount(name, weights=dur - children[span], minlength=n)
        errors = np.bincount(name, weights=error, minlength=n)
        return {label: {"calls": int(calls[i]), "self_ms": float(self_ns[i]) / 1e6,
                        "errors": int(errors[i])} for i, label in enumerate(LABELS)}

    def write(self, path) -> None:
        """Save the spans with their column and span names as an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), names=np.array(LABELS), columns=np.array(COLUMNS))
