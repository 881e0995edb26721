"""Run one benchmark workload on this checkout and print its metrics.

    python3 bench/run.py --workload synth_stream --seed 1 --seconds 15 --trace 0

One client sends requests in a closed loop: each request starts when the
previous one has returned, and every output is checked against its
reference between requests, outside the timed region. Whole cycles of
requests run until --seconds have passed.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same request
stream twice, untraced and then traced, for half the time each, and
reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import program

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_CAUSES = 20  # failure messages printed per loop, most frequent first
SPANS_DIR = program.ROOT / ".bench_out"


class Tally:
    """Outcomes of the requests of one measured loop.

    Request times are kept scaled to the reference machine speed: each
    cycle's times are multiplied by the speed.scale() measured around it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.items = 0
        self.busy_ns = 0.0  # scaled request time, failed requests included
        self.raw_busy_ns = 0
        self.latencies_ns: list = []  # scaled, completed requests only
        self.causes: Counter = Counter()
        self._cycle: list = []  # (elapsed ns, completed) of the current cycle

    def add(self, req, elapsed_ns: int, problem) -> None:
        self.attempted += 1
        self._cycle.append((elapsed_ns, problem is None))
        if problem is None:
            self.items += req.items
            return
        self.failed += 1
        self.mismatches += problem[0] == "mismatch"
        self.causes[(req.kind, problem[0], problem[1])] += 1

    def end_cycle(self, scale: float) -> None:
        for elapsed, completed in self._cycle:
            self.raw_busy_ns += elapsed
            self.busy_ns += elapsed * scale
            if completed:
                self.latencies_ns.append(elapsed * scale)
        self._cycle = []

    def ops_per_s(self) -> float:
        return self.items / (self.busy_ns / 1e9)

    def latency_ms(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.latencies_ns, q)) / 1e6


def measure(workload, seed: int, seconds: float, tracer=None) -> Tally:
    """Closed loop over whole cycles of the seeded request stream; at
    least one cycle runs."""
    import numpy as np

    import speed

    rng = np.random.default_rng([seed, 0])
    tally = Tally()
    clock = time.perf_counter_ns
    before = speed.scale()
    deadline = clock() + int(seconds * 1e9)
    while True:
        for req in workload.cycle(rng):
            if tracer is not None:
                tracer.request = tally.attempted
            start = clock()
            try:
                out = workload.call(req)
                problem = None
            except Exception as e:  # a request that raises is a failed request
                problem = ("exception", f"{type(e).__name__}: {e}")
            elapsed = clock() - start
            if tracer is not None:
                tracer.request = None
            if problem is None:
                try:
                    problem = workload.check(req, out)
                except Exception as e:  # unreadable output fails its check
                    problem = ("mismatch", f"check raised {type(e).__name__}: {e}")
            tally.add(req, elapsed, problem)
        after = speed.scale()
        tally.end_cycle((before + after) / 2)
        before = after
        if clock() >= deadline:
            return tally


def warm_up(workload, seed: int) -> None:
    """One untimed cycle from a separate stream, so lazy set-up is done."""
    import numpy as np

    for req in workload.cycle(np.random.default_rng([seed, 1])):
        try:
            workload.call(req)
        except Exception:  # failures are counted in the measured loop only
            pass


def setup_seconds(workload: str, seed: int) -> list:
    """(import, first request, speed scale) timed inside fresh interpreters."""
    times = []
    probe = Path(__file__).with_name("setup_probe.py")
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=program.ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        t = json.loads(proc.stdout.splitlines()[-1])
        times.append((t["import_s"], t["first_request_s"], t["scale"]))
    return times


def circuit_ops_mean(workload) -> float:
    counts = getattr(workload, "op_counts", [])
    return sum(counts) / len(counts) if counts else 0.0


def report_tally(name: str, tally: Tally) -> None:
    print(f"{name}: {tally.attempted} requests, {tally.failed} failed "
          f"(error_ratio {tally.failed / tally.attempted:.4f}), "
          f"{tally.mismatches} failed an output check, {tally.items} work items, "
          f"{len(tally.latencies_ns)} latency samples")
    print(f"  unscaled: {tally.items / (tally.raw_busy_ns / 1e9):.6g} items/s; "
          f"times scaled by {tally.busy_ns / tally.raw_busy_ns:.4f} on average")
    shown = tally.causes.most_common(MAX_CAUSES)
    for (kind, what, message), count in shown:
        print(f"  {count} x {kind}: {what}: {message}")
    if len(tally.causes) > len(shown):
        print(f"  ... and {len(tally.causes) - len(shown)} other failure messages")


def require_completed(tally: Tally) -> None:
    """Exit non-zero when no request completed: there is nothing to time."""
    if not tally.latencies_ns:
        sys.exit("error: no request completed")


def end_to_end(args) -> tuple:
    setup = setup_seconds(args.workload, args.seed)
    import ybgates

    program.check_origin(ybgates)
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    warm_up(wl, args.seed)
    tally = measure(wl, args.seed, args.seconds)
    report_tally("measured", tally)
    require_completed(tally)
    print(f"set-up runs, unscaled (import s, first request s, scale): "
          + ", ".join(f"({a:.4f}, {b:.4f}, {c:.3f})" for a, b, c in setup))
    if hasattr(wl, "op_counts"):
        print(f"circuit_ops_mean {circuit_ops_mean(wl):.4f} ops over {len(wl.op_counts)} circuits")
    if hasattr(wl, "reference_undefined"):
        print(f"sampled rows without a reference (gate singular there): {wl.reference_undefined}")
    metrics = {
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "latency_p50_ms": (tally.latency_ms(50), "ms"),
        "latency_p90_ms": (tally.latency_ms(90), "ms"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (statistics.median((a + b) * c for a, b, c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [tally], metrics


def per_layer(args) -> tuple:
    import ybgates

    program.check_origin(ybgates)
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    warm_up(wl, args.seed)
    plain = measure(wl, args.seed, args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure(wl, args.seed, args.seconds / 2, tracer)
    finally:
        tracer.remove()
    report_tally("untraced half", plain)
    report_tally("traced half", traced)
    require_completed(plain)
    require_completed(traced)
    path = SPANS_DIR / f"spans-{args.workload}.npz"
    tracer.write(path)
    print(f"{len(tracer.table())} spans written to {path.relative_to(program.ROOT)}")
    print("wait time: not measured, the program has no queue or lock")
    metrics = {}
    scale = traced.busy_ns / traced.raw_busy_ns
    for label, s in tracer.summary().items():
        metrics[f"{label}.calls"] = (s["calls"], "count")
        metrics[f"{label}.self_ms"] = (s["self_ms"] * scale, "ms")
        metrics[f"{label}.errors"] = (s["errors"], "count")
    metrics["linalg.sym_unitary_eig.eigh_attempts"] = (tracer.eigh_attempts, "count")
    metrics["synth.circuit_ops_mean"] = (circuit_ops_mean(wl), "ops")
    metrics["trace.requests"] = (traced.attempted, "count")
    metrics["trace.ops_per_s_untraced"] = (plain.ops_per_s(), "1/s")
    metrics["trace.ops_per_s_traced"] = (traced.ops_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (plain.ops_per_s() / traced.ops_per_s(), "ratio")
    return [plain, traced], metrics


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("synth_stream", "analyze_mix", "sweep_grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    program.prepare()
    tallies, metrics = per_layer(args) if args.trace else end_to_end(args)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(t.mismatches == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
