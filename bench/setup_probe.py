"""Set-up probe, run in a fresh interpreter by run.py.

Times `import ybgates` (numpy and scipy included) and then the workload's
first request, and prints both, with the speed scale measured right after
them, as one JSON line.

    python3 bench/setup_probe.py --workload synth_stream --seed 1
"""

from __future__ import annotations

import argparse
import json
import time

import program


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    program.prepare()
    start = time.perf_counter()
    import ybgates

    imported = time.perf_counter()
    program.check_origin(ybgates)

    import numpy as np

    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    first = workload.cycle(np.random.default_rng([args.seed, 1]), shuffle=False)[0]
    begin = time.perf_counter()
    try:
        workload.call(first)
    except Exception:  # a failing first request still costs set-up time
        pass
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "first_request_s": done - begin,
                      "scale": speed.scale()}))


if __name__ == "__main__":
    main()
