"""Check that the speed probes follow the machine, not the op before them.

    python3 perfbench/probe_check.py

run.py scales each workload's op times by that workload's probe (speed.py),
timed between ops.  That is sound only if the probe's time does not depend
on what the op left behind (caches, allocator state, CPU load).  This
script runs, in one process and round robin:

1. an op of each workload, its probe straight after the op, and the same
   probe again after a 50 ms idle gap.  If a probe depended on the op, its
   median straight after the op would differ from its median after the gap;
2. each small-random op plain, then slowed on purpose: run twice, or
   followed by filling a 64 MB array.  Both are timed with the ``lp`` probe
   on either side.  The raw and the scaled slowdown (slowed over plain time
   of the same op, median over ops) should agree.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILL_DOUBLES = 8_000_000  # 64 MB
SECONDS = 60.0  # for each of the two parts


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import single_thread_blas

    single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from infodist.errors import InfoDistError

    from speed import Probe
    from workloads import WORKLOADS

    sources = {name: WORKLOADS[name](1) for name in WORKLOADS}
    probes = {name: Probe(source.probe) for name, source in sources.items()}
    for source in sources.values():
        source.warmup()
    passes = {name: source.make_pass(0) for name, source in sources.items()}
    after = {name: [] for name in sources}
    idle = {name: [] for name in sources}
    deadline = time.perf_counter() + SECONDS
    i = 0
    while time.perf_counter() < deadline:
        for name, probe in probes.items():
            try:
                passes[name][i % len(passes[name])].run()
            except InfoDistError:  # a failed op still leaves its state behind
                pass
            after[name].append(probe())
            time.sleep(0.05)
            idle[name].append(probe())
        i += 1
    print("probe median (ms) straight after the op / after a 50 ms idle gap:")
    for name, source in sources.items():
        print(
            f"  {name:14s} {source.probe:7s} {1e3 * statistics.median(after[name]):.4f} / "
            f"{1e3 * statistics.median(idle[name]):.4f}  ({len(after[name])} ops)"
        )

    probe = probes["small-random"]

    def fill():
        np.full(FILL_DOUBLES, 1.0).sum()

    slowdowns = {
        "run twice": lambda op: (op.run(), op.run()),
        "then 64 MB fill": lambda op: (op.run(), fill()),
    }
    raw = {kind: [] for kind in slowdowns}
    scaled = {kind: [] for kind in slowdowns}

    def timed(call):
        before = probe()
        began = time.perf_counter()
        call()
        took = time.perf_counter() - began
        return took, took * probe.reference / ((before + probe()) / 2)

    deadline = time.perf_counter() + SECONDS
    index = 0
    while time.perf_counter() < deadline:
        for op in sources["small-random"].make_pass(index):
            for kind, slowed in slowdowns.items():
                plain_raw, plain_scaled = timed(op.run)
                slow_raw, slow_scaled = timed(lambda: slowed(op))
                raw[kind].append(slow_raw / plain_raw)
                scaled[kind].append(slow_scaled / plain_scaled)
        index += 1
    print("slowdown of small-random ops, median of slowed over plain:")
    for kind in slowdowns:
        print(
            f"  {kind:16s} raw {statistics.median(raw[kind]):.4f}  "
            f"scaled {statistics.median(scaled[kind]):.4f}  ({len(raw[kind])} ops)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
