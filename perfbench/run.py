"""Closed-loop benchmark of infodist: one caller, one process, each op
starting when the previous one ends.

    python3 perfbench/run.py --workload small-random --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Inputs come from ``--seed``.  Ops run in whole passes (see workloads.py);
a run makes ``round(--seconds / pass_seconds)`` of them, at least one, where
``pass_seconds`` is the workload's op time per pass on the reference
machine.  So the same seed and ``--seconds`` always attempt the same ops,
and the ops that fail (raise an ``InfoDistError``) are the same on every
run, however fast the machine is at the time.  Every op's answers are
checked as soon as its timing stops.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, with the metric
names and units that BENCHMARK.json declares.

Op times are scaled to a reference machine speed.  The workload's speed
probe (speed.py) runs before the first op and then, outside the ops' timed
intervals, after each op whose check ends PROBE_EVERY seconds or more after
the previous probe, and after the last op.  Each op time is multiplied by
the probe's reference time over the mean of the two probes around it.
probe_check.py shows that the probe does not depend on the op before it.
BLAS runs on one thread: with two, the Markov products waited on the
other core and stopped following their probe.  The unscaled
figures are printed above the JSON line as ``unscaled {...}`` and reported
by the traced run as ``wall.*``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over three fresh interpreters of launch to ready
  for the first timed op (imports, input generation, one small untimed
  warm-up op), scaled by the scalar probe;
- ``ops_per_s``: successful ops over measured op time (failed ops count in
  the time, not in the count);
- ``op_p50_ms``: median successful op time;
- ``peak_rss_mb``: peak resident set of the measuring process.

The tail (the highest percentile with at least ten samples beyond it) and
the failure fraction are printed above the JSON line, with every failure's
op, error class and message; ``failed`` in the JSON line counts the ops
that raised an ``InfoDistError``.

``--trace 1`` runs every pass twice, untraced then traced, and reports the
per-layer metrics of layers.py, ``trace_overhead_frac`` (one minus the
ratio of traced to untraced ops per second), ``failed_frac`` and the
unscaled ``wall.*`` figures of the untraced passes.  The spans are written
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
PROBE_EVERY = 0.25  # seconds; the machine's speed swings over seconds
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Timing:
    seconds: float  # wall time of the op
    ok: bool
    traced: bool
    op_id: int | None = None
    scale: float = 1.0  # reference over local probe time, set after the op

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def monotonic() -> float:
    """System-wide clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def single_thread_blas() -> int:
    """Run BLAS on one thread, before numpy loads; returns the usable cores."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def machine(nproc: int, probe_ms: float) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "probe_ms_median": probe_ms,
    }


def measure_setup(args) -> tuple[float, float]:
    """Median launch-to-ready time of fresh interpreters, (scaled, raw).

    Each interpreter probes the machine's speed once numpy is loaded and
    again when ready; its time is scaled by the mean of the two.
    """
    from speed import REFERENCE_MS

    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up process exited with {done.returncode}")
        ready, first, last = (float(x) for x in done.stdout.split()[-3:])
        raw.append(ready - start)
        scaled.append(raw[-1] * REFERENCE_MS["scalar"] / 1e3 / ((first + last) / 2))
    return statistics.median(scaled), statistics.median(raw)


def setup_only(args) -> None:
    """Set up as a measured run does, bracketed by two speed probes."""
    from speed import Probe

    probe = Probe("scalar")
    probe()  # the first call pays for numpy's own lazy set-up
    first = probe()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).warmup()
    last = probe()
    print(monotonic(), first, last)


def tail(durations: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples above it, or None when there are too few samples to have one
    above the median."""
    n = len(durations)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(durations)[n - TAIL_BEYOND - 1]


def check(op, out) -> list[str]:
    """Problems with one op's answers, each prefixed by the op's label."""
    from infodist.errors import InfoDistError

    try:
        found = op.check(out)
    except InfoDistError as exc:  # a check's own solve failed: unverified
        found = [f"check raised {type(exc).__name__}: {exc}"]
    return [f"{op.label}: {p}" for p in found]


def run_passes(source, passes: int, tracer, traced_modes, probe, failures: list, problems: list):
    """Run ``passes`` whole passes.

    Each op's answers are checked as soon as its timing stops and then
    dropped, so memory does not grow with the ops completed; probes run
    as the module docstring says.  Returns
    the timing of every op and the number of spans the first traced pass
    recorded.  Ops that raise an ``InfoDistError`` are appended to
    ``failures`` and never retried; wrong answers go to ``problems``.
    """
    from infodist.errors import InfoDistError

    clock = time.perf_counter
    timings: list[Timing] = []
    unscaled: list[Timing] = []  # ops since the last probe
    before = probe()
    last_probe = clock()
    first_pass_spans = None
    for index in range(passes):
        ops = source.make_pass(index)
        for traced in traced_modes:
            for op in ops:
                tracer.active = traced
                span = tracer.begin_op(op.label) if traced else None
                began = clock()
                try:
                    out = op.run()
                    ok = True
                except InfoDistError as exc:
                    failures.append((op.label, type(exc).__name__, str(exc)))
                    ok = False
                took = clock() - began
                if traced:
                    tracer.close(span, error=None if ok else failures[-1][1])
                tracer.active = False
                op_id = tracer.spans[span].op_id if traced else None
                timings.append(Timing(took, ok, traced, op_id))
                unscaled.append(timings[-1])
                if ok:
                    problems += check(op, out)
                    del out
                if clock() - last_probe >= PROBE_EVERY:
                    after = probe()
                    for timing in unscaled:
                        timing.scale = probe.reference / ((before + after) / 2)
                    unscaled.clear()
                    before, last_probe = after, clock()
        if first_pass_spans is None:
            first_pass_spans = len(tracer.spans)
    after = probe()
    for timing in unscaled:
        timing.scale = probe.reference / ((before + after) / 2)
    return timings, first_pass_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "infodist" / "__init__.py").is_file():
        print(f"no infodist sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        setup_only(args)
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    import resource

    from layers import COUNT_METRICS, SELF_TIME_METRICS, instrument, layer_metrics
    from spans import Tracer
    from speed import Probe

    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    setup_s, setup_raw = measure_setup(args)
    probe = Probe(WORKLOADS[args.workload].probe)
    failures: list[tuple[str, str, str]] = []
    problems: list[str] = []
    source = WORKLOADS[args.workload](args.seed)
    source.warmup()
    tracer = Tracer()
    modes = (False, True) if args.trace else (False,)
    if args.trace:
        instrument(tracer)
    passes = max(1, round(args.seconds / source.pass_seconds))
    timings, first_pass_spans = run_passes(source, passes, tracer, modes, probe, failures, problems)
    tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = len(timings), len(failures)
    plain = [t for t in timings if not t.traced]
    plain_ok = [t for t in plain if t.ok]

    def throughput(group, scaled=True):
        return sum(t.ok for t in group) / sum(t.scaled if scaled else t.seconds for t in group)

    unscaled = {
        "setup_s": setup_raw,
        "ops_per_s": throughput(plain, False),
        "op_p50_ms": 1e3 * statistics.median(t.seconds for t in plain_ok),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine(nproc, 1e3 * statistics.median(probe.samples))))
    print(f"passes {passes}, ops attempted {attempted}, failed {failed}, failed_frac {failed / attempted}")
    for label, cls, message in failures:
        print(f"  failure: {label}: {cls}: {message}")
    for problem in problems:
        print(f"  WRONG: {problem}")
    print("unscaled " + json.dumps(unscaled))

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer.spans, {t.op_id: t.scale for t in timings if t.traced})
        # Counts over the first pass, which every run completes, repeat exactly.
        first = layer_metrics(tracer.spans[:first_pass_spans])
        values.update({name: first[name] for name in COUNT_METRICS})
        values["trace_overhead_frac"] = 1.0 - throughput([t for t in timings if t.traced]) / throughput(plain)
        values["failed_frac"] = failed / attempted
        values.update({f"wall.{name}": value for name, value in unscaled.items()})
        layer_sum = sum(values[m] for m in SELF_TIME_METRICS.values())
        print(f"per-layer self times sum to {layer_sum} ms/op; traced op time {values['traced_op_ms']} ms/op")
        if abs(layer_sum - values["traced_op_ms"]) > 1e-6 * values["traced_op_ms"]:
            problems.append("per-layer self times do not add up to the traced op time")
    else:
        tail_ms = tail([t.scaled for t in plain_ok])
        if tail_ms:
            print(f"op_tail_ms p{tail_ms[0]:.1f} of {len(plain_ok)} ops: {1e3 * tail_ms[1]} ms")
        else:
            print(f"op_tail_ms: not reported, {len(plain_ok)} ops < {2 * TAIL_BEYOND}")
        values = {
            "setup_s": setup_s,
            "ops_per_s": throughput(plain),
            "op_p50_ms": 1e3 * statistics.median(t.scaled for t in plain_ok),
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
