"""Measure a baseline: run.py on every workload over seeds 1 to 10.

    python3 perfbench/baseline.py -o perfbench/baseline.json

For each workload of BENCHMARK.json it runs the untraced benchmark once per
seed and reports each end-to-end metric's median and spread (the distance
between the first and third quartiles over the median), scaled as gated
and unscaled as printed by run.py, then makes one traced run at seed 0 for
the per-layer numbers.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = list(range(1, 11))
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: dict[str, list[float]]) -> dict[str, dict]:
    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median, "spread": (q3 - q1) / median}
        print(f"  {name}: median {median:.6g}, spread {summary[name]['spread']:.4f}")
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        failures: dict[int, list[str]] = {}
        failed = attempted = 0
        for seed in SEEDS:
            result, lines = run_once(workload, seed, seconds, 0)
            failures[seed] = [line.strip() for line in lines if line.startswith("  failure:")]
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong answers")
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            raw = json.loads(next(line for line in lines if line.startswith("unscaled "))[len("unscaled "):])
            for name, value in raw.items():
                unscaled.setdefault(name, []).append(value)
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        print(" scaled (gated):")
        summary = summarize(values)
        print(" unscaled:")
        summary_unscaled = summarize(unscaled)
        traced, lines = run_once(workload, TRACE_SEED, seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": summary,
            "end_to_end_unscaled": summary_unscaled,
            "failed_frac": failed / attempted,
            "failures": failures,
            "traced_seed": TRACE_SEED,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run": lines,
        }
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
