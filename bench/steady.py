"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/steady.py --workload NAME [--seeds 1-10] [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints, per
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
interquartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json.  Also prints each run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        wall = time.perf_counter() - t0
        print(f"seed {seed}: wall {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        bound = bounds.get(name)
        print(f"{name:<42} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{(q3 - q1) / med if med else 0:>8.4f} {bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
