"""Rerun the benchmark over several seeds and print each metric's spread.

    python3 bench/spread.py --workload pipeline --runs 10

Each run is a separate `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...), one at a time. For every metric it prints the median,
the first and third quartiles as `statistics.quantiles(values, n=4)` gives
them, and the spread (Q3 - Q1) / median, which is what the bounds in
BENCHMARK.json are set against. It also prints the share of failed checks,
which has to be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']} ({share:.6f}) "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    for key, first in results[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {key:40s} median {median:12.6g} {first['unit']:8s} "
              f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share: {sorted(shares)}  all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
