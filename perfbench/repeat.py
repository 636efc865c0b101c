#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload lie_laws --seeds 1 2 3 4 5 \
        --seconds 30 [--trace 1] [--out summary.json]

For every metric it prints the median of the per-run values, their first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median.  Run it from the root of a checkout.  Counts
of traced runs must repeat exactly between runs of one seed; this prints
the counts that do not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        result = one_run(args.workload, seed, args.seconds, args.trace)
        results.append((seed, result))
        print(f"seed {seed}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']}", flush=True)

    names = list(results[0][1]["metrics"])
    summary = {"workload": args.workload, "seeds": args.seeds,
               "seconds": args.seconds, "trace": args.trace,
               "correct": all(r["correct"] for _, r in results),
               "attempted": sum(r["attempted"] for _, r in results),
               "failed": sum(r["failed"] for _, r in results),
               "metrics": {}}
    for name in names:
        values = [r["metrics"][name]["value"] for _, r in results]
        stats = summarise(values)
        stats["unit"] = results[0][1]["metrics"][name]["unit"]
        stats["values"] = values
        summary["metrics"][name] = stats
        print(f"{name:<26} median {stats['median']:14.6f} {stats['unit']:<5} "
              f"q1 {stats['q1']:14.6f} q3 {stats['q3']:14.6f} "
              f"spread {stats['spread']:.4f}")

    by_seed: dict[int, list[dict]] = {}
    for seed, result in results:
        by_seed.setdefault(seed, []).append(result["metrics"])
    for seed, runs in by_seed.items():
        for name in names:
            if runs[0][name]["unit"] == "count" and \
                    any(run[name]["value"] != runs[0][name]["value"] for run in runs):
                print(f"count {name} differs between runs of seed {seed}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
