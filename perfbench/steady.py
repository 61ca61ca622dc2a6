"""Steadiness check: run a workload on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload http_zipf --seeds 1 2 3 4 5 --seconds 20
    python3 perfbench/steady.py --workload ol_topdeg --seeds 7 7 --trace 1

For each metric it prints the median and the quartile spread
``(q3 - q1) / median`` of the values, next to the metric's bound from
``metrics.py``; a spread above a third of the bound is flagged.  With
``--trace 1`` and a repeated seed, it also checks that the workload's
exact-count metrics repeat exactly across those runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a fresh process; returns its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(HERE.parent), timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values) -> float:
    """Quartile spread as a share of the median (0 for a constant sample)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from metrics import BOUNDS, EXACT_COUNTS

    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                 if args.trace == 0 or k in EXACT_COUNTS[args.workload]}
        print(f"seed {seed}: correct={result['correct']} {shown}", flush=True)
    unsteady = 0
    if args.trace == 0 and len(results) >= 2:
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            bound = BOUNDS.get(name)
            share = spread(values)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  <-- above bound/3"
                unsteady += 1
            print(f"{name:16s} median {statistics.median(values):12.4f}  "
                  f"spread {share:7.2%}  bound {bound}{flag}")
    if args.trace == 1:
        by_seed: dict[int, list] = {}
        for seed, result in zip(args.seeds, results):
            counts = tuple(
                result["metrics"][name]["value"] for name in EXACT_COUNTS[args.workload]
            )
            by_seed.setdefault(seed, []).append(counts)
        for seed, runs in by_seed.items():
            same = all(r == runs[0] for r in runs)
            unsteady += not same
            print(f"seed {seed}: exact counts {'repeat' if same else 'DIFFER'} "
                  f"over {len(runs)} runs: {runs[0]}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
