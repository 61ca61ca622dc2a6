"""The repository benchmark: one command, three workloads, every layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ol_topdeg --seed 1 --seconds 20 --trace 0

Workloads: ``ol_topdeg`` (library-direct PMBC-OL* on top-degree
queries), ``http_zipf`` (open-loop HTTP Zipf stream) and
``update_churn`` (closed-loop edge updates interleaved with queries
over HTTP).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs the workload untraced and then traced, and reports
the per-layer metrics, the tracing overhead and ``trace.coverage``.
Every answer is checked against a reference computed outside the timed
windows.  Human-readable tables go to stdout first; the last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero on any wrong answer or failed
request.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("ol_topdeg", "http_zipf", "update_churn")


def _load(workload: str):
    if workload == "ol_topdeg":
        import ol_topdeg as module
    elif workload == "http_zipf":
        import http_zipf as module
    else:
        import update_churn as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, zero_layers
    from speed import pin_to_one_cpu
    from stats import table
    from tracing import render_waterfall

    # One CPU for the run and every server it starts, so the host-speed
    # probe measures the CPU the timed work ran on (see speed.py).
    pin_to_one_cpu()

    result = _load(args.workload).run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        layers = zero_layers()
        layers.update(result["layers"])
        render_waterfall(result["waterfall"], sys.stdout)
        table("per-layer metrics (traced run; exact counts marked *)", [
            (name + (" *" if name in EXACT_COUNTS[args.workload] else ""),
             float(layers[name]), PER_LAYER[name][0])
            for name in PER_LAYER
        ])
        metrics = {
            name: {"value": float(layers[name]), "unit": unit}
            for name, (unit, __) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, (unit, __) in END_TO_END.items()
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
