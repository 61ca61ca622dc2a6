"""The serving process of the HTTP workloads.

Starts an :class:`~repro.serve.aserver.AsyncPMBCServer` over one
unsharded :class:`~repro.serve.service.PMBCService` with the adaptive
tier on (``--adaptive 0`` turns it off) and otherwise the ``pmbc
serve`` defaults, on a free localhost
port, and prints ``READY <port>``.  It then serves until a ``quit`` line
(or end of input) arrives on stdin, shuts down, checks its final state
and prints one JSON report line: peak RSS, whether the maintained
(α,β)-core bounds equal ``compute_bounds`` of the final graph, a digest
of the final edge set, and with ``--trace 1`` every recorded span.

Run by the workloads, not by hand::

    python3 perfbench/serverproc.py --dataset Amazon --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--adaptive", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import SEARCH_TARGETS, SERVER_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(SERVER_TARGETS + SEARCH_TARGETS)

    from checks import bounds_match, edge_digest
    from repro.datasets.zoo import load_dataset
    from repro.serve.aserver import AsyncPMBCServer
    from repro.serve.service import PMBCService, ServiceConfig
    from stats import peak_rss_mb

    graph = load_dataset(args.dataset)
    service = PMBCService(
        graph, config=ServiceConfig(adaptive=bool(args.adaptive))
    ).start()
    server = AsyncPMBCServer(service, port=0).start()
    print(f"READY {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "quit":
                break
    finally:
        server.shutdown()
    if tracer is not None:
        tracer.uninstall()
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "bounds_ok": bounds_match(service.engine.bounds, service.graph),
        "edge_digest": edge_digest(service.graph),
        "spans": tracer.spans if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
