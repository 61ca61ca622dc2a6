#!/usr/bin/env python3
"""Streaming fraud monitoring over the live update API.

The paper closes by naming dynamic graphs as future work; this example
exercises the repository's streaming stack end to end in the paper's
own anomaly-detection setting: a :class:`repro.serve.AsyncPMBCServer` hosts
a user-product graph, transactions arrive as ``POST /update`` batches
through :class:`repro.serve.PMBCClient`, each batch is applied by the
incremental core-bound maintenance (no rebuild), and a watch rule
re-queries the flagged seed account after every batch — raising an
alert the moment the seed's group crosses a size threshold.

Run:  python examples/streaming_monitor.py
"""

from __future__ import annotations

import random

from repro import Side, from_edges
from repro.serve import AsyncPMBCServer, PMBCClient, PMBCService

ALERT_GROUP = 4  # alert when >= 4 coordinated accounts ...
ALERT_ITEMS = 3  # ... push >= 3 common products
BATCH = 2  # transactions per /update call (the freshness SLA)


def bootstrap_graph(seed: int = 17):
    """Organic history: users each touch a few products."""
    rng = random.Random(seed)
    users = [f"user{i:02d}" for i in range(40)]
    products = [f"prod{i:02d}" for i in range(25)]
    edges = []
    for user in users:
        for product in rng.sample(products, rng.randint(1, 3)):
            edges.append((user, product))
    # The seed account exists but looks harmless so far.
    edges.append(("seed_account", products[0]))
    return from_edges(edges)


def ring_transactions(seed: int = 23):
    """A fraud ring assembling around the seed account, one edge at a time."""
    rng = random.Random(seed)
    ring_users = ["seed_account", "mule_a", "mule_b", "mule_c"]
    ring_products = ["prod03", "prod11", "prod17"]
    stream = [(u, p) for u in ring_users for p in ring_products]
    rng.shuffle(stream)
    return stream


def main() -> None:
    graph = bootstrap_graph()
    print(f"bootstrap graph: {graph}")
    seed_id = graph.vertex_by_label(Side.UPPER, "seed_account")

    # Label bookkeeping: updates are id-based, and new accounts get
    # fresh upper ids past the bootstrap range.
    labels = list(graph.labels(Side.UPPER))
    product_ids = {
        graph.label(Side.LOWER, v): v for v in range(graph.num_lower)
    }

    def ensure_user(label):
        if label in labels:
            return labels.index(label)
        labels.append(label)
        return len(labels) - 1

    server = AsyncPMBCServer(PMBCService(graph).start(), port=0).start()
    client = PMBCClient(server.url)
    try:
        print(
            f"serving at {server.url}; streaming transactions in "
            f"batches of {BATCH} (alert at >= {ALERT_GROUP} accounts "
            f"x {ALERT_ITEMS} products around seed_account):\n"
        )
        stream = ring_transactions()
        alerted = False
        for start in range(0, len(stream), BATCH):
            batch = stream[start : start + BATCH]
            updates = [
                ("insert", ensure_user(user), product_ids[product])
                for user, product in batch
            ]
            ack = client.update(updates)
            group = client.query(
                "upper", seed_id, tau_u=ALERT_GROUP, tau_l=ALERT_ITEMS
            )["result"]
            status = "-"
            if group is not None:
                members = sorted(labels[int(u)] for u in group["upper"])
                status = f"ALERT: {members} on {len(group['lower'])} products"
            arrivals = ", ".join(f"+({u}, {p})" for u, p in batch)
            print(
                f"  t={start + len(batch):02d}  {arrivals}  "
                f"[applied {ack['applied']}, trees {ack['trees_repaired']}]"
                f"  {status}"
            )
            if group is not None:
                print("\nring confirmed — froze accounts, case sent to review.")
                alerted = True
                break
        if not alerted:
            print("\nstream ended without an alert (unexpected)")
    finally:
        server.shutdown()


if __name__ == "__main__":
    main()
