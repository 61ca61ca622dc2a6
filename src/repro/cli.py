"""Command-line interface: ``pmbc``.

Subcommands:

- ``pmbc build <edges-file> -o index.json`` — build a PMBC-Index from a
  KONECT or plain edge-list file and save it;
- ``pmbc query <edges-file> --index index.json --side upper --vertex 3
  --tau-u 2 --tau-l 2`` — answer a personalized query (index-based when
  an index file is given, online otherwise); ``--batch-file`` answers
  many queries in one run with shared two-hop extraction, and
  ``--objective balanced`` maximizes the balanced (min-side) family
  instead of edge count (online path only);
- ``pmbc explain <edges-file> Q TAU_U TAU_L`` — answer one query under
  a search trace and print the human-readable report: two-hop subgraph
  size, progressive-bounding rounds, Branch&Bound nodes, and prune
  counts by rule (see docs/observability.md);
- ``pmbc stats <edges-file>`` — graph and index statistics;
- ``pmbc datasets`` — list the built-in dataset zoo;
- ``pmbc serve <edges-file> [--index index.bin]`` — run the HTTP
  query-serving front-end over one service (see :mod:`repro.serve`
  and docs/serving.md);
- ``pmbc update --url http://HOST:PORT insert:3:7 delete:1:2`` — apply
  a batch of streaming edge updates to a running server via ``POST
  /update`` (incremental bound repair instead of a rebuild; see
  docs/dynamic.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core import (
    PMBCIndex,
    QueryRequest,
    build_index,
    build_index_star,
    pmbc_index_query,
    pmbc_online_star,
)
from repro.core.serialize import IndexFormatError
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.io import read_edge_list, read_konect
from repro.kernel import KERNEL_KINDS
from repro.objectives import get_objective, objective_kinds


class _InputError(Exception):
    """A user-facing input failure: an unreadable edge list, index or
    batch file, or a bad query vertex, label, tau or dataset name
    (reported as ``error: …`` with exit 2, no traceback)."""


def _load_graph(path: str, konect: bool) -> BipartiteGraph:
    reader = read_konect if konect else read_edge_list
    try:
        return reader(path)
    except OSError as exc:
        raise _InputError(
            f"cannot read edge list {path!r}: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:
        raise _InputError(f"malformed edge list {path!r}: {exc}") from None


def _side(value: str) -> Side:
    try:
        return Side(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"side must be 'upper' or 'lower', got {value!r}"
        )


def _query_vertex(
    graph: BipartiteGraph, side: Side, args: argparse.Namespace
) -> int | None:
    """The query vertex ``--label`` or ``--vertex`` names (None when
    neither is given), checked against ``graph`` with the taus.

    A bad label, vertex or tau raises :class:`_InputError`.
    """
    vertex = args.vertex
    if args.label is not None:
        try:
            vertex = graph.vertex_by_label(side, args.label)
        except KeyError:
            raise _InputError(
                f"no {side.value} vertex has label {args.label!r}"
            ) from None
    if vertex is not None and not 0 <= vertex < graph.num_vertices_on(side):
        raise _InputError(
            f"vertex {vertex} out of range for the {side.value} layer "
            f"({graph.num_vertices_on(side)} vertices)"
        )
    if args.tau_u < 1 or args.tau_l < 1:
        raise _InputError(
            f"size constraints must be >= 1, got "
            f"({args.tau_u}, {args.tau_l})"
        )
    return vertex


def _load_index(path: str) -> PMBCIndex:
    """Load a saved index through the unified :meth:`PMBCIndex.load`.

    Format sniffing (JSON vs binary magic bytes) lives in
    ``PMBCIndex.load``; this wrapper turns failures into
    :class:`_InputError` with a human-readable message so commands
    exit cleanly without a traceback.
    """
    try:
        return PMBCIndex.load(path)
    except OSError as exc:
        raise _InputError(
            f"cannot read index file {path!r}: {exc.strerror or exc}"
        ) from None
    except IndexFormatError as exc:
        raise _InputError(
            f"corrupt binary index {path!r}: {exc}"
        ) from None
    except (ValueError, KeyError, TypeError, EOFError) as exc:
        # JSON decode errors are ValueError subclasses; missing fields
        # surface as KeyError/TypeError.
        raise _InputError(
            f"index file {path!r} is not a valid PMBC-Index "
            f"(JSON or binary): {exc}"
        ) from None


def _cmd_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.konect)
    builder = build_index if args.no_cost_sharing else build_index_star
    start = time.perf_counter()
    index = builder(graph)
    elapsed = time.perf_counter() - start
    index.save(args.output, format="binary" if args.binary else "auto")
    stats = index.stats()
    print(
        f"built PMBC-Index in {elapsed:.2f}s: "
        f"{stats['num_tree_nodes']} tree nodes, "
        f"{stats['num_bicliques']} bicliques, "
        f"{stats['total_size_bytes']} bytes -> {args.output}"
    )
    return 0


def _read_batch_file(path: str, graph: BipartiteGraph) -> list[QueryRequest]:
    """Parse a batch file: a JSON array or JSON-lines of queries.

    Each query is an object (``side`` plus ``vertex`` or ``label``,
    optional ``tau_u``/``tau_l``) or a ``[side, vertex, tau_u, tau_l]``
    array.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("["):
        items = json.loads(text)
    else:
        items = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    requests = []
    for position, item in enumerate(items):
        try:
            if isinstance(item, dict) and "vertex" not in item:
                side = Side(str(item.get("side", "")).lower())
                item = dict(item)
                item["vertex"] = graph.vertex_by_label(
                    side, item.pop("label")
                )
            requests.append(QueryRequest.of(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise _InputError(
                f"bad batch entry #{position} in {path!r}: {exc}"
            ) from None
    if not requests:
        raise _InputError(f"batch file {path!r} contains no queries")
    return requests


def _cmd_query_batch(args: argparse.Namespace, graph: BipartiteGraph) -> int:
    from repro.core.engine import PMBCQueryEngine

    requests = _read_batch_file(args.batch_file, graph)
    if args.index:
        incompatible = sorted(
            {
                r.objective
                for r in requests
                if not get_objective(r.objective).index_compatible
            }
        )
        if incompatible:
            print(
                f"error: objective(s) {', '.join(incompatible)} cannot be "
                "answered from a PMBC index; drop --index to search online",
                file=sys.stderr,
            )
            return 2
    start = time.perf_counter()
    if args.index:
        index = _load_index(args.index)
        answers = [pmbc_index_query(index, request) for request in requests]
    else:
        engine = PMBCQueryEngine(graph)
        answers = engine.query_batch(requests)
    elapsed = time.perf_counter() - start
    payload = []
    for request, answer in zip(requests, answers):
        entry: dict = {"query": request.to_json()}
        if answer is None:
            entry["result"] = None
        else:
            upper_labels, lower_labels = answer.with_labels(graph)
            entry["result"] = {
                "shape": list(answer.shape),
                "edges": answer.num_edges,
                "upper": sorted(map(str, upper_labels)),
                "lower": sorted(map(str, lower_labels)),
            }
        payload.append(entry)
    print(
        json.dumps(
            {
                "count": len(payload),
                "milliseconds": elapsed * 1e3,
                "results": payload,
            },
            indent=2,
        )
    )
    return 0 if any(a is not None for a in answers) else 1


def _cmd_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.konect)
    if args.batch_file is not None:
        return _cmd_query_batch(args, graph)
    side = args.side
    if side is None:
        print(
            "error: provide --side (or use --batch-file)", file=sys.stderr
        )
        return 2
    vertex = _query_vertex(graph, side, args)
    if vertex is None:
        print("error: provide --vertex or --label", file=sys.stderr)
        return 2
    if args.index and not get_objective(args.objective).index_compatible:
        print(
            f"error: objective {args.objective!r} cannot be answered from "
            "a PMBC index; drop --index to search online",
            file=sys.stderr,
        )
        return 2
    start = time.perf_counter()
    if args.index:
        index = _load_index(args.index)
        result = pmbc_index_query(index, side, vertex, args.tau_u, args.tau_l)
    else:
        result = pmbc_online_star(
            graph, side, vertex, args.tau_u, args.tau_l,
            objective=args.objective,
        )
    elapsed = time.perf_counter() - start
    if result is None:
        print(f"no biclique satisfies the constraints ({elapsed * 1e3:.3f} ms)")
        return 1
    upper_labels, lower_labels = result.with_labels(graph)
    payload = {
        "shape": list(result.shape),
        "edges": result.num_edges,
        "upper": sorted(map(str, upper_labels)),
        "lower": sorted(map(str, lower_labels)),
        "milliseconds": elapsed * 1e3,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Answer one query under a trace and print the search report."""
    from repro.obs import SearchTrace, render_trace, use_trace

    if args.dataset:
        from repro.datasets.zoo import ZOO, load_dataset

        if args.graph not in ZOO:
            raise _InputError(
                f"unknown dataset {args.graph!r} (see pmbc datasets)"
            )
        graph = load_dataset(args.graph)
    else:
        graph = _load_graph(args.graph, args.konect)
    side = args.side
    vertex = _query_vertex(graph, side, args)
    if vertex is None:
        print("error: provide a vertex (or --label)", file=sys.stderr)
        return 2
    if args.index and not get_objective(args.objective).index_compatible:
        print(
            f"error: objective {args.objective!r} cannot be answered from "
            "a PMBC index; drop --index to trace the online search",
            file=sys.stderr,
        )
        return 2
    trace = SearchTrace()
    trace.annotate(
        kind="query",
        query={
            "side": side.value,
            "vertex": vertex,
            "tau_u": args.tau_u,
            "tau_l": args.tau_l,
            "objective": args.objective,
        },
    )
    with use_trace(trace):
        if args.index:
            index = _load_index(args.index)
            result = pmbc_index_query(
                index, side, vertex, args.tau_u, args.tau_l
            )
            backend = "index"
        else:
            result = pmbc_online_star(
                graph, side, vertex, args.tau_u, args.tau_l,
                objective=args.objective,
            )
            backend = "online_star"
    trace.annotate(
        backend=backend,
        result=None
        if result is None
        else {"shape": list(result.shape), "edges": result.num_edges},
    )
    summary = trace.to_dict()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_trace(summary))
        if result is not None:
            upper_labels, lower_labels = result.with_labels(graph)
            print()
            print("answer:")
            print(f"  upper: {', '.join(sorted(map(str, upper_labels)))}")
            print(f"  lower: {', '.join(sorted(map(str, lower_labels)))}")
    return 0 if result is not None else 1


def _cmd_topk(args: argparse.Namespace) -> int:
    from repro.core import pmbc_index_topk

    graph = _load_graph(args.graph, args.konect)
    side = args.side
    vertex = _query_vertex(graph, side, args)
    if vertex is None:
        print("error: provide --vertex or --label", file=sys.stderr)
        return 2
    if args.k < 1:
        raise _InputError(f"-k must be >= 1, got {args.k}")
    index = _load_index(args.index)
    results = pmbc_index_topk(
        index, side, vertex, args.k, args.tau_u, args.tau_l
    )
    payload = []
    for biclique in results:
        upper_labels, lower_labels = biclique.with_labels(graph)
        payload.append(
            {
                "shape": list(biclique.shape),
                "edges": biclique.num_edges,
                "upper": sorted(map(str, upper_labels)),
                "lower": sorted(map(str, lower_labels)),
            }
        )
    print(json.dumps(payload, indent=2))
    return 0 if payload else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.konect)
    print(
        f"|U|={graph.num_upper} |L|={graph.num_lower} "
        f"|E|={graph.num_edges} "
        f"max_deg_U={graph.max_degree(Side.UPPER)} "
        f"max_deg_L={graph.max_degree(Side.LOWER)}"
    )
    if args.index:
        index = _load_index(args.index)
        print(json.dumps(index.stats(), indent=2))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the paper's experiment matrix (delegates to the harness)."""
    import runpy
    import sys as _sys
    from pathlib import Path

    script = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "run_experiments.py"
    )
    if not script.exists():
        print(
            "benchmarks/run_experiments.py not found (installed without "
            "the repository checkout); clone the repo to run experiments",
            file=sys.stderr,
        )
        return 2
    argv = [str(script)]
    if args.quick:
        argv.append("--quick")
    old_argv = _sys.argv
    try:
        _sys.argv = argv
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    finally:
        _sys.argv = old_argv
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP query-serving front-end (repro.serve)."""
    from repro.serve import AsyncPMBCServer, PMBCService, ServiceConfig

    try:
        if not 0 <= args.port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {args.port}")
        config = ServiceConfig(
            num_workers=args.workers,
            max_queue=args.queue_size,
            # Only 0 disables; ServiceConfig rejects negative and NaN.
            default_deadline=None if args.deadline == 0 else args.deadline,
            cache_size=args.cache_size,
            use_core_bounds=not args.no_core_bounds,
            kernel=args.kernel,
            adaptive=args.adaptive,
            index_budget_mb=args.index_budget_mb,
            hot_threshold=args.hot_threshold,
            adaptive_persist_path=args.adaptive_persist,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graph = _load_graph(args.graph, args.konect)
    index = _load_index(args.index) if args.index else None
    service = PMBCService(graph, index=index, config=config).start()
    chain = " -> ".join(service.backend_names)
    print(
        f"pmbc serve: |U|={graph.num_upper} |L|={graph.num_lower} "
        f"|E|={graph.num_edges}, backends: {chain}, "
        f"kernel: {service.engine.kernel}",
        flush=True,
    )
    coverage = service.index_coverage()
    prebuilt = coverage["prebuilt"]
    if prebuilt is not None:
        print(
            f"index coverage: {prebuilt['fraction']:.1%} of "
            f"{coverage['total_vertices']} vertices prebuilt "
            f"({prebuilt['bytes']:,} bytes)",
            flush=True,
        )
    if args.adaptive:
        adaptive_cov = coverage["adaptive"]
        warmed = service.stats()["adaptive"]["warm_restored"]
        print(
            f"adaptive tier: budget {args.index_budget_mb:g} MiB, "
            f"hot threshold {args.hot_threshold:g}, "
            f"{adaptive_cov['vertices']} trees warm "
            f"({warmed} restored from "
            f"{args.adaptive_persist or 'nothing'})",
            flush=True,
        )
    server = AsyncPMBCServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    try:
        server.start()
    except OSError as exc:
        service.close()
        print(
            f"error: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    # Everything after a successful start is under the handler: a client
    # that reads the banner may interrupt while it is still being written.
    try:
        print(
            f"listening on {server.url} "
            f"(endpoints: /query /query_batch /update /healthz /metrics "
            f"/stats; "
            f"Ctrl-C to stop)",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
    return 0


def _parse_update_op(token: str) -> tuple[str, int, int]:
    """Parse one ``insert:U:V`` / ``delete:U:V`` (or ``+U:V`` / ``-U:V``)."""
    if token.startswith("+"):
        action, rest = "insert", token[1:]
    elif token.startswith("-"):
        action, rest = "delete", token[1:]
    else:
        action, sep, rest = token.partition(":")
        if not sep:
            raise ValueError(f"malformed update {token!r}")
    if action not in ("insert", "delete"):
        raise ValueError(f"unknown action in {token!r}")
    parts = rest.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected ACTION:U:V, got {token!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"non-integer endpoint in {token!r}") from None
    return action, u, v


def _cmd_update(args: argparse.Namespace) -> int:
    """Apply a batch of edge updates to a running ``pmbc serve``."""
    from repro.serve import PMBCClient
    from repro.serve.service import ServeError

    ops: list[tuple[str, int, int]] = []
    try:
        for token in args.ops:
            ops.append(_parse_update_op(token))
        if args.file:
            with open(args.file, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    # accept "insert U V" / "insert:U:V" stream lines
                    ops.append(_parse_update_op(":".join(line.split())))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not ops:
        print("error: no updates given (ops and/or --file)", file=sys.stderr)
        return 2
    client = PMBCClient(args.url, timeout=args.timeout)
    try:
        payload = client.update(ops)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"applied {payload['applied']}/{len(ops)} "
            f"(+{payload['inserts']} -{payload['deletes']}, "
            f"{payload['noops']} no-ops) in {payload['total_ms']:.1f} ms; "
            f"cascade {payload['cascade']}, "
            f"trees repaired {payload['trees_repaired']}, "
            f"evicted {payload['evicted']}"
        )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets.zoo import ZOO, load_dataset

    for name, dataset_spec in ZOO.items():
        line = (
            f"{name:<14} {dataset_spec.category:<12} "
            f"target |E|={dataset_spec.num_edges:<6} "
            f"(paper: {dataset_spec.paper_edges:,})"
        )
        if args.generate or args.stats:
            graph = load_dataset(name)
            line += (
                f"  generated |U|={graph.num_upper} |L|={graph.num_lower} "
                f"|E|={graph.num_edges}"
            )
        if args.stats:
            from repro.graph.stats import graph_stats

            stats = graph_stats(load_dataset(name))
            line += (
                f"  deg_U(mean/max)={stats.upper.mean_degree:.1f}/"
                f"{stats.upper.max_degree}"
                f"  deg_L(mean/max)={stats.lower.mean_degree:.1f}/"
                f"{stats.lower.max_degree}"
                f"  hub%={100 * max(stats.upper.hub_fraction, stats.lower.hub_fraction):.0f}"
            )
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmbc",
        description="Personalized maximum biclique search (ICDE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and save a PMBC-Index")
    p_build.add_argument("graph", help="edge-list file")
    p_build.add_argument("-o", "--output", required=True)
    p_build.add_argument("--konect", action="store_true",
                         help="input is KONECT out.* format")
    p_build.add_argument("--no-cost-sharing", action="store_true",
                         help="use PMBC-IC instead of PMBC-IC*")
    p_build.add_argument("--binary", action="store_true",
                         help="write the compact binary format")
    p_build.set_defaults(fn=_cmd_build)

    p_query = sub.add_parser("query", help="answer a personalized query")
    p_query.add_argument("graph")
    p_query.add_argument("--konect", action="store_true")
    p_query.add_argument("--index", help="saved index (online search if omitted)")
    p_query.add_argument("--side", type=_side)
    p_query.add_argument("--vertex", type=int)
    p_query.add_argument("--label", help="query by vertex label instead of id")
    p_query.add_argument("--tau-u", type=int, default=1)
    p_query.add_argument("--tau-l", type=int, default=1)
    p_query.add_argument(
        "--objective", choices=objective_kinds(), default="pmbc",
        help="query family to maximize (default pmbc = edge count); "
             "non-pmbc objectives need the online path, not --index",
    )
    p_query.add_argument(
        "--batch-file",
        help="answer many queries from a JSON array / JSON-lines file "
             "(grouped two-hop extraction; ignores --side/--vertex)",
    )
    p_query.set_defaults(fn=_cmd_query)

    p_explain = sub.add_parser(
        "explain",
        help="trace one query and print the search report "
             "(two-hop size, rounds, prune counts)",
    )
    p_explain.add_argument(
        "graph", help="edge-list file, or a zoo name with --dataset"
    )
    p_explain.add_argument("vertex", nargs="?", type=int,
                           help="query vertex id (or use --label)")
    p_explain.add_argument("tau_u", nargs="?", type=int, default=1,
                           help="minimum upper-layer size (default 1)")
    p_explain.add_argument("tau_l", nargs="?", type=int, default=1,
                           help="minimum lower-layer size (default 1)")
    p_explain.add_argument("--side", type=_side, default=Side.UPPER,
                           help="query vertex layer (default upper)")
    p_explain.add_argument("--label",
                           help="query by vertex label instead of id")
    p_explain.add_argument("--dataset", action="store_true",
                           help="graph argument is a built-in zoo name "
                                "(see pmbc datasets)")
    p_explain.add_argument("--konect", action="store_true")
    p_explain.add_argument("--index",
                           help="trace a PMBC-IQ index lookup instead of "
                                "the online search")
    p_explain.add_argument(
        "--objective", choices=objective_kinds(), default="pmbc",
        help="query family to maximize (default pmbc = edge count)",
    )
    p_explain.add_argument("--json", action="store_true",
                           help="print the raw trace summary as JSON")
    p_explain.set_defaults(fn=_cmd_explain)

    p_topk = sub.add_parser(
        "topk", help="k largest distinct personalized groups of a vertex"
    )
    p_topk.add_argument("graph")
    p_topk.add_argument("--konect", action="store_true")
    p_topk.add_argument("--index", required=True)
    p_topk.add_argument("--side", type=_side, required=True)
    p_topk.add_argument("--vertex", type=int)
    p_topk.add_argument("--label")
    p_topk.add_argument("-k", type=int, default=3)
    p_topk.add_argument("--tau-u", type=int, default=1)
    p_topk.add_argument("--tau-l", type=int, default=1)
    p_topk.set_defaults(fn=_cmd_topk)

    p_stats = sub.add_parser("stats", help="graph / index statistics")
    p_stats.add_argument("graph")
    p_stats.add_argument("--konect", action="store_true")
    p_stats.add_argument("--index")
    p_stats.set_defaults(fn=_cmd_stats)

    p_data = sub.add_parser("datasets", help="list the dataset zoo")
    p_data.add_argument("--generate", action="store_true",
                        help="also generate each graph and report its size")
    p_data.add_argument("--stats", action="store_true",
                        help="also report degree statistics")
    p_data.set_defaults(fn=_cmd_datasets)

    p_bench = sub.add_parser(
        "bench", help="run the paper's experiment matrix"
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="smallest datasets, reduced workload")
    p_bench.set_defaults(fn=_cmd_bench)

    p_update = sub.add_parser(
        "update",
        help="apply streaming edge updates to a running pmbc serve",
    )
    p_update.add_argument(
        "ops", nargs="*", metavar="OP",
        help="updates in order: insert:U:V / delete:U:V "
             "(shorthand +U:V, and -U:V after a '--' separator)")
    p_update.add_argument("--url", default="http://127.0.0.1:8642",
                          help="server base URL (default %(default)s)")
    p_update.add_argument("--file", default=None, metavar="PATH",
                          help="also read 'ACTION U V' lines from this "
                               "file ('#' comments allowed), appended "
                               "after positional ops")
    p_update.add_argument("--timeout", type=float, default=60.0,
                          help="HTTP timeout in seconds (default 60)")
    p_update.add_argument("--json", action="store_true",
                          help="print the full response payload instead "
                               "of the one-line summary")
    p_update.set_defaults(fn=_cmd_update)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP query-serving front-end"
    )
    p_serve.add_argument("graph", help="edge-list file")
    p_serve.add_argument("--konect", action="store_true")
    p_serve.add_argument("--index",
                         help="saved index to serve as the primary backend")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--workers", type=int, default=8,
                         help="worker thread-pool size (default 8)")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="bounded request queue capacity (default 64)")
    p_serve.add_argument("--deadline", type=float, default=30.0,
                         help="default per-request deadline in seconds "
                              "(0 disables; default 30)")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="two-hop LRU capacity of the shared engine")
    p_serve.add_argument("--kernel", choices=KERNEL_KINDS, default=None,
                         help="compute kernel for every search the service "
                              "runs (default: bitset); "
                              "see docs/kernel.md")
    p_serve.add_argument("--adaptive", action="store_true",
                         help="enable the traffic-adaptive partial index "
                              "(background builds for hot vertices)")
    p_serve.add_argument("--index-budget-mb", type=float, default=64.0,
                         help="memory budget for adaptive search trees "
                              "(default 64 MiB)")
    p_serve.add_argument("--hot-threshold", type=float, default=3.0,
                         help="decayed query count that promotes a vertex "
                              "to a background build (default 3)")
    p_serve.add_argument("--adaptive-persist", default=None, metavar="PATH",
                         help="persist the hot set here and re-warm from "
                              "it on restart")
    p_serve.add_argument("--no-core-bounds", action="store_true",
                         help="skip (α,β)-core bound precomputation")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
