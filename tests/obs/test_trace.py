"""Unit tests for :mod:`repro.obs`: trace, ring, render, metrics bridge."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_TRACE,
    PRUNE_RULES,
    SearchTrace,
    TraceRing,
    current_trace,
    new_trace_id,
    publish_trace,
    register_search_metrics,
    render_trace,
    use_trace,
)
from repro.serve.metrics import MetricsRegistry

# ----------------------------------------------------------------------
# SearchTrace / NullTrace


def test_default_trace_is_null():
    trace = current_trace()
    assert trace is NULL_TRACE
    assert not trace.enabled
    # Every recording operation must be a harmless no-op.
    trace.add("bb_nodes", 10)
    trace.prune("size_bound", 5)
    trace.record_twohop(3, 4, 12)
    trace.add_round(tau_p=1)
    trace.annotate(backend="x")
    with trace.span("anything"):
        pass


def test_use_trace_installs_and_restores():
    trace = SearchTrace()
    assert current_trace() is NULL_TRACE
    with use_trace(trace):
        assert current_trace() is trace
        inner = SearchTrace()
        with use_trace(inner):
            assert current_trace() is inner
        assert current_trace() is trace
    assert current_trace() is NULL_TRACE


def test_use_trace_is_thread_local():
    trace = SearchTrace()
    seen: list[object] = []

    def probe():
        seen.append(current_trace())

    with use_trace(trace):
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
    # A thread spawned inside the with-block gets a *copy* of the
    # context, so either outcome is fine as long as the main thread's
    # trace never leaks across an unrelated thread's installation.
    other = SearchTrace()

    def install_and_probe():
        with use_trace(other):
            seen.append(current_trace())

    worker = threading.Thread(target=install_and_probe)
    worker.start()
    worker.join()
    assert seen[-1] is other
    assert current_trace() is NULL_TRACE


def test_counters_and_prunes_accumulate():
    trace = SearchTrace()
    trace.add("bb_nodes", 3)
    trace.add("bb_nodes", 4)
    trace.add("ignored", 0)          # zero increments are dropped
    trace.prune("size_bound", 2)
    trace.prune("size_bound")
    trace.prune("shape_cap", 0)
    assert trace.counters == {"bb_nodes": 7}
    assert trace.prunes == {"size_bound": 3}


def test_record_twohop_accumulates():
    trace = SearchTrace()
    trace.record_twohop(3, 4, 10)
    trace.record_twohop(1, 2, 2)
    assert trace.counters["twohop_extractions"] == 2
    assert trace.counters["twohop_vertices"] == 10
    assert trace.counters["twohop_edges"] == 12


def test_span_records_timing():
    trace = SearchTrace()
    with trace.span("work"):
        pass
    assert len(trace.spans) == 1
    span = trace.spans[0]
    assert span["name"] == "work"
    assert span["ms"] >= 0.0


def test_to_dict_shape_and_trace_id():
    trace = SearchTrace(trace_id="abc123")
    trace.add("bb_calls")
    trace.annotate(backend="engine")
    summary = trace.to_dict()
    assert summary["trace_id"] == "abc123"
    assert summary["counters"] == {"bb_calls": 1}
    assert summary["meta"] == {"backend": "engine"}
    assert summary["elapsed_ms"] >= 0.0
    # to_dict snapshots; later mutation must not alias.
    trace.add("bb_calls")
    assert summary["counters"] == {"bb_calls": 1}


def test_generated_trace_ids_are_unique():
    ids = {new_trace_id() for __ in range(64)}
    assert len(ids) == 64
    assert all(len(i) == 12 for i in ids)


def test_prune_rules_glossary_is_well_formed():
    assert PRUNE_RULES  # non-empty
    for rule, (anchor, description) in PRUNE_RULES.items():
        assert rule and isinstance(rule, str)
        assert isinstance(anchor, str)
        assert description


# ----------------------------------------------------------------------
# TraceRing


def test_ring_keeps_most_recent_first():
    ring = TraceRing(capacity=3)
    for i in range(5):
        ring.append({"trace_id": f"t{i}"})
    assert len(ring) == 3
    assert ring.total_recorded == 5
    assert [t["trace_id"] for t in ring.snapshot()] == ["t4", "t3", "t2"]
    assert [t["trace_id"] for t in ring.snapshot(limit=1)] == ["t4"]


def test_ring_find_by_id():
    ring = TraceRing(capacity=4)
    ring.append({"trace_id": "aa"})
    ring.append({"trace_id": "bb"})
    assert ring.find("aa") == {"trace_id": "aa"}
    assert ring.find("zz") is None


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TraceRing(capacity=0)


# ----------------------------------------------------------------------
# render_trace


def _rich_summary():
    return {
        "trace_id": "deadbeef0000",
        "elapsed_ms": 3.25,
        "meta": {
            "backend": "engine",
            "query": {"side": "upper", "vertex": 3, "tau_u": 2, "tau_l": 2},
            "result": {"shape": [3, 4], "edges": 12},
        },
        "counters": {
            "twohop_extractions": 1,
            "twohop_upper": 10,
            "twohop_lower": 8,
            "twohop_vertices": 18,
            "twohop_edges": 40,
            "progressive_rounds": 2,
            "bb_calls": 2,
            "bb_nodes": 123,
        },
        "prunes": {"size_bound": 50, "core_z_bound": 9},
        "rounds": [
            {
                "tau_p": 2,
                "tau_w": 4,
                "working_upper": 6,
                "working_lower": 5,
                "nodes": 100,
                "best_size": 12,
            }
        ],
        "spans": [{"name": "two_hop_extract", "start_ms": 0.0, "ms": 0.5}],
    }


def test_render_trace_contains_all_sections():
    report = render_trace(_rich_summary())
    assert "trace deadbeef0000" in report
    assert "backend=engine" in report
    assert "vertex=3" in report
    assert "3x4 biclique, 12 edges" in report
    assert "|vertices|=18" in report
    assert "progressive-bounding rounds: 2" in report
    assert "Branch&Bound nodes expanded: 123" in report
    assert "size_bound" in report and "[incumbent]" in report
    assert "core_z_bound" in report and "[Lemma 9]" in report
    assert "two_hop_extract" in report


def test_render_trace_tolerates_minimal_summary():
    report = render_trace({"trace_id": "x"})
    assert "trace x" in report
    # No sections beyond the header for an empty trace.
    assert "pruning" not in report


def test_render_trace_none_result():
    summary = _rich_summary()
    summary["meta"]["result"] = None
    assert "result: none" in render_trace(summary)


# ----------------------------------------------------------------------
# metrics bridge


def test_register_search_metrics_pre_registers_series():
    registry = MetricsRegistry()
    register_search_metrics(registry)
    rendered = registry.render()
    for name in (
        "pmbc_search_nodes_total",
        "pmbc_prune_total",
        "pmbc_twohop_size",
        "pmbc_traces_total",
    ):
        assert name in rendered


def test_publish_trace_aggregates_counters():
    registry = MetricsRegistry()
    register_search_metrics(registry)
    summary = _rich_summary()
    publish_trace(summary, registry)
    publish_trace(summary, registry)
    assert registry.counter("pmbc_traces_total", "").total() == 2
    assert registry.counter("pmbc_search_nodes_total", "").total() == 246
    prune = registry.counter("pmbc_prune_total", "")
    assert prune.value(rule="size_bound", objective="pmbc") == 100
    assert prune.value(rule="core_z_bound", objective="pmbc") == 18
    rendered = registry.render()
    assert 'pmbc_prune_total{objective="pmbc",rule="size_bound"}' in rendered
    assert "pmbc_twohop_size_bucket" in rendered


def test_publish_trace_handles_empty_summary():
    registry = MetricsRegistry()
    register_search_metrics(registry)
    publish_trace({"trace_id": "x"}, registry)
    assert registry.counter("pmbc_traces_total", "").total() == 1
