"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs at tiny size on the development seed and on the
held-out seed, so no workload is tuned to one stream; traced runs of one
seed must repeat their exact counts; ``BENCHMARK.json`` must mirror
``metrics.py``; and a checkout without the program must fail cleanly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import BOUNDS, END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402

#: Seed used while the benchmark was built and tuned.
DEV_SEED = 1
#: Seed never used while building it.
HELD_OUT_SEED = 90210
TINY_SECONDS = 2
WORKLOADS = ("ol_topdeg", "http_zipf", "update_churn")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(cwd), timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("seed", [DEV_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, seed):
    result = _result(_run(workload, seed, 0))
    assert set(result["metrics"]) == set(END_TO_END)
    for name, (unit, __) in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["ol_topdeg", "update_churn"])
def test_traced_exact_counts_repeat_for_one_seed(workload):
    first = _result(_run(workload, HELD_OUT_SEED, 1))
    second = _result(_run(workload, HELD_OUT_SEED, 1))
    assert set(first["metrics"]) == set(PER_LAYER)
    for name in EXACT_COUNTS[workload]:
        assert first["metrics"][name]["value"] > 0 or name == "dynadj.repacks"
        assert first["metrics"][name] == second["metrics"][name], name
    assert 0 < first["metrics"]["trace.coverage"]["value"] <= 1.0


def test_traced_server_run_reaches_the_serving_layers():
    metrics = _result(_run("http_zipf", DEV_SEED, 1))["metrics"]
    for name in ("aserver.self_ms.p50", "service.admit_ms.p50",
                 "adaptive.lookup_ms.p50", "engine.query.calls", "exec.run.calls"):
        assert metrics[name]["value"] > 0, name


def test_benchmark_json_mirrors_metrics_module():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        name: (unit, better, BOUNDS[name]) for name, (unit, better) in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert max(BOUNDS.values()) == BOUNDS["setup_s"] <= 0.25


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("ol_topdeg", DEV_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
