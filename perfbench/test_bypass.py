"""Bypass self-test of the benchmark's traced run.

    python3 -m pytest perfbench/test_bypass.py

Each workload runs once with --trace 1.  Every span must record work on the
workload that should exercise it and none where the layer map in README.md
predicts no effect; a span patched into too few namespaces shows up here as a
zero.  The metric names must match BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SOLVER_CALLS = [
    "solvers.newton_periodic_u.calls", "solvers.solve_all_starts.calls",
    "solvers.class_distance.calls", "solvers.certify_psd_periodic_u.calls",
    "solvers.modified_newton_direction.calls",
]

EXERCISED = {
    "scan-cold": SOLVER_CALLS + [
        "model.kernel_calls", "model.h_evals", "variational.minimize_periodic.calls",
        "cache.put.calls", "cache.bytes_written", "staircase.beta.calls",
        "staircase.one_sided.calls", "staircase.estimators.s",
        "staircase.locking_intervals.s", "staircase.legendre.s",
        "staircase.convexity_probe.s", "scan.fill_table.s", "scan.write_csv.s",
        "scan.bytes_written", "scan.run_scan.self_s",
    ],
    "scan-cold-2w": SOLVER_CALLS + ["scan.pool_tasks", "cache.put.calls"],
    "query-warm": [
        "cache.get.calls", "cache.payload_checksum.calls", "cache.bytes_read",
        "staircase.one_sided.calls", "cli.main.calls", "cli.main.self_s",
    ],
    "orbit-analysis": [
        "solvers.newton_segment.calls", "model.kernel_calls", "model.h_evals",
        "variational.minimize_periodic.calls", "hyperbolicity.full_report.calls",
        "hyperbolicity.pn_barrier.calls", "flatness.flatness_curve.calls",
        "flatness.concatenate_loop.calls", "cli.main.calls",
    ],
}

BYPASSED = {
    "scan-cold": ["scan.pool_tasks", "cli.main.calls", "hyperbolicity.pn_barrier.calls"],
    "scan-cold-2w": ["cli.main.calls", "hyperbolicity.pn_barrier.calls"],
    "query-warm": SOLVER_CALLS + [
        "solvers.newton_segment.calls", "model.kernel_calls",
        "variational.minimize_periodic.calls", "cache.put.calls",
        "hyperbolicity.full_report.calls", "hyperbolicity.pn_barrier.calls",
        "flatness.flatness_curve.calls", "scan.fill_table.s", "scan.pool_tasks",
    ],
    "orbit-analysis": [
        "cache.get.calls", "cache.put.calls", "cache.bytes_written",
        "scan.fill_table.s", "scan.pool_tasks",
    ],
}


@pytest.fixture(scope="module")
def traced():
    results = {}
    for workload in EXERCISED:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "2", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_spans_exercised_and_bypassed(traced, workload):
    result = traced[workload]
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert [k for k in EXERCISED[workload] if not metrics[k] > 0] == []
    assert [k for k in BYPASSED[workload] if metrics[k] != 0] == []


def test_cache_reads_all_hit_on_query_warm(traced):
    assert traced["query-warm"]["metrics"]["cache.get.hit_ratio"]["value"] == 1.0


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for result in traced.values():
        assert list(result["metrics"]) == names
