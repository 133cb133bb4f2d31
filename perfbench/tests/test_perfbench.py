"""Tests of the benchmark's own measurement and checking code.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import jobs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def test_p50_needs_ten_samples_beyond_it():
    assert measure.min_samples_for(0.5) == 20
    with pytest.raises(ValueError):
        measure.job_p50([1.0] * 19)
    assert measure.job_p50([float(i) for i in range(20)]) == 9.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "name": "job", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "transform.scatter_pmf", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "transform.cascade_pmf", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "inputs.input_pmf", "parent": 0, "start": 8.0, "end": 12.0},
    ]
    selfs = measure.self_times(spans)
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(3.0)


def test_row_counts_on_a_hand_built_job_list():
    stages = [
        ([0.5, 0.5], 3),             # rows (0, 3) and (1, 3), both new
        ([0.2, 0.0, 0.8], 3),        # (0, 3) again; the zero weight asks for nothing
        ([1.0], 1),                  # M = 1 is the identity: no rows
        ([0.0, 1.0], 30000),         # (1, 30000) lies above the exact seam
    ]
    counts = measure.row_counts(stages)
    assert counts["rows_requested"] == 5
    assert counts["row_entries"] == 1 + 2 + 3 + 2
    assert counts["row_reuse_share"] == pytest.approx(1 / 5)
    assert counts["log_route_share"] == pytest.approx(1 / 5)


def _tiny_bright(monkeypatch):
    tiny = [{"id": "t0", "state": {"kind": "coherent", "mean": 3.0}, "M": 4, "stages": 2}]
    monkeypatch.setattr(worker, "make_jobs", lambda workload, seed: [dict(j) for j in tiny])


def test_wrong_expected_value_counts_as_failure(monkeypatch, tmp_path):
    _tiny_bright(monkeypatch)
    good = worker.run_pass("bright_scatter", 0, True, 0.0, tmp_path)
    assert good["failures"] == []

    monkeypatch.setattr(worker.rggstats, "g2_out_predicted", lambda g2, M: 1.01 * 2 * g2 * M / (M + 1))
    bad = worker.run_pass("bright_scatter", 0, False, 0.0, tmp_path)
    assert len(bad["failures"]) / bad["jobs"] > 0


def test_job_lists_follow_the_seed():
    for workload in jobs.WORKLOADS:
        assert jobs.make_jobs(workload, 7) == jobs.make_jobs(workload, 7)
        assert jobs.make_jobs(workload, 7) != jobs.make_jobs(workload, 8)
    ms = [job["M"] for job in jobs.make_jobs("bright_scatter", 7)]
    sweeps = [m for i, m in enumerate(ms) if i == 0 or m != ms[i - 1]]
    assert len(set(sweeps)) == len(sweeps) == 5  # one M per sweep, used by no other
    assert max(sweeps) > measure.LOG_ROUTE_ABOVE
    limit = jobs.make_jobs("deep_limit", 7)
    assert len({(j["N"], j["M"]) for j in limit}) == len(limit)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
