"""Tests for the benchmark harness: schema 2, percentiles, --compare."""

import json

import pytest

from repro.bench.harness import (
    SCHEMA_VERSION,
    _quantile,
    _upgrade,
    compare_files,
    load_trajectory,
    run_suite,
    write_trajectory,
)
from repro.bench.suites import SUITES
from repro.bench.__main__ import SMOKE_GOLDEN, main

BY_NAME = {s.name: s for s in SUITES}


# ----------------------------------------------------------------------
# Quantiles.
# ----------------------------------------------------------------------
def test_quantile_interpolates():
    walls = [1.0, 2.0, 3.0, 4.0]
    assert _quantile(walls, 0.0) == 1.0
    assert _quantile(walls, 1.0) == 4.0
    assert _quantile(walls, 0.5) == pytest.approx(2.5)
    assert _quantile([5.0], 0.95) == 5.0
    assert _quantile([], 0.5) == 0.0


# ----------------------------------------------------------------------
# Schema upgrade.
# ----------------------------------------------------------------------
def _schema1_doc():
    return {
        "schema": 1,
        "suites": {
            "opt-phold": {
                "engine": "optimistic",
                "committed_per_sec": 1000.0,
                "wall_seconds": [0.5, 0.4, 0.6],
            },
            "seq-phold": {
                "engine": "sequential",
                "committed_per_sec": 2000.0,
                "wall_seconds": [0.2],
            },
        },
    }


def test_upgrade_fills_schema2_fields():
    doc = _upgrade(_schema1_doc())
    opt = doc["suites"]["opt-phold"]
    assert opt["queue_impl"] == "heap"
    assert opt["cancellation"] == "aggressive"
    assert opt["p50_seconds"] == pytest.approx(0.5)
    seq = doc["suites"]["seq-phold"]
    assert seq["queue_impl"] == "n/a"
    assert seq["cancellation"] == "n/a"
    assert seq["p95_seconds"] == pytest.approx(0.2)


def test_upgrade_passes_schema2_through():
    doc = {"schema": 2, "suites": {"opt-phold": {"queue_impl": "ladder"}}}
    assert _upgrade(doc)["suites"]["opt-phold"]["queue_impl"] == "ladder"


def test_upgrade_rejects_future_schema():
    with pytest.raises(ValueError):
        _upgrade({"schema": SCHEMA_VERSION + 1})


# ----------------------------------------------------------------------
# run_suite (smoke scale).
# ----------------------------------------------------------------------
def test_run_suite_records_schema2_fields():
    res = run_suite(BY_NAME["opt-phold"], repeats=2, smoke=True,
                    cancellation="lazy")
    assert res.queue_impl == "heap"
    assert res.cancellation == "lazy"
    assert res.committed == SMOKE_GOLDEN["opt-phold"]
    assert res.best_seconds <= res.p50_seconds <= res.p95_seconds
    assert len(res.wall_seconds) == 2


def test_run_suite_non_optimistic_marks_na():
    res = run_suite(BY_NAME["seq-phold"], repeats=1, smoke=True,
                    cancellation="lazy")
    assert res.queue_impl == "n/a"
    assert res.cancellation == "n/a"


@pytest.mark.parametrize("name", ["opt-phold-stress", "opt-hotpotato-stress"])
def test_stress_suites_commit_identically_across_modes(name):
    suite = BY_NAME[name]
    counts = {
        c: suite.run(True, cancellation=c).run.committed
        for c in ("aggressive", "lazy")
    }
    assert len(set(counts.values())) == 1, counts
    assert counts["aggressive"] == SMOKE_GOLDEN[name]


def test_stress_suites_roll_back_heavily():
    run = BY_NAME["opt-phold-stress"].run(True).run
    assert run.events_rolled_back > run.committed / 2


# ----------------------------------------------------------------------
# write_trajectory / load_trajectory round trip.
# ----------------------------------------------------------------------
def _write(tmp_path, name, results):
    path = tmp_path / name
    write_trajectory(path, results, {}, None, 0.8)
    return path


def test_trajectory_round_trip(tmp_path):
    res = run_suite(BY_NAME["opt-phold"], repeats=1, smoke=True)
    path = _write(tmp_path, "BENCH_0.json", [res])
    doc = load_trajectory(path)
    assert doc["schema"] == SCHEMA_VERSION
    suite = doc["suites"]["opt-phold"]
    assert suite["queue_impl"] == "heap"
    assert suite["cancellation"] == "aggressive"
    assert "p50_seconds" in suite and "p95_seconds" in suite


# ----------------------------------------------------------------------
# compare_files / CLI --compare.
# ----------------------------------------------------------------------
def _fake_trajectory(tmp_path, name, rates):
    doc = {
        "schema": 2,
        "suites": {
            suite: {
                "engine": "optimistic",
                "committed_per_sec": rate,
                "queue_impl": "heap",
                "cancellation": "aggressive",
                "wall_seconds": [],
            }
            for suite, rate in rates.items()
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_compare_files_counts_regressions(tmp_path):
    a = _fake_trajectory(tmp_path, "A.json", {"x": 1000.0, "y": 1000.0})
    b = _fake_trajectory(tmp_path, "B.json", {"x": 500.0, "y": 990.0})
    lines = []
    assert compare_files(a, b, 0.8, report=lines.append) == 1
    assert any("REGRESSION" in ln for ln in lines)


def test_compare_files_ignores_unshared_suites(tmp_path):
    a = _fake_trajectory(tmp_path, "A.json", {"x": 1000.0})
    b = _fake_trajectory(tmp_path, "B.json", {"x": 1000.0, "new": 1.0})
    assert compare_files(a, b, 0.8, report=lambda _: None) == 0


def test_cli_compare_exit_codes(tmp_path):
    a = _fake_trajectory(tmp_path, "A.json", {"x": 1000.0})
    b = _fake_trajectory(tmp_path, "B.json", {"x": 100.0})
    assert main(["--compare", str(a), str(b)]) == 1
    assert main(["--compare", str(a), str(a)]) == 0
    assert main(["--compare", str(a), str(tmp_path / "missing.json")]) == 2
