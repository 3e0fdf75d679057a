"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
They run every workload once at full size, so they take about 90 seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
from calibrate import PERIOD_S, REF_BURST_S, Sampler  # noqa: E402
from layers import FUNCTION_LAYER, LAYERS, attribute, layer_of  # noqa: E402
from workloads import DEFAULT_SEED, SRC, WORKLOADS, config_key  # noqa: E402

PINNED = json.loads((HERE / "oracle.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_repro_module_maps_to_one_layer():
    unmapped = [m for m in _modules() if layer_of(m) not in LAYERS]
    assert unmapped == [], f"modules without a layer: {unmapped}"


def test_function_overrides_name_real_functions():
    for module, func in FUNCTION_LAYER:
        source = (SRC / Path(*module.split("."))).with_suffix(".py").read_text()
        assert f"def {func}(" in source, (module, func)


def test_unmapped_module_is_reported_and_charged_to_other():
    key = (str(SRC / "repro" / "brand_new.py"), 1, "f")
    self_s, _, unmapped = attribute({key: (1, 1, 0.5, 0.5, {})}, SRC)
    assert unmapped == {"repro.brand_new"}
    assert self_s["other"] == 0.5


def test_time_outside_repro_goes_to_the_calling_layer():
    caller = (str(SRC / "repro" / "core" / "queue.py"), 10, "push")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        caller: (1, 1, 0.1, 0.3, {}),
        builtin: (1, 1, 0.2, 0.2, {caller: (1, 1, 0.2, 0.2)}),
    }
    self_s, _, _ = attribute(stats, SRC)
    assert self_s["queue"] == pytest.approx(0.3)
    assert self_s["other"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_maps_every_module_and_prints_every_layer_metric(name):
    small = dataclasses.replace(WORKLOADS[name], n=8, duration=6.0)
    timed = rep.timed(small, DEFAULT_SEED)
    traced = rep.traced(small, DEFAULT_SEED)
    assert traced["unmapped"] == []
    assert [p["stats_sha256"] for p in traced["points"]] == [
        p["stats_sha256"] for p in timed["points"]
    ]
    untraced = sum(p["wall_s"] for p in timed["points"])
    metrics = run._per_layer(traced, untraced)
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert set(run._end_to_end([timed])) == {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sequential_oracle_matches_pin_and_a_second_seed_differs(name):
    w = WORKLOADS[name]
    pinned = PINNED["workloads"][name]["points"]
    assert rep.oracle(w, DEFAULT_SEED)["points"] == pinned
    other = rep.oracle(w, DEFAULT_SEED + 1)["points"]
    for a, b in zip(other, pinned):
        assert a["stats_sha256"] != b["stats_sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_engine_matches_its_oracle(name):
    out = rep.timed(WORKLOADS[name], DEFAULT_SEED)
    assert run._mismatch(out["points"], PINNED["workloads"][name]["points"]) == ""
    assert all(p["setup_s"] > 0 and p["wall_s"] > p["setup_s"] for p in out["points"])
    assert all(p["wall_ref_s"] > p["setup_ref_s"] > 0 for p in out["points"])


def test_end_to_end_metrics_are_in_reference_seconds():
    point = {"committed": 1000, "wall_s": 3.0, "setup_s": 1.0,
             "wall_ref_s": 1.5, "setup_ref_s": 0.5}
    m = run._end_to_end([{"points": [point], "peak_rss_mb": 10.0}])
    assert m["events_per_s"] == pytest.approx(1000.0)
    assert m["setup_s"] == pytest.approx(0.5)
    host = run._host_seconds([{"points": [point], "burst_s": 0.01}])
    assert host["events_per_host_s"] == 500.0


def test_sampler_takes_bursts_out_of_a_span_and_scales_by_their_time():
    s = Sampler()
    s.starts, s.times = [0.0, 1.0, 2.0, 3.0], [0.01, 0.02, 0.03, 0.04]
    # Bursts at 1.0 and 2.0 lie inside: 2.0 - 0.05 host seconds, at a
    # mean burst of 0.025 s.
    assert s.reference_s(0.5, 2.5) == pytest.approx(1.95 * REF_BURST_S / 0.025)
    assert s.host_s(0.5, 2.5) == pytest.approx(1.95)
    # No burst inside: the bursts on either side set the speed.
    assert s.reference_s(1.1, 1.2) == pytest.approx(0.1 * REF_BURST_S / 0.025)
    # Two processes burst side by side: the span loses their mean total.
    s.slots = [0, 1, 2, 0]
    assert s.host_s(0.5, 2.5) == pytest.approx(2.0 - 0.05 / 2)


def test_sampler_restores_signal_handling_and_the_collector():
    import gc
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with Sampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2.5 * PERIOD_S:
            pass
    assert len(s.times) >= 3 and all(t > 0 for t in s.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()


def test_sampler_in_workers_collects_bursts_from_forked_processes():
    import os

    with Sampler(in_workers=True) as s:
        pid = os.fork()
        if pid == 0:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 2.5 * PERIOD_S:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
    assert s.slots[0] == 0 and s.slots[-1] == 0
    assert s.slots[1:-1] and set(s.slots[1:-1]) == {1}
    assert s.starts == sorted(s.starts)


def test_failed_repetition_records_type_and_message(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("worker 0 produced no result")

    monkeypatch.setattr(rep, "run_point", boom)
    spec = json.dumps({"workload": "tw-thrash", "seed": 1, "mode": "timed"})
    assert rep.main(["rep.py", spec]) == 0
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert err["type"] == "RuntimeError"
    assert err["message"] == "worker 0 produced no result"


def test_a_repetition_that_dies_is_counted_with_its_error():
    runner = run.Runner("no-such-workload", 1)
    assert runner.rep("timed") is None
    (failure,) = runner.failures
    assert failure["type"] == "ChildDied"
    assert "KeyError" in failure["message"]


def test_config_key_resolves_defaults_and_separates_workloads():
    keys = {name: config_key(w, DEFAULT_SEED) for name, w in WORKLOADS.items()}
    assert len({k["id"] for k in keys.values()}) == len(keys)
    assert keys["tw-n64"]["executor"] and keys["tw-n64"]["queue"]
    assert keys["fig34-seq"]["executor"]
    assert config_key(WORKLOADS["tw-n64"], 1)["id"] != keys["tw-n64"]["id"]


def test_compare_refuses_reports_of_different_configs():
    host = {"cpu": "x", "nproc": 2, "python": "CPython 3.11", "calibration_ms": 20.0}
    base = {"config": {"id": "a", "executor": "scalar"}, "host": host, "trace": 0}
    assert compare.mismatches(base, dict(base)) == []
    new = dict(base, config={"id": "b", "executor": "vectorized"})
    assert compare.mismatches(base, new) == [
        "config executor: 'scalar' != 'vectorized'"
    ]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tw-thrash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
