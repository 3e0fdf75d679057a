"""One repetition of a workload, in a fresh process.

Usage: ``python3 perfbench/rep.py '{"workload": "tw-n64", "seed": 1, "mode": "timed"}'``

Modes:

``oracle``
    Run the sequential engine with its defaults at every load point and
    print the fingerprints.
``timed``
    At every load point: set-up probes (the same run ending before the
    first event), then the full run; tracing off.  Prints per-point times
    in host and reference seconds, fingerprints and the process's peak
    resident memory.
``traced``
    The full runs under ``cProfile`` with a span tracer and a metrics
    recorder attached; prints the per-layer attribution.

The last line of standard output is one JSON object.  An exception is
reported in it as ``{"error": {"type", "message", "traceback"}}``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback

from calibrate import Sampler
from workloads import PROBE_END, SRC, WORKLOADS, fingerprint, run_oracle, run_point

#: Set-up probes per load point: ``PROBE_MIN``, then more until they have
#: taken ``PROBE_BUDGET_S``, at most ``PROBE_MAX``; a point's set-up time
#: is their median.
PROBE_MIN = 3
PROBE_BUDGET_S = 0.25
PROBE_MAX = 5


def _peak_rss_mb(procs: int) -> float:
    """Peak RSS of this process plus its worker processes.

    ``RUSAGE_CHILDREN`` reports the largest waited-for child; the workers
    of one run hold equal slices, so they are counted as ``procs`` times
    the largest.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = procs if procs > 1 else 0
    return (own + workers * kids) / 1024.0


def oracle(w, seed: int) -> dict:
    points = []
    for load in w.loads:
        points.append({"load": load, **fingerprint(run_oracle(w, load, seed))})
    return {"points": points}


def _probe_spans(w, load: float, seed: int) -> list[tuple[float, float]]:
    """Set-up probes: at least three, more while they are cheap."""
    spans: list[tuple[float, float]] = []
    while len(spans) < PROBE_MIN or (
        len(spans) < PROBE_MAX and sum(b - a for a, b in spans) < PROBE_BUDGET_S
    ):
        gc.collect()
        t0 = time.perf_counter()
        run_point(w, load, seed, PROBE_END)
        spans.append((t0, time.perf_counter()))
    return spans


def timed(w, seed: int) -> dict:
    """Set-up probes and a full run at every load point, in host and reference seconds.

    A point's set-up time is the median of its probes.  Host seconds leave
    out the sampler's bursts, which run in the workers in process mode
    (see ``calibrate.py``).
    """
    spans = []
    with Sampler(in_workers=w.procs > 1) as sampler:
        for load in w.loads:
            probes = _probe_spans(w, load, seed)
            gc.collect()
            t0 = time.perf_counter()
            result = run_point(w, load, seed, w.duration)
            t1 = time.perf_counter()
            spans.append((load, probes, (t0, t1), fingerprint(result)))
            del result
    points = []
    for load, probes, run, fp in spans:
        points.append(
            {
                "load": load,
                "setup_s": statistics.median(sampler.host_s(*p) for p in probes),
                "wall_s": sampler.host_s(*run),
                "setup_ref_s": statistics.median(sampler.reference_s(*p) for p in probes),
                "wall_ref_s": sampler.reference_s(*run),
                **fp,
            }
        )
    return {
        "points": points,
        "peak_rss_mb": _peak_rss_mb(w.procs),
        "burst_s": statistics.median(sampler.times),
    }


def _stop_profiling_in_workers() -> None:
    # Forked workers inherit the profiler; their profiles are never read,
    # so they run unprofiled instead of paying for it.
    sys.setprofile(None)


def traced(w, seed: int) -> dict:
    from layers import attribute
    from repro.obs.metrics import MetricsRecorder
    from repro.obs.spans import SpanTracer

    os.register_at_fork(after_in_child=_stop_profiling_in_workers)
    spans = SpanTracer()
    metrics = MetricsRecorder()
    profile = cProfile.Profile()
    points = []
    runs = []
    gc.collect()
    t0 = time.perf_counter()
    for load in w.loads:
        profile.enable()
        result = run_point(w, load, seed, w.duration, spans=spans, metrics=metrics)
        profile.disable()
        points.append({"load": load, **fingerprint(result)})
        runs.append((result.run, result.model_stats["routes"]))
        del result
    wall = time.perf_counter() - t0
    self_s, prof, unmapped = attribute(pstats.Stats(profile).stats, SRC)
    counters = {}
    for name in (
        "committed", "processed", "events_rolled_back", "rollbacks",
        "gvt_rounds", "fossil_collected", "pool_hits", "pool_allocs",
        "local_sends", "remote_sends", "ring_messages", "ring_bytes",
        "ring_full_stalls", "gvt_token_rounds",
    ):
        counters[name] = sum(getattr(run, name) for run, _ in runs)
    for name in ("peak_pending", "peak_processed"):
        counters[name] = max(getattr(run, name) for run, _ in runs)
    counters["routes"] = sum(routes for _, routes in runs)
    counters["sampled_peak_pending"] = max(
        (s.pending for s in metrics.samples), default=0
    )
    return {
        "points": points,
        "engine": w.engine,
        "procs": w.procs,
        "wall_s": wall,
        "self_s": self_s,
        "cumulative": prof["cumulative"],
        "calls": prof["calls"],
        "unmapped": sorted(unmapped),
        "phases": {ph: tot[1] for ph, tot in spans.totals.items()},
        "counters": counters,
    }


MODES = {"oracle": oracle, "timed": timed, "traced": traced}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    w = WORKLOADS[spec["workload"]]
    try:
        out = MODES[spec["mode"]](w, int(spec["seed"]))
    except Exception as exc:  # reported to the caller, which counts the failure
        out = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=-8),
            }
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
