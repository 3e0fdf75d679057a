"""Benchmark runner, trajectory files and regression comparison.

A full run produces one ``BENCH_<n>.json`` in the target directory, where
``n`` is one more than the highest existing index (the seed repo starts
the trajectory at ``BENCH_0.json``).  The file records, per suite, the
best wall-clock committed-events/second over the repeats plus the
simulation counters that make the number interpretable (rollback ratio,
peak live events, seed).  When a previous trajectory file exists, the new
results are compared against it and any suite whose throughput falls
below ``threshold × previous`` is reported as a regression (non-zero exit
from the CLI).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.suites import SUITES, Suite

__all__ = [
    "BenchResult",
    "run_suite",
    "run_suites",
    "load_previous",
    "load_trajectory",
    "compare",
    "compare_files",
    "write_trajectory",
    "mp_block",
]

#: Trajectory file pattern: BENCH_0.json, BENCH_1.json, ...
_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: Default regression gate: fail when a suite drops below 80% of the
#: previous trajectory's committed-events/sec (wall-clock noise on shared
#: machines makes a tighter default gate flaky).
DEFAULT_THRESHOLD = 0.8


@dataclass
class BenchResult:
    """Measured outcome of one suite."""

    name: str
    engine: str
    workload: str
    seed: int
    repeats: int
    committed: int
    processed: int
    events_rolled_back: int
    rollback_ratio: float
    peak_pending: int
    peak_processed: int
    pool_hits: int
    pool_allocs: int
    best_seconds: float
    mean_seconds: float
    committed_per_sec: float
    #: Pending-queue implementation and cancellation mode the suite ran
    #: under ("n/a" for engines without a pending queue).  Schema 2; the
    #: binary heap is the only queue now, but older files may name others.
    queue_impl: str = "n/a"
    cancellation: str = "n/a"
    #: LP stepping mode ("scalar" or "vectorized").  Schema 2; older
    #: files load with the "scalar" default (the only mode they had).
    executor: str = "scalar"
    #: Wall-clock percentiles over the repeats (== best/worst at 3
    #: repeats, informative at higher repeat counts).  Schema 2.
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0
    wall_seconds: list[float] = field(default_factory=list)
    #: Worker-process count and cross-process transport counters (1/0/0/0
    #: for in-process suites; see repro.mp).  Schema 3.
    procs: int = 1
    ring_messages: int = 0
    ring_bytes: int = 0
    ring_full_stalls: int = 0
    gvt_token_rounds: int = 0

    def as_dict(self) -> dict:
        """Flat JSON-ready dict (wall-clock samples rounded to microseconds)."""
        d = dict(self.__dict__)
        d["wall_seconds"] = [round(s, 6) for s in self.wall_seconds]
        return d


def _quantile(sorted_walls: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sample list."""
    if not sorted_walls:
        return 0.0
    if len(sorted_walls) == 1:
        return sorted_walls[0]
    pos = q * (len(sorted_walls) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_walls) - 1)
    frac = pos - lo
    return sorted_walls[lo] * (1.0 - frac) + sorted_walls[hi] * frac


def run_suite(
    suite: Suite,
    repeats: int = 3,
    smoke: bool = False,
    telemetry_dir: Path | None = None,
    cancellation: str | None = None,
    executor: str | None = None,
) -> BenchResult:
    """Run one suite ``repeats`` times and keep the best wall clock.

    The *best* run defines throughput (minimum interference from the OS);
    the mean is recorded so noisy environments are visible in the file.
    Garbage from earlier suites/repeats is collected *outside* the timed
    region (events sit in reference cycles via their prebuilt heap entry,
    so dead kernels are reclaimed only by the cycle collector — without
    this, later suites pay earlier suites' collection debt).

    With ``telemetry_dir``, one *extra untimed* run records GVT-interval
    metrics and wall-clock phase spans to ``<dir>/<suite>.jsonl`` (see
    :mod:`repro.obs`) — untimed so the throughput numbers measure the
    exact detached configuration.
    """
    walls: list[float] = []
    result = None
    for _ in range(max(1, repeats)):
        gc.collect()
        t0 = time.perf_counter()
        result = suite.run(smoke, cancellation=cancellation, executor=executor)
        walls.append(time.perf_counter() - t0)
        del result.lps[:]  # drop the LP population before the next repeat
    assert result is not None
    if telemetry_dir is not None:
        from repro.obs.capture import RunCapture

        telemetry_dir.mkdir(parents=True, exist_ok=True)
        capture = RunCapture(
            metrics_out=telemetry_dir / f"{suite.name}.jsonl",
            spans_out=telemetry_dir / f"{suite.name}.jsonl",
            meta={
                "suite": suite.name,
                "engine": suite.engine,
                "workload": suite.workload,
                "seed": suite.seed,
                "smoke": smoke,
                "cancellation": cancellation or "aggressive",
                "executor": executor or "scalar",
            },
        )
        try:
            telemetry_result = suite.run(
                smoke, metrics=capture.metrics, spans=capture.spans,
                cancellation=cancellation, executor=executor,
            )
        except KeyboardInterrupt:
            # Flush and close the sink so the partial recording is
            # loadable (the loader tolerates one torn trailing line, not
            # an unterminated stream) before the CLI exits 130.
            capture.finalize(None)
            raise
        capture.finalize(telemetry_result)
        del telemetry_result.lps[:]
    run = result.run
    best = min(walls)
    committed = run.committed
    ordered = sorted(walls)
    optimistic = suite.engine == "optimistic"
    return BenchResult(
        name=suite.name,
        engine=suite.engine,
        workload=suite.workload,
        seed=suite.seed,
        repeats=len(walls),
        committed=committed,
        processed=run.processed,
        events_rolled_back=run.events_rolled_back,
        rollback_ratio=(
            run.events_rolled_back / run.processed if run.processed else 0.0
        ),
        peak_pending=run.peak_pending,
        peak_processed=run.peak_processed,
        pool_hits=getattr(run, "pool_hits", 0),
        pool_allocs=getattr(run, "pool_allocs", 0),
        best_seconds=best,
        mean_seconds=sum(walls) / len(walls),
        committed_per_sec=committed / best if best > 0 else 0.0,
        queue_impl="heap" if optimistic else "n/a",
        cancellation=(cancellation or "aggressive") if optimistic else "n/a",
        executor=executor or "scalar",
        p50_seconds=_quantile(ordered, 0.50),
        p95_seconds=_quantile(ordered, 0.95),
        wall_seconds=walls,
        procs=getattr(run, "procs", 1),
        ring_messages=getattr(run, "ring_messages", 0),
        ring_bytes=getattr(run, "ring_bytes", 0),
        ring_full_stalls=getattr(run, "ring_full_stalls", 0),
        gvt_token_rounds=getattr(run, "gvt_token_rounds", 0),
    )


def run_suites(
    repeats: int = 3,
    smoke: bool = False,
    only: list[str] | None = None,
    report=print,
    telemetry_dir: Path | None = None,
    cancellation: str | None = None,
    executor: str | None = None,
) -> list[BenchResult]:
    """Run the (optionally filtered) suite matrix, reporting as it goes."""
    selected = [s for s in SUITES if only is None or s.name in only]
    if only is not None:
        unknown = set(only) - {s.name for s in SUITES}
        if unknown:
            raise SystemExit(
                f"unknown suite(s) {sorted(unknown)}; "
                f"choose from {[s.name for s in SUITES]}"
            )
    results = []
    for suite in selected:
        res = run_suite(
            suite, repeats=repeats, smoke=smoke, telemetry_dir=telemetry_dir,
            cancellation=cancellation, executor=executor,
        )
        report(
            f"  {res.name:<16} {res.committed_per_sec:>12,.0f} ev/s  "
            f"({res.committed:,} committed, best {res.best_seconds:.3f}s "
            f"of {res.repeats}, rb {res.rollback_ratio:.1%})"
        )
        results.append(res)
    return results


# ----------------------------------------------------------------------
# Trajectory files.
# ----------------------------------------------------------------------
def _indexed(directory: Path) -> list[tuple[int, Path]]:
    found = []
    for p in directory.iterdir():
        m = _BENCH_RE.match(p.name)
        if m:
            found.append((int(m.group(1)), p))
    return sorted(found)


#: Highest trajectory-file schema this loader understands.
SCHEMA_VERSION = 3


def _upgrade(doc: dict) -> dict:
    """Normalise an older-schema trajectory document in place.

    Schema 1 files predate the ``queue_impl`` / ``cancellation`` fields
    and the wall-clock percentiles; fill the values those runs actually
    used (the schema-1 harness always ran the heap queue with aggressive
    cancellation) so newer consumers can read any file on disk.  Schema 3
    adds the per-suite ``procs`` + ring counters and the top-level ``mp``
    scaling block; older files were all in-process (procs=1, no rings)
    and simply have no ``mp`` block to gate on.
    """
    schema = doc.get("schema", 1)
    if schema > SCHEMA_VERSION:
        raise ValueError(
            f"trajectory file schema {schema} is newer than this loader "
            f"(max {SCHEMA_VERSION})"
        )
    for suite in doc.get("suites", {}).values():
        if schema < 2:
            optimistic = suite.get("engine") == "optimistic"
            suite.setdefault("queue_impl", "heap" if optimistic else "n/a")
            suite.setdefault(
                "cancellation", "aggressive" if optimistic else "n/a"
            )
            walls = sorted(suite.get("wall_seconds", []))
            suite.setdefault("p50_seconds", _quantile(walls, 0.50))
            suite.setdefault("p95_seconds", _quantile(walls, 0.95))
        if schema < 3:
            suite.setdefault("procs", 1)
            suite.setdefault("ring_messages", 0)
            suite.setdefault("ring_bytes", 0)
            suite.setdefault("ring_full_stalls", 0)
            suite.setdefault("gvt_token_rounds", 0)
        suite.setdefault("executor", "scalar")
    return doc


#: Multicore acceptance gates, recorded in (and enforced from) the
#: trajectory file's ``mp`` block: at 4 worker processes the scale
#: workload must run at least this much faster than the same workload on
#: 1 worker process, and the 1-worker configuration may cost at most
#: this multiple of the plain in-process run (fork + rings + wave
#: overhead).  The speedup gate is physically meaningless on a host with
#: fewer cores than workers, so ``mp_block`` records it as waived there
#: (with the core count, so the waiver is auditable) and ``compare_files``
#: only enforces what the measuring host could actually show.
MP_SPEEDUP_MIN = 1.5
MP_OVERHEAD_MAX = 1.15


def mp_block(results: list[BenchResult]) -> dict | None:
    """Build the trajectory file's ``mp`` multicore-scaling block.

    ``None`` when no mp-hotpotato suite was run (e.g. ``--suite`` filters
    them out), so older-shaped files keep being written for in-process
    measurement sessions.
    """
    walls = {
        str(r.procs): r.best_seconds
        for r in results
        if r.name.startswith("mp-hotpotato-p")
    }
    if not walls:
        return None
    host_cores = os.cpu_count() or 1
    block: dict = {
        "host_cores": host_cores,
        "wall_seconds": {k: round(v, 6) for k, v in sorted(walls.items())},
        "speedup_min": MP_SPEEDUP_MIN,
        "overhead_max": MP_OVERHEAD_MAX,
    }
    w1, w4 = walls.get("1"), walls.get("4")
    if w1 and w4:
        block["speedup_4"] = round(w1 / w4, 4)
    base = next(
        (r for r in results if r.name == "opt-hotpotato-n128"), None
    )
    if w1 and base is not None and base.best_seconds:
        block["overhead_p1"] = round(w1 / base.best_seconds, 4)
    block["gate"] = (
        "enforced" if host_cores >= 4
        else f"waived: host has {host_cores} core(s), speedup needs >= 4"
    )
    return block


def load_trajectory(path: Path) -> dict:
    """Load one BENCH_<n>.json, upgrading older schemas (see _upgrade)."""
    with path.open() as f:
        return _upgrade(json.load(f))


def load_previous(directory: Path) -> tuple[dict | None, Path | None]:
    """Load the highest-index BENCH_<n>.json, if any."""
    found = _indexed(directory)
    if not found:
        return None, None
    _, path = found[-1]
    return load_trajectory(path), path


def next_path(directory: Path) -> Path:
    """Path of the next trajectory file (one past the highest index)."""
    found = _indexed(directory)
    n = found[-1][0] + 1 if found else 0
    return directory / f"BENCH_{n}.json"


def compare(
    results: list[BenchResult],
    previous: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[dict, list[str]]:
    """Compare against a previous trajectory file.

    Returns the per-suite comparison dict (stored in the new file) and a
    list of human-readable regression messages (empty = pass).
    """
    prev_suites = previous.get("suites", {})
    comparison: dict = {}
    regressions: list[str] = []
    for res in results:
        prev = prev_suites.get(res.name)
        if prev is None:
            continue
        prev_rate = prev.get("committed_per_sec", 0.0)
        speedup = res.committed_per_sec / prev_rate if prev_rate else float("inf")
        comparison[res.name] = {
            "previous_committed_per_sec": prev_rate,
            "committed_per_sec": res.committed_per_sec,
            "speedup": round(speedup, 4),
        }
        if prev_rate and speedup < threshold:
            regressions.append(
                f"{res.name}: {res.committed_per_sec:,.0f} ev/s is "
                f"{speedup:.2f}x the previous {prev_rate:,.0f} ev/s "
                f"(threshold {threshold:.2f}x)"
            )
    return comparison, regressions


def compare_files(
    path_a: Path,
    path_b: Path,
    threshold: float = DEFAULT_THRESHOLD,
    report=print,
) -> int:
    """Compare two trajectory files suite by suite (B measured against A).

    Prints a ratio table over the suites present in both files and
    returns the number of suites whose throughput in B fell below
    ``threshold × A`` — the CLI exit code, so 0 means no regression.
    Suites present in only one file are listed but not gated (a new
    suite has no baseline; a removed one has no measurement).
    """
    doc_a = load_trajectory(path_a)
    doc_b = load_trajectory(path_b)
    suites_a = doc_a.get("suites", {})
    suites_b = doc_b.get("suites", {})
    report(
        f"{'suite':<22} {path_a.name:>14} {path_b.name:>14} "
        f"{'ratio':>8}  config (B)"
    )
    regressions = 0
    for name in sorted(suites_a.keys() | suites_b.keys()):
        a = suites_a.get(name)
        b = suites_b.get(name)
        if a is None or b is None:
            only = path_b.name if a is None else path_a.name
            report(f"{name:<22} {'—':>14} {'—':>14} {'—':>8}  only in {only}")
            continue
        rate_a = a.get("committed_per_sec", 0.0)
        rate_b = b.get("committed_per_sec", 0.0)
        ratio = rate_b / rate_a if rate_a else float("inf")
        flag = ""
        if rate_a and ratio < threshold:
            regressions += 1
            flag = f"  REGRESSION (< {threshold:.2f}x)"
        config = (
            f"{b.get('queue_impl', '?')}/{b.get('cancellation', '?')}"
            f"/{b.get('executor', 'scalar')}"
        )
        report(
            f"{name:<22} {rate_a:>12,.0f}/s {rate_b:>12,.0f}/s "
            f"{ratio:>7.2f}x  {config}{flag}"
        )
    regressions += _check_mp_block(doc_b, report)
    return regressions


def _check_mp_block(doc: dict, report=print) -> int:
    """Gate a trajectory file's ``mp`` multicore-scaling block.

    Returns the number of failed gates (0 when the block is absent, or
    when it was recorded as waived because the measuring host had fewer
    cores than workers — the waiver and core count are printed so a
    single-core CI runner can't silently masquerade as a scaling result).
    """
    mp = doc.get("mp")
    if not mp:
        return 0
    speedup = mp.get("speedup_4")
    overhead = mp.get("overhead_p1")
    report(
        f"mp scaling: {mp.get('host_cores', '?')} host core(s), "
        f"p4 speedup {speedup if speedup is not None else '—'}x, "
        f"p1 overhead {overhead if overhead is not None else '—'}x "
        f"[{mp.get('gate', '?')}]"
    )
    if not str(mp.get("gate", "")).startswith("enforced"):
        return 0
    failures = 0
    speedup_min = mp.get("speedup_min", MP_SPEEDUP_MIN)
    overhead_max = mp.get("overhead_max", MP_OVERHEAD_MAX)
    if speedup is not None and speedup < speedup_min:
        report(
            f"  MP GATE FAIL: p4 speedup {speedup:.2f}x < {speedup_min}x"
        )
        failures += 1
    if overhead is not None and overhead > overhead_max:
        report(
            f"  MP GATE FAIL: p1 overhead {overhead:.2f}x > {overhead_max}x"
        )
        failures += 1
    return failures


def write_trajectory(
    path: Path,
    results: list[BenchResult],
    comparison: dict,
    baseline_name: str | None,
    threshold: float,
    mp: dict | None = None,
) -> None:
    """Write one BENCH_<n>.json trajectory file."""
    doc = {
        "schema": SCHEMA_VERSION,
        "label": path.stem,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_cores": os.cpu_count() or 1,
        "threshold": threshold,
        "baseline": baseline_name,
        "suites": {r.name: r.as_dict() for r in results},
        "comparison": comparison,
    }
    if mp is not None:
        doc["mp"] = mp
    with path.open("w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
