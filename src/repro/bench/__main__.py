"""CLI entry point: ``python -m repro.bench``.

Full mode runs the fixed suite, writes the next ``BENCH_<n>.json`` and
exits non-zero when any suite regressed past the threshold against the
previous trajectory file.  ``--smoke`` runs a sub-second version of the
matrix with no file output — a CI liveness check that also asserts the
optimistic engine commits exactly what the sequential oracle does on the
smoke workload.  ``--cancellation`` selects the optimistic engine's
cancellation mode and ``--executor`` the scalar vs vectorized LP
stepping mode (the committed counts must not change);
``--compare A.json B.json`` diffs two existing trajectory files without
running anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.harness import (
    DEFAULT_THRESHOLD,
    compare,
    compare_files,
    load_previous,
    mp_block,
    next_path,
    run_suites,
    write_trajectory,
)
from repro.bench.suites import SUITES

#: Faults-off guard gate: an attached-but-empty fault driver may not cost
#: more than this multiple of the undecorated run.  Generous on purpose —
#: the smoke workload is sub-second, so timer noise dominates any real
#: per-round cost; the point is to catch a hook accidentally moved onto
#: the per-event path (which shows up as far more than 1.6x).
FAULT_OVERHEAD_LIMIT = 1.6

#: Checkpointing-off guard gate, same philosophy: an idle Checkpointer
#: (attached, cadence too long to ever write) exercises every
#: ``ckpt is not None`` branch the engines gained without touching disk,
#: so it may not cost more than this multiple of the detached run.
CKPT_OVERHEAD_LIMIT = 1.6

#: Span-tracer-attached gate.  Unlike the two above this one times the
#: hooks doing *real work* (a clock read and a ring append per phase
#: boundary), so the budget is the flight deck's promise: attaching the
#: span tracer may not slow the smoke workload by more than 10%.  Best
#: of 5 on both sides to keep sub-second timer noise out of the ratio.
SPANS_OVERHEAD_LIMIT = 1.10

#: Liveness-watchdog-attached gate (docs/HEALTH.md): the watchdog is
#: consulted only at GVT boundaries, so attaching it may not slow the
#: smoke workload by more than 10% — and a *healthy* run must produce
#: zero health events at the default thresholds.  Detached it costs
#: nothing (the golden committed counts above pin that path).
HEALTH_OVERHEAD_LIMIT = 1.10

#: Golden committed counts for the smoke workloads, pinned from the
#: pre-checkpointing tree.  Checkpoint/paranoid/fault hooks live off the
#: fused fast paths; if a detached-hook run commits anything else, event
#: order (and therefore science) changed, not just speed.
SMOKE_GOLDEN = {
    "seq-phold": 584,
    "cons-phold": 584,
    "opt-phold": 584,
    "seq-hotpotato": 1055,
    "cons-hotpotato": 1055,
    "opt-hotpotato": 1055,
    # The stress suites commit the same work under every --cancellation
    # and --executor combination; CI runs them all, so
    # these pins double as the cross-mode determinism gate.
    "opt-phold-stress": 657,
    "opt-hotpotato-stress": 1055,
    # The multicore suites run the same smoke network as the in-process
    # hot-potato suites, so matching the 1055 golden at every process
    # count IS the cross-process determinism smoke gate.
    "opt-hotpotato-n128": 1055,
    "mp-hotpotato-p1": 1055,
    "mp-hotpotato-p2": 1055,
    "mp-hotpotato-p4": 1055,
}


def _fault_hooks_overhead_ok() -> bool:
    """Assert the fault hooks cost nothing measurable when no plan is set.

    Runs the opt-hotpotato smoke workload twice (best of 3 each): once
    plain, once with an *empty* FaultPlan's EngineFaults attached.  The
    empty driver exercises every ``faults is not None`` check the engines
    gained — per scheduler round, never per event — without wrapping the
    transport, so the two runs must commit identically and take
    indistinguishable time.
    """
    import time

    from repro.bench.suites import _opt_hotpotato
    from repro.core.config import EngineConfig
    from repro.core.optimistic import run_optimistic
    from repro.bench.suites import BENCH_SEED, _hotpotato_cfg
    from repro.faults import EngineFaults, FaultPlan
    from repro.hotpotato.model import HotPotatoModel

    def best(runner) -> tuple[float, int]:
        elapsed, committed = float("inf"), -1
        for _ in range(3):
            start = time.perf_counter()
            result = runner()
            elapsed = min(elapsed, time.perf_counter() - start)
            committed = result.run.committed
        return elapsed, committed

    def faulted():
        cfg = _hotpotato_cfg(True)
        ecfg = EngineConfig(
            end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64,
            seed=BENCH_SEED,
        )
        return run_optimistic(
            HotPotatoModel(cfg), ecfg, faults=EngineFaults(FaultPlan())
        )

    plain_s, plain_committed = best(lambda: _opt_hotpotato(True))
    hooked_s, hooked_committed = best(faulted)
    ratio = hooked_s / plain_s if plain_s else 1.0
    print(
        f"fault-hook overhead: plain {plain_s * 1e3:.1f}ms, "
        f"empty-plan {hooked_s * 1e3:.1f}ms ({ratio:.2f}x)"
    )
    if hooked_committed != plain_committed:
        print(
            f"FAIL: empty fault plan changed committed count "
            f"({hooked_committed} != {plain_committed})"
        )
        return False
    if ratio > FAULT_OVERHEAD_LIMIT:
        print(
            f"FAIL: attached-but-empty fault driver costs {ratio:.2f}x "
            f"(limit {FAULT_OVERHEAD_LIMIT}x) — a hook has crept onto a "
            "hot path"
        )
        return False
    return True


def _ckpt_overhead_ok() -> bool:
    """Assert checkpointing costs nothing measurable while detached.

    Three opt-hotpotato smoke configurations:

    * plain (best of 3) — the baseline;
    * idle ``Checkpointer(every=2**30)`` attached (best of 3) — every
      ``ckpt is not None`` branch runs, no snapshot is ever written;
      must commit identically and take indistinguishable time;
    * ``every=1`` in a temp dir (once, untimed) — must still commit
      identically and actually write snapshots, proving the hook is
      live and harmless rather than dead.
    """
    import tempfile
    import time

    from repro.bench.suites import BENCH_SEED, _hotpotato_cfg, _opt_hotpotato
    from repro.ckpt import SNAPSHOT_SUFFIX, Checkpointer
    from repro.core.config import EngineConfig
    from repro.core.optimistic import run_optimistic
    from repro.hotpotato.model import HotPotatoModel

    def checkpointed(ckpt) -> "RunResult":
        cfg = _hotpotato_cfg(True)
        ecfg = EngineConfig(
            end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64,
            seed=BENCH_SEED,
        )
        return run_optimistic(HotPotatoModel(cfg), ecfg, checkpointer=ckpt)

    def best(runner) -> tuple[float, int]:
        elapsed, committed = float("inf"), -1
        for _ in range(3):
            start = time.perf_counter()
            result = runner()
            elapsed = min(elapsed, time.perf_counter() - start)
            committed = result.run.committed
        return elapsed, committed

    with tempfile.TemporaryDirectory() as tmp:
        plain_s, plain_committed = best(lambda: _opt_hotpotato(True))
        idle_s, idle_committed = best(
            lambda: checkpointed(Checkpointer(f"{tmp}/idle", every=1 << 30))
        )
        hot = Checkpointer(f"{tmp}/hot", every=1)
        hot_committed = checkpointed(hot).run.committed
        snapshots = hot.written
    ratio = idle_s / plain_s if plain_s else 1.0
    print(
        f"checkpoint overhead: plain {plain_s * 1e3:.1f}ms, "
        f"idle-checkpointer {idle_s * 1e3:.1f}ms ({ratio:.2f}x); "
        f"every=1 wrote {snapshots} snapshot(s)"
    )
    if idle_committed != plain_committed or hot_committed != plain_committed:
        print(
            f"FAIL: checkpointer changed committed count (plain "
            f"{plain_committed}, idle {idle_committed}, every=1 {hot_committed})"
        )
        return False
    if not snapshots:
        print(f"FAIL: every=1 checkpointer wrote no {SNAPSHOT_SUFFIX} snapshot")
        return False
    if ratio > CKPT_OVERHEAD_LIMIT:
        print(
            f"FAIL: attached-but-idle checkpointer costs {ratio:.2f}x "
            f"(limit {CKPT_OVERHEAD_LIMIT}x) — the boundary hook has crept "
            "onto a hot path"
        )
        return False
    return True


def _spans_overhead_ok() -> bool:
    """Assert an attached span tracer stays within its 10% wall budget.

    Runs the opt-hotpotato smoke workload plain and with a
    :class:`~repro.obs.spans.SpanTracer` attached, in back-to-back pairs,
    and takes the **median of the per-pair ratios**: adjacent runs see the
    same CPU frequency/scheduling state, so drift cancels within a pair
    and the median discards pairs a noise burst landed in (best-of-N on
    two separated blocks flaked on shared runners).  Each timed run gets
    a clean garbage-collector slate (collect, then disable during the
    run): on a ~10ms workload, the previous run's GC debt otherwise lands
    on whichever run comes second and reads as a fake ~10% "overhead" —
    a plain-vs-plain control showed the same skew.  The attached run must
    commit identically — spans never touch simulation state — must
    actually record spans (the hooks are live), and may not exceed
    ``SPANS_OVERHEAD_LIMIT`` x the plain wall time.
    """
    import gc
    import time

    from repro.bench.suites import BENCH_SEED, _hotpotato_cfg, _opt_hotpotato
    from repro.core.config import EngineConfig
    from repro.core.optimistic import run_optimistic
    from repro.hotpotato.model import HotPotatoModel
    from repro.obs.spans import SpanTracer

    def spanned():
        cfg = _hotpotato_cfg(True)
        ecfg = EngineConfig(
            end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64,
            seed=BENCH_SEED,
        )
        spans = SpanTracer()
        return run_optimistic(HotPotatoModel(cfg), ecfg, spans=spans), spans

    def timed(runner) -> tuple[float, int, object]:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result, extra = runner()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return elapsed, result.run.committed, extra

    pairs = 7
    ratios: list[float] = []
    plain_s = traced_s = float("inf")
    plain_committed = traced_committed = -1
    spans = None
    for _ in range(pairs):
        p, plain_committed, _unused = timed(lambda: (_opt_hotpotato(True), None))
        t, traced_committed, spans = timed(spanned)
        ratios.append(t / p if p else 1.0)
        plain_s = min(plain_s, p)
        traced_s = min(traced_s, t)
    ratio = sorted(ratios)[pairs // 2]
    print(
        f"span-tracer overhead: plain {plain_s * 1e3:.1f}ms, "
        f"attached {traced_s * 1e3:.1f}ms "
        f"(median of {pairs} paired ratios {ratio:.2f}x); "
        f"{len(spans)} span(s) recorded"
    )
    if traced_committed != plain_committed:
        print(
            f"FAIL: span tracer changed committed count "
            f"({traced_committed} != {plain_committed})"
        )
        return False
    if not len(spans):
        print("FAIL: attached span tracer recorded nothing — hooks are dead")
        return False
    if ratio > SPANS_OVERHEAD_LIMIT:
        print(
            f"FAIL: attached span tracer costs {ratio:.2f}x "
            f"(limit {SPANS_OVERHEAD_LIMIT}x) — a span record has crept "
            "onto the per-event path"
        )
        return False
    return True


def _health_overhead_ok() -> bool:
    """Assert an attached liveness watchdog stays within its 10% budget.

    Same paired-ratio protocol as :func:`_spans_overhead_ok` (adjacent
    plain/attached runs, median per-pair ratio, clean GC slate per run).
    The attached run must commit identically — the watchdog only reads
    at GVT boundaries, except for the throttle rung, which a healthy run
    never reaches — must actually have been consulted (boundaries > 0),
    must produce **zero** health events at the default thresholds on
    this healthy workload, and may not exceed
    ``HEALTH_OVERHEAD_LIMIT`` x the plain wall time.
    """
    import gc
    import time

    from repro.bench.suites import BENCH_SEED, _hotpotato_cfg, _opt_hotpotato
    from repro.core.config import EngineConfig
    from repro.core.optimistic import run_optimistic
    from repro.health import Watchdog
    from repro.hotpotato.model import HotPotatoModel

    def watched():
        cfg = _hotpotato_cfg(True)
        ecfg = EngineConfig(
            end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64,
            seed=BENCH_SEED,
        )
        wd = Watchdog()
        return run_optimistic(HotPotatoModel(cfg), ecfg, health=wd), wd

    def timed(runner) -> tuple[float, int, object]:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result, extra = runner()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return elapsed, result.run.committed, extra

    pairs = 7
    ratios: list[float] = []
    plain_s = watched_s = float("inf")
    plain_committed = watched_committed = -1
    wd = None
    for _ in range(pairs):
        p, plain_committed, _unused = timed(lambda: (_opt_hotpotato(True), None))
        w, watched_committed, wd = timed(watched)
        ratios.append(w / p if p else 1.0)
        plain_s = min(plain_s, p)
        watched_s = min(watched_s, w)
    ratio = sorted(ratios)[pairs // 2]
    print(
        f"watchdog overhead: plain {plain_s * 1e3:.1f}ms, "
        f"attached {watched_s * 1e3:.1f}ms "
        f"(median of {pairs} paired ratios {ratio:.2f}x); "
        f"{wd.boundaries} boundary check(s), {len(wd.events)} event(s)"
    )
    if watched_committed != plain_committed:
        print(
            f"FAIL: watchdog changed committed count "
            f"({watched_committed} != {plain_committed})"
        )
        return False
    if not wd.boundaries:
        print("FAIL: attached watchdog was never consulted — hooks are dead")
        return False
    if wd.events:
        print(
            f"FAIL: healthy smoke run tripped the watchdog "
            f"{len(wd.events)} time(s) at default thresholds: "
            + "; ".join(str(e) for e in wd.events)
        )
        return False
    if ratio > HEALTH_OVERHEAD_LIMIT:
        print(
            f"FAIL: attached watchdog costs {ratio:.2f}x "
            f"(limit {HEALTH_OVERHEAD_LIMIT}x) — a health check has "
            "crept onto the per-event path"
        )
        return False
    return True


def _smoke_golden_ok(by_name: dict) -> bool:
    """Pin every smoke suite's committed count to the golden fixture."""
    ok = True
    for name, want in SMOKE_GOLDEN.items():
        result = by_name.get(name)
        if result is None:
            continue  # suite filtered out with --suite
        if result.committed != want:
            print(
                f"FAIL: {name} committed {result.committed} != golden {want} "
                "(no-checkpoint runs must stay bit-identical to the "
                "pre-checkpoint tree)"
            )
            ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny suite, no trajectory file; includes a determinism check",
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=Path("."),
        help="directory holding BENCH_<n>.json files (default: cwd)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed runs per suite (best kept)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="regression gate: fail below this fraction of the previous rate",
    )
    parser.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help=f"run only the named suite(s); choices: {[s.name for s in SUITES]}",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and compare but do not write a trajectory file",
    )
    parser.add_argument(
        "--cancellation",
        choices=("aggressive", "lazy"),
        default=None,
        help="anti-message cancellation mode for the optimistic suites "
        "(default: the engine default, aggressive)",
    )
    parser.add_argument(
        "--executor",
        choices=("scalar", "vectorized"),
        default=None,
        help="LP stepping mode for every suite (default: the engine "
        "default, scalar); committed counts must not change",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("A.json", "B.json"),
        default=None,
        help="compare two existing trajectory files (B against A) and "
        "exit non-zero when any shared suite in B falls below "
        "--threshold x A; no suites are run",
    )
    parser.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="record per-suite GVT-interval metrics to DIR/<suite>.jsonl "
        "via one extra untimed run each (inspect with python -m repro.obs)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="after the timed suites, run the headline opt-hotpotato "
        "workload once untimed with a checkpointer writing snapshots to "
        "DIR (inspect with python -m repro.ckpt info DIR)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        metavar="N",
        help="snapshot cadence in GVT boundaries for --checkpoint-dir "
        "(default 4)",
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


def _checkpointed_run(directory: Path, every: int, smoke: bool) -> None:
    """One untimed checkpointed opt-hotpotato run writing into ``directory``."""
    from repro.bench.suites import BENCH_SEED, _hotpotato_cfg
    from repro.ckpt import Checkpointer
    from repro.core.config import EngineConfig
    from repro.core.optimistic import run_optimistic
    from repro.hotpotato.model import HotPotatoModel

    cfg = _hotpotato_cfg(smoke)
    ecfg = EngineConfig(
        end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64, seed=BENCH_SEED
    )
    ckpt = Checkpointer(
        directory,
        every=every,
        marker={"suite": "opt-hotpotato", "smoke": smoke, "seed": BENCH_SEED},
    )
    result = run_optimistic(HotPotatoModel(cfg), ecfg, checkpointer=ckpt)
    print(
        f"checkpointed opt-hotpotato: {result.run.committed:,} committed, "
        f"{ckpt.written} snapshot(s) in {directory}"
    )


def _run(args) -> int:

    if args.compare is not None:
        path_a, path_b = args.compare
        for p in (path_a, path_b):
            if not p.is_file():
                print(f"no such trajectory file: {p}", file=sys.stderr)
                return 2
        regressions = compare_files(path_a, path_b, args.threshold)
        if regressions:
            print(f"PERFORMANCE REGRESSION: {regressions} suite(s) below "
                  f"{args.threshold:.2f}x")
            return 1
        return 0

    if args.smoke:
        mode = f"cancellation={args.cancellation or 'aggressive'}, " \
               f"executor={args.executor or 'scalar'}"
        print(f"repro.bench --smoke ({mode}; liveness + determinism, "
              "not a benchmark)")
        results = run_suites(
            repeats=1, smoke=True, only=args.suites,
            telemetry_dir=args.telemetry_dir,
            cancellation=args.cancellation, executor=args.executor,
        )
        by_name = {r.name: r for r in results}
        seq = by_name.get("seq-hotpotato")
        opt = by_name.get("opt-hotpotato")
        if seq is not None and opt is not None and seq.committed != opt.committed:
            print(
                f"FAIL: optimistic committed {opt.committed} != "
                f"sequential {seq.committed} on the smoke workload"
            )
            return 1
        if not _smoke_golden_ok(by_name):
            return 1
        if not _fault_hooks_overhead_ok():
            return 1
        if not _ckpt_overhead_ok():
            return 1
        if not _spans_overhead_ok():
            return 1
        if not _health_overhead_ok():
            return 1
        if args.checkpoint_dir is not None:
            _checkpointed_run(args.checkpoint_dir, args.checkpoint_every, True)
        print("smoke ok")
        return 0

    directory = args.dir
    directory.mkdir(parents=True, exist_ok=True)
    previous, prev_path = load_previous(directory)
    label = "none (first trajectory point)" if prev_path is None else prev_path.name
    print(f"repro.bench: {args.repeats} repeats/suite, baseline {label}")
    results = run_suites(
        repeats=args.repeats, only=args.suites,
        telemetry_dir=args.telemetry_dir,
        cancellation=args.cancellation, executor=args.executor,
    )
    if args.checkpoint_dir is not None:
        _checkpointed_run(args.checkpoint_dir, args.checkpoint_every, False)

    comparison: dict = {}
    regressions: list[str] = []
    if previous is not None:
        comparison, regressions = compare(results, previous, args.threshold)
        for name, row in comparison.items():
            print(f"  {name:<16} {row['speedup']:>6.2f}x vs {prev_path.name}")

    mp = mp_block(results)
    if mp is not None:
        print(
            f"mp scaling: {mp['host_cores']} host core(s), "
            f"p4 speedup {mp.get('speedup_4', '—')}x, "
            f"p1 overhead {mp.get('overhead_p1', '—')}x [{mp['gate']}]"
        )

    if not args.no_write:
        out = next_path(directory)
        write_trajectory(
            out,
            results,
            comparison,
            prev_path.name if prev_path is not None else None,
            args.threshold,
            mp=mp,
        )
        print(f"wrote {out}")

    if regressions:
        print("PERFORMANCE REGRESSION:")
        for msg in regressions:
            print(f"  {msg}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
