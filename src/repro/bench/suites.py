"""The fixed benchmark suite: engines × workloads with pinned seeds.

Every suite builds its model and engine from scratch on each run (so no
state leaks between repeats) and returns the engine's
:class:`~repro.core.result.RunResult`.  Workload sizes are chosen so one
repeat of the full matrix takes a few seconds; ``smoke=True`` shrinks
everything to CI-smoke scale (< 1 s total) and is used by the harness's
cross-engine determinism check rather than for throughput numbers.

The optimistic suites additionally accept a ``cancellation`` override
(the CLI's ``--cancellation``), so the same pinned workloads can be
measured under lazy cancellation; every suite accepts an ``executor``
override selecting the scalar or vectorized (fused band batch) LP
stepping mode.  The committed counts must not change with either knob —
the smoke goldens in :mod:`repro.bench.__main__` enforce that.

The ``*-stress`` suites are deliberately rollback-heavy: PHOLD with
near-zero lookahead and a 90% remote fraction, and the saturated
hot-potato network with a large optimism batch.  They exist to show how
cancellation behaves when it dominates — the regime where lazy
cancellation earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, run_conservative
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.result import RunResult
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.phold import PholdConfig, PholdModel

__all__ = ["Suite", "SUITES"]

#: Global seed shared by every suite (per-LP streams derive from it).
BENCH_SEED = 0xB5EED


@dataclass(frozen=True)
class Suite:
    """One (engine, workload) cell of the benchmark matrix.

    ``run(smoke, metrics=None, spans=None, cancellation=None,
    executor=None)`` builds the model and engine from scratch and
    executes; the optional ``metrics`` recorder (see
    :mod:`repro.obs.metrics`) and ``spans`` tracer (see
    :mod:`repro.obs.spans`) enable per-cell telemetry capture — the
    harness attaches them only on a dedicated untimed run, so the timed
    repeats measure the exact detached configuration.  ``cancellation``
    selects the cancellation mode on the optimistic engine (the other
    engines accept and ignore it); ``executor`` selects scalar vs
    vectorized LP stepping (the conservative engine has no fused stepper
    and ignores it).
    """

    name: str
    engine: str
    workload: str
    seed: int
    run: Callable[..., RunResult]


def _phold_cfg(smoke: bool) -> tuple[PholdConfig, float]:
    if smoke:
        return PholdConfig(n_lps=32, jobs_per_lp=2), 10.0
    return PholdConfig(n_lps=256, jobs_per_lp=8), 30.0


def _phold_stress_cfg(smoke: bool) -> tuple[PholdConfig, float]:
    """Rollback-heavy PHOLD: almost no lookahead, 90% remote hops."""
    if smoke:
        return (
            PholdConfig(
                n_lps=32, jobs_per_lp=2, lookahead=0.01, remote_fraction=0.9
            ),
            10.0,
        )
    return (
        PholdConfig(
            n_lps=256, jobs_per_lp=8, lookahead=0.01, remote_fraction=0.9
        ),
        15.0,
    )


def _hotpotato_cfg(smoke: bool) -> HotPotatoConfig:
    if smoke:
        return HotPotatoConfig(n=4, duration=10.0, injector_fraction=1.0)
    return HotPotatoConfig(n=8, duration=60.0, injector_fraction=1.0)


def _hotpotato_n128_cfg(smoke: bool) -> HotPotatoConfig:
    """The multicore scale workload: >= 128 LPs.

    The grid is square, so 128 LPs rounds up to the next square number:
    n=12 gives 144 routers.  The duration is the longest in the matrix
    because the mp suites pay fixed per-run costs (fork, ring setup,
    shard merge) that must amortize for the p1-overhead number to
    measure the *transport*, not process startup.  Smoke scale reuses
    the 4x4 smoke network so the mp suites' committed counts pin to the
    same golden as the in-process hot-potato suites — the identity IS
    the check.
    """
    if smoke:
        return HotPotatoConfig(n=4, duration=10.0, injector_fraction=1.0)
    return HotPotatoConfig(n=12, duration=240.0, injector_fraction=1.0)


def _engine_overrides(cancellation, executor=None) -> dict:
    overrides = {}
    if cancellation is not None:
        overrides["cancellation"] = cancellation
    if executor is not None:
        overrides["executor"] = executor
    return overrides


# ----------------------------------------------------------------------
# Suite bodies.
# ----------------------------------------------------------------------
def _seq_phold(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg, end = _phold_cfg(smoke)
    return run_sequential(
        PholdModel(cfg), end, seed=BENCH_SEED,
        executor=executor or "scalar", metrics=metrics, spans=spans,
    )


def _seq_hotpotato(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg = _hotpotato_cfg(smoke)
    return run_sequential(
        HotPotatoModel(cfg), cfg.duration, seed=BENCH_SEED,
        executor=executor or "scalar", metrics=metrics, spans=spans,
    )


def _cons_phold(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg, end = _phold_cfg(smoke)
    ccfg = ConservativeConfig(end_time=end, n_pes=4, sync="yawns", seed=BENCH_SEED)
    return run_conservative(PholdModel(cfg), ccfg, metrics=metrics, spans=spans)


def _cons_hotpotato(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg = _hotpotato_cfg(smoke)
    ccfg = ConservativeConfig(
        end_time=cfg.duration, n_pes=4, sync="yawns", seed=BENCH_SEED
    )
    return run_conservative(HotPotatoModel(cfg), ccfg, metrics=metrics, spans=spans)


def _opt_phold(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg, end = _phold_cfg(smoke)
    ecfg = EngineConfig(
        end_time=end, n_pes=4, n_kps=16, batch_size=32, seed=BENCH_SEED,
        **_engine_overrides(cancellation, executor),
    )
    return run_optimistic(PholdModel(cfg), ecfg, metrics=metrics, spans=spans)


def _opt_phold_stress(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg, end = _phold_stress_cfg(smoke)
    ecfg = EngineConfig(
        end_time=end, n_pes=4, n_kps=16, batch_size=256, seed=BENCH_SEED,
        **_engine_overrides(cancellation, executor),
    )
    return run_optimistic(PholdModel(cfg), ecfg, metrics=metrics, spans=spans)


def _opt_hotpotato(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg = _hotpotato_cfg(smoke)
    ecfg = EngineConfig(
        end_time=cfg.duration,
        n_pes=4,
        n_kps=16,
        batch_size=64,
        seed=BENCH_SEED,
        **_engine_overrides(cancellation, executor),
    )
    return run_optimistic(HotPotatoModel(cfg), ecfg, metrics=metrics, spans=spans)


def _opt_hotpotato_stress(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg = _hotpotato_cfg(smoke)
    ecfg = EngineConfig(
        end_time=cfg.duration,
        n_pes=4,
        n_kps=16,
        batch_size=512,
        seed=BENCH_SEED,
        **_engine_overrides(cancellation, executor),
    )
    return run_optimistic(HotPotatoModel(cfg), ecfg, metrics=metrics, spans=spans)


def _opt_hotpotato_n128(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
    cfg = _hotpotato_n128_cfg(smoke)
    ecfg = EngineConfig(
        end_time=cfg.duration,
        n_pes=4,
        n_kps=16,
        batch_size=64,
        seed=BENCH_SEED,
        **_engine_overrides(cancellation, executor),
    )
    return run_optimistic(HotPotatoModel(cfg), ecfg, metrics=metrics, spans=spans)


def _mp_hotpotato(procs: int):
    """Build the mp-hotpotato suite body for one process count.

    Identical workload and engine geometry to ``opt-hotpotato-n128``
    (4 PEs over the 144-LP network), differing only in how the PEs are
    scheduled: ``procs`` forked OS processes over shared-memory rings.
    ``procs=1`` is the honest single-worker configuration — same fork,
    rings and GVT waves with nobody to talk to — whose distance from
    ``opt-hotpotato-n128`` *is* the process-mode overhead.  GVT runs
    every 16 rounds because in process mode each GVT is a cross-process
    stop-and-drain wave (the in-process default of 1 would serialize on
    wave latency, not event processing).
    """

    def run(smoke: bool, metrics=None, spans=None, cancellation=None, executor=None) -> RunResult:
        cfg = _hotpotato_n128_cfg(smoke)
        ecfg = EngineConfig(
            end_time=cfg.duration,
            n_pes=4,
            n_kps=16,
            batch_size=64,
            seed=BENCH_SEED,
            parallelism="process",
            procs=procs,
            gvt_interval=16,
            **_engine_overrides(cancellation, executor),
        )
        return run_optimistic(
            HotPotatoModel(cfg), ecfg, metrics=metrics, spans=spans
        )

    return run


#: The fixed matrix, in reporting order.  ``opt-hotpotato`` is the
#: headline suite tracked by the PR acceptance criteria; the ``*-stress``
#: suites characterise the rollback-dominated regime; the
#: ``mp-hotpotato-p*`` family measures true-multicore scaling against
#: ``opt-hotpotato-n128`` on the same 144-LP workload (the trajectory
#: file's ``mp`` block and ``--compare`` gate read these).
SUITES: tuple[Suite, ...] = (
    Suite("seq-phold", "sequential", "phold", BENCH_SEED, _seq_phold),
    Suite("seq-hotpotato", "sequential", "hotpotato", BENCH_SEED, _seq_hotpotato),
    Suite("cons-phold", "conservative", "phold", BENCH_SEED, _cons_phold),
    Suite("cons-hotpotato", "conservative", "hotpotato", BENCH_SEED, _cons_hotpotato),
    Suite("opt-phold", "optimistic", "phold", BENCH_SEED, _opt_phold),
    Suite("opt-hotpotato", "optimistic", "hotpotato", BENCH_SEED, _opt_hotpotato),
    Suite("opt-phold-stress", "optimistic", "phold-stress", BENCH_SEED, _opt_phold_stress),
    Suite(
        "opt-hotpotato-stress",
        "optimistic",
        "hotpotato-stress",
        BENCH_SEED,
        _opt_hotpotato_stress,
    ),
    Suite(
        "opt-hotpotato-n128",
        "optimistic",
        "hotpotato-n128",
        BENCH_SEED,
        _opt_hotpotato_n128,
    ),
    Suite("mp-hotpotato-p1", "multiprocess", "hotpotato-n128", BENCH_SEED, _mp_hotpotato(1)),
    Suite("mp-hotpotato-p2", "multiprocess", "hotpotato-n128", BENCH_SEED, _mp_hotpotato(2)),
    Suite("mp-hotpotato-p4", "multiprocess", "hotpotato-n128", BENCH_SEED, _mp_hotpotato(4)),
)
