"""Shared plumbing for the figure-reproduction experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.mapping import kp_count_for
from repro.core.result import RunResult

__all__ = [
    "SweepParams",
    "run_hotpotato_sequential",
    "run_hotpotato_parallel",
    "run_scenario_point",
    "point_simulation",
    "point_knobs",
    "run_point_inline",
    "kp_count_for",
    "set_telemetry_dir",
    "set_supervisor",
    "set_parallelism",
]

#: When set (see :func:`set_telemetry_dir`), every hot-potato run the
#: experiment workhorses execute records its GVT-interval metrics to one
#: JSONL file in this directory, named from the run parameters.
_TELEMETRY_DIR: Path | None = None


def set_telemetry_dir(directory: Path | str | None) -> None:
    """Enable (or, with ``None``, disable) per-run telemetry capture.

    Used by the experiments CLI's ``--telemetry-dir``; repeated runs with
    identical parameters overwrite each other's file (the runs are
    deterministic, so nothing is lost).
    """
    global _TELEMETRY_DIR
    _TELEMETRY_DIR = None if directory is None else Path(directory)
    if _TELEMETRY_DIR is not None:
        _TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)


def _capture(tag: str, meta: dict):
    """Build a RunCapture for one tagged run, or None when disabled."""
    if _TELEMETRY_DIR is None:
        return None
    from repro.obs.capture import RunCapture

    return RunCapture(metrics_out=_TELEMETRY_DIR / f"{tag}.jsonl", meta=meta)


#: When set (see :func:`set_supervisor`), the workhorses below do not
#: simulate in this process: each run becomes a sweep-point spec handed
#: to the :class:`repro.experiments.supervisor.Supervisor`, which
#: executes it in a watchdogged child process with checkpoint/resume,
#: bounded retries and optimistic→conservative fallback.
_SUPERVISOR = None


def set_supervisor(supervisor) -> None:
    """Route every subsequent workhorse run through ``supervisor``
    (``None`` restores in-process execution)."""
    global _SUPERVISOR
    _SUPERVISOR = supervisor


#: When set (see :func:`set_parallelism`), every Time Warp run the
#: workhorses execute goes through process mode: ``(procs, gvt_interval)``.
_PARALLELISM: tuple[int, int] | None = None


def set_parallelism(procs: int | None, gvt_interval: int = 8) -> None:
    """Route subsequent :func:`run_hotpotato_parallel` calls through
    ``procs`` OS worker processes (``None`` restores in-process runs).

    Committed results are bit-identical either way, so every figure's
    numbers are unchanged — only the wall-clock profile moves.  Points
    whose PE count is not a multiple of ``procs`` fall back to the
    in-process engine (a PE cannot be split across workers), as do
    supervised (``--out-dir``) sweeps, whose points already run in their
    own checkpointed child processes.  ``gvt_interval`` replaces the
    engine default of 1 because in process mode every GVT is a
    cross-process stop-and-drain wave worth amortising.
    """
    global _PARALLELISM
    _PARALLELISM = None if procs is None else (procs, gvt_interval)


def _telemetry_path(tag: str) -> str | None:
    if _TELEMETRY_DIR is None:
        return None
    return str(_TELEMETRY_DIR / f"{tag}.jsonl")


def _supervised(spec: dict, tag: str) -> RunResult:
    doc = _SUPERVISOR.run_point({
        **spec, "telemetry": _telemetry_path(tag),
        "checkpoint_every": _SUPERVISOR.cfg.checkpoint_every,
    })
    # The child strips the LPs (their fused handlers don't pickle);
    # every experiment consumes only the statistics.
    return RunResult(model_stats=doc["model_stats"], run=doc["run"], lps=[])


def _delivery_percentiles(log) -> dict:
    """Nearest-rank latency percentiles of a ``(step, latency)`` log."""
    if not log:
        return {"latency_p50": 0.0, "latency_p95": 0.0, "latency_p99": 0.0}
    latencies = sorted(latency for _, latency in log)

    def rank(q: float) -> float:
        return float(latencies[max(0, math.ceil(q * len(latencies)) - 1)])

    return {
        "latency_p50": rank(0.50),
        "latency_p95": rank(0.95),
        "latency_p99": rank(0.99),
    }


def point_simulation(spec: dict):
    """The workload a sweep-point spec describes, as a simulation.

    A scenario spec recompiles its file and refuses to run if the file no
    longer hashes to the recorded value; a plain spec is an n×n torus at
    ``load`` with the spec's ``fault``.
    """
    scen = spec.get("scenario")
    if scen is None:
        from repro.faults import plan_from_spec
        from repro.hotpotato.config import HotPotatoConfig
        from repro.hotpotato.simulation import HotPotatoSimulation

        cfg = HotPotatoConfig(
            n=spec["n"], duration=spec["duration"], injector_fraction=spec["load"]
        )
        return HotPotatoSimulation(
            cfg, fault_plan=plan_from_spec(spec.get("fault"), cfg)
        )
    from repro.scenarios import compile_scenario, load_scenario

    compiled = compile_scenario(load_scenario(scen["path"]))
    digest = compiled.scenario_hash()
    want = scen.get("hash")
    if want and digest != want:
        raise ValueError(
            f"scenario {scen['path']!r} hashes to {digest}, but the sweep "
            f"manifest recorded {want}; the file changed since the sweep "
            "was launched — refusing to compute a different experiment"
        )
    return compiled


def point_knobs(spec: dict) -> dict:
    """The engine knobs a sweep-point spec sets: its seed, plus the PE
    count (conservative) or PE/KP/batch/window and overrides (optimistic)."""
    knobs = {"seed": spec["seed"]}
    if spec["kind"] == "cons":
        knobs["n_pes"] = spec["n_pes"]
    elif spec["kind"] == "opt":
        knobs.update(
            n_pes=spec["n_pes"],
            n_kps=spec["n_kps"],
            batch_size=spec.get("batch_size", 16),
            window=spec.get("window"),
            **(spec.get("overrides") or {}),
        )
    return knobs


def run_point_inline(sim, spec: dict, *, capture=None, checkpointer=None):
    """Build a sweep point's engine over ``sim``, attach, run it here.

    Sequential scenario points keep a delivery log and add nearest-rank
    latency percentiles (``latency_p50``/``_p95``/``_p99``) to
    ``model_stats``.
    """
    percentiles = "scenario" in spec and spec["kind"] == "seq"
    if percentiles:
        sim.cfg = replace(sim.cfg, delivery_log=True)
    engine = sim.engine(spec["kind"], **point_knobs(spec))
    if capture is not None:
        capture.attach(engine)
    if checkpointer is not None:
        engine.attach_checkpointer(checkpointer)
        checkpointer.capture = capture
    result = engine.run()
    if percentiles:
        result.model_stats.update(_delivery_percentiles(engine.model.delivery_log))
    return result


def _inline(spec: dict, tag: str, meta: dict) -> RunResult:
    """Run a plain (non-scenario) point in this process."""
    capture = _capture(tag, meta)
    result = point_simulation(spec).run(
        spec["kind"],
        metrics=capture.metrics if capture is not None else None,
        **point_knobs(spec),
    )
    if capture is not None:
        capture.finalize(result)
    return result


#: Injection loads used by Figs 3 and 4 ("% Injecting Routers").
DEFAULT_LOADS: tuple[float, ...] = (0.25, 0.50, 0.75, 1.00)


@dataclass(frozen=True)
class SweepParams:
    """Parameters shared by the experiment runners.

    The defaults are laptop-scale; the report sweeps N up to 256 and the
    CLI accepts the full range (``--sizes 8,16,...,256``) for anyone with
    the patience.
    """

    sizes: tuple[int, ...] = (8, 16)
    duration: float = 100.0
    loads: tuple[float, ...] = DEFAULT_LOADS
    pe_counts: tuple[int, ...] = (1, 2, 4)
    kp_counts: tuple[int, ...] = (4, 8, 16, 32, 64)
    batch_size: int = 16
    #: Virtual-time optimism window (steps) for the Time Warp sweeps; see
    #: EngineConfig.window.  Scales per-round optimism with network size.
    window: float = 2.0
    #: Independent seeds per data point for figs 3/4 (1 = the report's
    #: single-seed methodology; more adds Student-t confidence intervals).
    replications: int = 1
    seed: int = 0x5EED
    #: Link-failure fractions swept by the resilience experiment (0.0 is
    #: the unfaulted baseline row).
    fault_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20)
    #: Explicit FaultPlan JSON file; when set, the resilience experiment
    #: runs that single plan instead of sweeping ``fault_rates``.
    fault_plan: str | None = None
    #: Seed for rate-generated fault plans (None = repro.faults default).
    fault_seed: int | None = None
    #: Scenario JSON files (see docs/SCENARIOS.md) compared side by side
    #: by the ``scenarios`` experiment; each file fully describes its own
    #: topology, traffic, policy, engine defaults and faults.
    scenarios: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one network size required")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if any(not 0.0 <= r <= 1.0 for r in self.fault_rates):
            raise ValueError("fault_rates must be fractions in [0, 1]")

    def seeds(self) -> tuple[int, ...]:
        """The independent seeds used for replicated data points."""
        return tuple(self.seed + i for i in range(self.replications))


def run_hotpotato_sequential(
    n: int, load: float, duration: float, seed: int, *, fault=None
) -> RunResult:
    """One sequential hot-potato run (the Fig 3/4 workhorse).

    ``fault`` is an optional JSON-shaped fault spec (``{"plan": path}``
    or ``{"link_rate": r, "seed": s}``, see
    :func:`repro.faults.plan_from_spec`) so the run stays describable as
    a supervisor sweep point.
    """
    tag = f"seq_n{n}_load{load:g}_d{duration:g}_s{seed}"
    spec = {"kind": "seq", "n": n, "load": load, "duration": duration,
            "seed": seed, "fault": fault}
    if _SUPERVISOR is not None:
        return _supervised(spec, tag)
    return _inline(
        spec, tag,
        {"engine": "sequential", "n": n, "load": load, "duration": duration,
         "seed": seed},
    )


def run_hotpotato_parallel(
    n: int,
    load: float,
    duration: float,
    seed: int,
    *,
    n_pes: int,
    n_kps: int,
    batch_size: int = 16,
    window: float | None = None,
    fault=None,
    **overrides,
) -> RunResult:
    """One Time Warp hot-potato run (the Fig 5-8 workhorse).

    When ``window`` is given, the batch size becomes a generous cap and
    the virtual-time window drives per-round optimism (ROSS-like).
    ``fault`` takes a JSON-shaped fault spec as in
    :func:`run_hotpotato_sequential`.
    """
    if window is not None:
        batch_size = max(batch_size, 1 << 20)
    tag = f"opt_n{n}_load{load:g}_d{duration:g}_pe{n_pes}_kp{n_kps}_s{seed}"
    spec = {
        "kind": "opt", "n": n, "load": load, "duration": duration,
        "seed": seed, "n_pes": n_pes, "n_kps": n_kps,
        "batch_size": batch_size, "window": window,
        "overrides": overrides or None, "fault": fault,
    }
    if _SUPERVISOR is not None:
        return _supervised(spec, tag)
    if _PARALLELISM is not None and "parallelism" not in overrides:
        procs, gvt_interval = _PARALLELISM
        # A PE cannot be split across workers, so points whose PE count
        # doesn't tile over the processes stay in-process (results are
        # bit-identical either way).
        if n_pes % procs == 0:
            spec["overrides"] = {
                "gvt_interval": gvt_interval, **overrides,
                "parallelism": "process", "procs": procs,
            }
    return _inline(
        spec, tag,
        {"engine": "optimistic", "n": n, "load": load, "duration": duration,
         "n_pes": n_pes, "n_kps": n_kps, "seed": seed},
    )


def run_scenario_point(
    path: str, *, kind: str = "seq", seed: int | None = None
) -> RunResult:
    """One declared-scenario run (the scenario-compare workhorse).

    ``kind`` is a supervisor point kind (``seq`` / ``opt`` / ``cons``);
    everything else — topology, traffic, policy, duration, faults and the
    parallel-engine defaults — comes from the scenario file itself, so the
    sweep point is fully described by ``(kind, scenario, seed)``.  Under a
    supervisor the spec carries the scenario's name, path *and* content
    hash; the pointworker re-hashes the file and refuses to run if it
    changed since the sweep was launched, so ``--resume`` is exact.

    Sequential runs keep a delivery log and add nearest-rank latency
    percentiles (``latency_p50`` / ``latency_p95`` / ``latency_p99``) to
    ``model_stats``.
    """
    from repro.scenarios import compile_scenario, load_scenario

    compiled = compile_scenario(load_scenario(path))
    if seed is None:
        seed = compiled.seed
    tag = f"scen_{compiled.name}_{kind}_s{seed}"
    spec = {
        "kind": kind,
        "scenario": {
            "path": str(path),
            "name": compiled.name,
            "hash": compiled.scenario_hash(),
        },
        "seed": seed,
    }
    if kind != "seq":
        defaults = compiled.engine_defaults
        spec.update(
            (key, defaults[key])
            for key in ("n_pes", "n_kps", "batch_size", "window")
        )
    if _SUPERVISOR is not None:
        return _supervised(spec, tag)
    capture = _capture(
        tag,
        {"engine": kind, "scenario": compiled.name,
         "scenario_hash": spec["scenario"]["hash"], "seed": seed},
    )
    result = run_point_inline(compiled, spec, capture=capture)
    if capture is not None:
        capture.finalize(result)
    return result
