"""High-level facade: one workload description, turned into any engine.

:class:`HotPotatoSimulation` is the one place a hot-potato workload — a
configuration, a routing policy, a fault plan, an optional adversary and
a seed — becomes an engine.  The CLIs, the sweep workers, the chaos
harness and the profiler all build through :meth:`~HotPotatoSimulation.
engine` or run through :meth:`~HotPotatoSimulation.run`, so a workload
means the same thing on every engine and in every tool.
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.conservative import ConservativeConfig, ConservativeKernel
from repro.core.config import EngineConfig
from repro.core.engine import SequentialEngine
from repro.core.mapping import build_mapping, kp_count_for
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.core.result import RunResult
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import RoutingPolicy

__all__ = ["ENGINES", "ENGINE_ALIASES", "HotPotatoSimulation", "engine_kind"]

#: The three engines, by full name.
ENGINES = ("sequential", "conservative", "optimistic")
#: Short engine names accepted everywhere next to the full ones.
ENGINE_ALIASES = {"seq": "sequential", "cons": "conservative", "opt": "optimistic"}

#: Knob names each engine accepts; engine defaults it lacks are skipped.
_KNOBS = {
    "sequential": ("seed", "cost", "pool", "paranoid", "executor"),
    "conservative": tuple(f.name for f in fields(ConservativeConfig)),
    "optimistic": tuple(f.name for f in fields(EngineConfig)),
}


def engine_kind(kind: str) -> str:
    """The full engine name for ``kind`` (a full name or seq/cons/opt)."""
    name = ENGINE_ALIASES.get(kind, kind)
    if name not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {kind!r}; choose from {', '.join(ENGINES)} "
            f"or {', '.join(ENGINE_ALIASES)}"
        )
    return name


class HotPotatoSimulation:
    """One-stop API for running the hot-potato model.

    Examples
    --------
    >>> sim = HotPotatoSimulation(HotPotatoConfig(n=8, duration=50.0))
    >>> seq = sim.run()                      # sequential oracle
    >>> par = sim.run("opt", n_pes=4, n_kps=16)
    >>> assert seq.model_stats == par.model_stats   # repeatability
    >>> kernel = sim.engine("optimistic")    # built, not yet run
    """

    def __init__(
        self,
        cfg: HotPotatoConfig | None = None,
        policy: RoutingPolicy | None = None,
        *,
        seed: int = 0x5EED,
        fault_plan=None,
        injection_plan=None,
        engine_defaults: dict | None = None,
    ) -> None:
        self.cfg = cfg if cfg is not None else HotPotatoConfig()
        self.policy = policy
        self.seed = seed
        #: Optional repro.faults.FaultPlan applied to every run started
        #: from this facade.  Model faults are compiled into the model
        #: (all engines see them identically); transport faults and PE
        #: stalls additionally perturb the parallel engines' scheduling
        #: without changing committed results.
        self.fault_plan = fault_plan
        #: Optional repro.scenarios.InjectionPlan: a scripted adversary
        #: replacing the Bernoulli injection application on every run.
        self.injection_plan = injection_plan
        #: Knobs every engine built here starts from, by EngineConfig /
        #: ConservativeConfig / SequentialEngine name; each engine takes
        #: the ones it has.  Without ``n_kps``, a Time Warp run uses the
        #: largest KP count up to 16 that tiles the grid.
        self.engine_defaults = {"n_pes": 4, "batch_size": 16, **(engine_defaults or {})}

    def _model(self) -> HotPotatoModel:
        # A fresh model per run: LP state is single-use.
        return HotPotatoModel(
            self.cfg,
            self.policy,
            fault_plan=self.fault_plan,
            injection_plan=self.injection_plan,
        )

    def _engine_faults(self):
        plan = self.fault_plan
        if plan is None or not plan.has_engine_faults:
            return None
        from repro.faults.injector import EngineFaults

        return EngineFaults(plan)

    def _settings(self, kind: str, knobs: dict) -> dict:
        """The seed, then the engine defaults ``kind`` accepts, then ``knobs``."""
        accepted = _KNOBS[kind]
        settings = {"seed": self.seed}
        settings.update(
            (k, v) for k, v in self.engine_defaults.items() if k in accepted
        )
        settings.update(knobs)
        if kind == "optimistic" and "n_kps" not in settings:
            settings["n_kps"] = kp_count_for(self.cfg.n, 16, settings["n_pes"])
        return settings

    def _engine_config(self, knobs: dict) -> EngineConfig:
        return EngineConfig(
            end_time=self.cfg.duration, **self._settings("optimistic", knobs)
        )

    def engine(self, kind: str = "sequential", **knobs):
        """A fresh ``kind`` engine over this workload, not yet run.

        ``kind`` is ``sequential``/``conservative``/``optimistic`` or
        ``seq``/``cons``/``opt``.  ``knobs`` are :class:`EngineConfig`
        fields (optimistic), :class:`ConservativeConfig` fields
        (conservative) or ``seed``/``cost``/``pool``/``paranoid``/
        ``executor`` (sequential), applied on top of
        :attr:`engine_defaults`.  The workload's engine faults are
        attached.  Process mode has no in-process engine; use
        :meth:`run` for it.
        """
        kind = engine_kind(kind)
        duration = self.cfg.duration
        if kind == "sequential":
            settings = self._settings(kind, knobs)
            engine = SequentialEngine(self._model(), duration, **settings)
        elif kind == "conservative":
            ccfg = ConservativeConfig(
                end_time=duration, **self._settings(kind, knobs)
            )
            engine = ConservativeKernel(self._model(), ccfg)
        else:
            ecfg = self._engine_config(knobs)
            if ecfg.parallelism == "process":
                raise ConfigurationError(
                    "process mode splits the kernel across worker processes, "
                    "so it has no in-process engine; run it with "
                    "run('optimistic', parallelism='process', ...)"
                )
            engine = TimeWarpKernel(self._model(), ecfg)
        faults = self._engine_faults()
        if faults is not None:
            engine.attach_faults(faults)
        return engine

    def run(
        self,
        kind: str = "sequential",
        *,
        tracer=None,
        metrics=None,
        spans=None,
        checkpointer=None,
        health=None,
        **knobs,
    ) -> RunResult:
        """Build the ``kind`` engine (see :meth:`engine`), attach, run.

        An optimistic run with ``parallelism="process"`` goes through
        :func:`~repro.core.optimistic.run_optimistic`, which splits it
        across worker processes.
        """
        if engine_kind(kind) == "optimistic":
            ecfg = self._engine_config(knobs)
            if ecfg.parallelism == "process":
                model = self._model()
                # Each worker builds the mapping, where a KP count that
                # cannot tile the grid fails in every process at once;
                # refuse it here first.
                build_mapping(
                    self.cfg.num_routers, ecfg.n_kps, ecfg.n_pes,
                    ecfg.mapping, grid=model.grid, seed=ecfg.seed,
                )
                return run_optimistic(
                    model,
                    ecfg,
                    tracer=tracer,
                    metrics=metrics,
                    spans=spans,
                    faults=self._engine_faults(),
                    checkpointer=checkpointer,
                    health=health,
                )
        engine = self.engine(kind, **knobs)
        if tracer is not None:
            engine.attach_tracer(tracer)
        if metrics is not None:
            engine.attach_metrics(metrics)
        if spans is not None:
            engine.attach_spans(spans)
        if health is not None:
            engine.attach_health(health)
        if checkpointer is not None:
            engine.attach_checkpointer(checkpointer)
        return engine.run()

    def run_parallel(
        self,
        n_pes: int = 4,
        n_kps: int = 64,
        *,
        batch_size: int = 16,
        engine_config: EngineConfig | None = None,
        tracer=None,
        metrics=None,
        spans=None,
        checkpointer=None,
        health=None,
        **overrides,
    ) -> RunResult:
        """Run on the Time Warp engine.

        Either pass a full :class:`EngineConfig` (its ``end_time`` is
        overridden by the model duration) or let this method build one
        from ``n_pes`` / ``n_kps`` / ``batch_size`` plus keyword overrides
        (``mapping=...``, ``rollback=...``, ...).
        """
        if engine_config is not None:
            knobs = {
                f.name: getattr(engine_config, f.name)
                for f in fields(EngineConfig)
                if f.name != "end_time"
            }
        else:
            knobs = dict(
                n_pes=n_pes, n_kps=n_kps, batch_size=batch_size, **overrides
            )
        return self.run(
            "optimistic",
            tracer=tracer,
            metrics=metrics,
            spans=spans,
            checkpointer=checkpointer,
            health=health,
            **knobs,
        )

    def validate_determinism(self, n_pes: int = 4, n_kps: int = 16) -> bool:
        """The report's Attachment-3 check: parallel results == sequential."""
        return (
            self.run().model_stats
            == self.run("optimistic", n_pes=n_pes, n_kps=n_kps).model_stats
        )
