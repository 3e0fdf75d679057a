"""Compile a :class:`~repro.scenarios.spec.Scenario` into runnable parts.

The compiler is the one place scenario JSON meets real objects: the
topology registry, :class:`~repro.hotpotato.config.HotPotatoConfig`, the
policy registry, the adversary expansion and the fault-plan loader.  The
result — a :class:`CompiledScenario` — is a
:class:`~repro.hotpotato.simulation.HotPotatoSimulation`, so a scenario
builds and runs its engines exactly as every other workload does.
"""

from __future__ import annotations

from repro.baselines.policies import make_policy
from repro.core.mapping import kp_count_for
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation
from repro.net import TOPOLOGIES
from repro.scenarios.adversary import (
    DEFAULT_ADVERSARY_SEED,
    InjectionEvent,
    InjectionPlan,
    generate_injection_plan,
)
from repro.scenarios.spec import Scenario, ScenarioError

__all__ = ["CompiledScenario", "compile_scenario"]


class CompiledScenario(HotPotatoSimulation):
    """A scenario resolved into a simulation.

    Adds the scenario's identity to :class:`HotPotatoSimulation`; its
    ``engine_defaults`` are the scenario's engine section (``n_pes``,
    ``n_kps``, ``batch_size``, ``window``, ``executor``), so
    :meth:`~HotPotatoSimulation.engine` and
    :meth:`~HotPotatoSimulation.run` use them unless a knob overrides.
    """

    def __init__(self, scenario: Scenario, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scenario = scenario

    @property
    def name(self) -> str:
        """The scenario's declared name."""
        return self.scenario.name

    def scenario_hash(self) -> str:
        """Content hash identifying the scenario (see ``Scenario``)."""
        return self.scenario.scenario_hash()


# ----------------------------------------------------------------------
def _compile_traffic(scenario: Scenario, n: int, topo_kind: str, duration: float):
    """Resolve the traffic section: (injector_fraction, InjectionPlan|None)."""
    traffic = scenario.traffic
    if traffic["model"] == "bernoulli":
        return float(traffic.get("injector_fraction", 1.0)), None
    strategy = traffic["strategy"]
    if strategy == "script":
        plan = InjectionPlan(
            entries=tuple(
                InjectionEvent.from_dict(e) for e in traffic["script"]
            ),
            strategy="script",
            rate=float(traffic.get("rate", 1.0)),
            seed=int(traffic.get("seed", DEFAULT_ADVERSARY_SEED)),
        )
    else:
        topo = TOPOLOGIES[topo_kind](n)
        plan = generate_injection_plan(
            topo,
            strategy=strategy,
            duration=duration,
            rate=float(traffic.get("rate", 1.0)),
            seed=int(traffic.get("seed", DEFAULT_ADVERSARY_SEED)),
            hotspots=int(traffic.get("hotspots", 1)),
            burst_len=int(traffic.get("burst_len", 8)),
            burst_gap=int(traffic.get("burst_gap", 8)),
        )
    # Injectors are exactly the scripted routers, so the fraction is moot;
    # keep the config default for config-marker stability.
    return 1.0, plan


def _compile_faults(scenario: Scenario, n: int, topo_kind: str, duration: float):
    """Resolve the faults section into a FaultPlan (or None)."""
    doc = scenario.faults
    if doc is None:
        return None
    from repro.faults import FaultPlan, FaultPlanError, generate_plan, load_plan

    try:
        if isinstance(doc, str):
            path = doc
            if scenario.source is not None:
                path = str((scenario.source.parent / doc).resolve())
            return load_plan(path)
        if "generate" in doc:
            spec = dict(doc["generate"])
            topo = TOPOLOGIES[topo_kind](n)
            return generate_plan(topo, duration=duration, **spec)
        return FaultPlan.from_dict(doc)
    except FaultPlanError as exc:
        raise ScenarioError(
            f"scenario {scenario.name!r}: bad fault plan: {exc}"
        ) from None
    except (OSError, TypeError, ValueError) as exc:
        raise ScenarioError(
            f"scenario {scenario.name!r}: cannot resolve faults: {exc}"
        ) from None


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Resolve a validated scenario into a :class:`CompiledScenario`."""
    scenario.validate()
    topo_kind = scenario.topology["kind"]
    n = int(scenario.topology["n"])
    eng = scenario.engine
    duration = float(eng["duration"])
    seed = int(eng.get("seed", 0x5EED))
    injector_fraction, injection_plan = _compile_traffic(
        scenario, n, topo_kind, duration
    )
    fault_plan = _compile_faults(scenario, n, topo_kind, duration)
    overrides = dict(eng.get("overrides", {}))
    try:
        cfg = HotPotatoConfig(
            n=n,
            duration=duration,
            topology=topo_kind,
            injector_fraction=injector_fraction,
            **overrides,
        )
    except ConfigurationError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(
            f"scenario {scenario.name!r}: bad configuration: {exc}"
        ) from None
    num = cfg.num_routers
    try:
        if injection_plan is not None:
            injection_plan.validate(num_nodes=num)
        if fault_plan is not None:
            fault_plan.validate(num_nodes=num)
    except ScenarioError:
        raise
    except ConfigurationError as exc:
        raise ScenarioError(f"scenario {scenario.name!r}: {exc}") from None
    policy = make_policy(scenario.routing.get("policy", "busch"))
    n_pes = int(eng.get("n_pes", 4))
    return CompiledScenario(
        scenario,
        cfg,
        policy,
        seed=seed,
        fault_plan=fault_plan,
        injection_plan=injection_plan,
        engine_defaults={
            "n_pes": n_pes,
            "n_kps": int(eng.get("n_kps", 0))
            or kp_count_for(n, 4 * n_pes, n_pes),
            "batch_size": int(eng.get("batch_size", 16)),
            "window": eng.get("window"),
            "executor": str(eng.get("executor", "scalar")),
        },
    )
