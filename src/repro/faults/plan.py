"""Declarative fault plans: what fails, when, and under which seed.

A :class:`FaultPlan` is the single source of truth for every fault a run
injects, at all three layers of the stack:

* **model faults** — timed :class:`FaultEvent` entries that fail/heal
  topology links (``link_down``/``link_up``) or crash/recover router LPs
  (``crash``/``recover``) at whole time steps,
* **transport faults** — rate-based drop/duplicate/delay of inter-PE
  messages, applied by :class:`repro.faults.transport.FaultyTransport`
  inside the optimistic engine,
* **PE stalls** — :class:`PEStall` windows during which a simulated
  processor executes nothing ("straggler injection").

Determinism contract
--------------------
A plan is *data*: model faults are a pure function of ``(plan, step)``,
so sequential, conservative and optimistic engines — and any rollback
interleaving inside Time Warp — observe exactly the same fault schedule
and commit identical results.  Randomised plans are expanded into timed
schedules once, by :func:`generate_plan`, using a dedicated RNG stream
derived from ``plan.seed`` (never from the traffic/engine seed), so the
traffic RNG streams are untouched and faults-off runs stay bit-identical
to runs of a tree without this subsystem.  Transport faults and PE
stalls perturb only *engine-level* scheduling (delivery timing, rollback
pressure); they are semantics-preserving by construction and never
change the committed sequence.

Link-fault semantics: a ``link_down`` on ``(node, direction)`` takes the
whole undirected link out of service — both endpoints stop claiming it —
from its step (inclusive) until a later ``link_up``.  Packets already in
flight over the link still arrive.  A link that is down from step 0 and
never heals is *static*: it is applied to the topology itself (see
``failed_links`` on the topology classes), so ``route_info`` steers
around it, modelling a failure known at network boot; every other fault
is discovered locally by the routers, who deflect around it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.rng.streams import ReversibleStream, derive_seed

__all__ = [
    "LINK_DOWN",
    "LINK_UP",
    "CRASH",
    "RECOVER",
    "FaultEvent",
    "PEStall",
    "FaultPlan",
    "FaultPlanError",
    "generate_plan",
    "load_plan",
    "plan_from_spec",
]

LINK_DOWN = "link_down"
LINK_UP = "link_up"
CRASH = "crash"
RECOVER = "recover"

#: All model-fault kinds; link kinds additionally carry a direction.
MODEL_KINDS = frozenset({LINK_DOWN, LINK_UP, CRASH, RECOVER})
LINK_KINDS = frozenset({LINK_DOWN, LINK_UP})

#: Plan-file schema version (bump on incompatible format changes).
PLAN_VERSION = 1

#: Stream id for the plan-expansion RNG (see :func:`generate_plan`);
#: shares nothing with LP traffic streams, which use LP ids.
_GENERATE_STREAM = 0xFA01
#: Stream id for the transport-fault RNG (see repro.faults.transport).
TRANSPORT_STREAM = 0xFA02

#: Default fault seed, distinct from the engine's 0x5EED default.
DEFAULT_FAULT_SEED = 0xFA117


class FaultPlanError(ConfigurationError):
    """A fault plan is malformed or inconsistent with the topology."""


@dataclass(frozen=True)
class FaultEvent:
    """One timed model fault: a link toggle or a router crash/recover."""

    step: int
    kind: str
    node: int
    #: Link direction (0..3, see repro.net.Direction); -1 for crash/recover.
    direction: int = -1

    def to_dict(self) -> dict:
        """JSON form; ``direction`` is emitted only for link events."""
        d = {"step": self.step, "kind": self.kind, "node": self.node}
        if self.kind in LINK_KINDS:
            d["direction"] = self.direction
        return d

    @classmethod
    def from_dict(cls, doc: Mapping) -> "FaultEvent":
        try:
            return cls(
                step=int(doc["step"]),
                kind=str(doc["kind"]),
                node=int(doc["node"]),
                direction=int(doc.get("direction", -1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"bad fault event {dict(doc)!r}: {exc}") from None


@dataclass(frozen=True)
class PEStall:
    """One straggler-injection window: PE ``pe`` skips ``rounds`` scheduler

    rounds starting at round ``start_round``.  Stalls slow a simulated
    processor without changing what it eventually computes.
    """

    pe: int
    start_round: int
    rounds: int

    def to_dict(self) -> dict:
        """JSON form of the stall window."""
        return {"pe": self.pe, "start_round": self.start_round, "rounds": self.rounds}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PEStall":
        try:
            return cls(
                pe=int(doc["pe"]),
                start_round=int(doc["start_round"]),
                rounds=int(doc["rounds"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"bad PE stall {dict(doc)!r}: {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """The full declarative fault schedule for one run (see module doc)."""

    events: tuple[FaultEvent, ...] = ()
    #: Transport-fault probabilities per cross-PE message; must sum <= 1.
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    #: Scheduler-round delay applied to dropped (retransmitted), delayed
    #: and duplicated messages.
    delay_rounds: int = 3
    stalls: tuple[PEStall, ...] = ()
    #: Seed of the fault RNG streams (plan expansion, transport draws).
    seed: int = DEFAULT_FAULT_SEED

    # ------------------------------------------------------------------
    @property
    def has_model_faults(self) -> bool:
        """True when any link/router fault event is scheduled."""
        return bool(self.events)

    @property
    def has_transport_faults(self) -> bool:
        """True when any transport fault rate is non-zero."""
        return (self.drop_rate + self.dup_rate + self.delay_rate) > 0.0

    @property
    def has_stalls(self) -> bool:
        """True when any PE stall window is scheduled."""
        return bool(self.stalls)

    @property
    def has_engine_faults(self) -> bool:
        """True when the plan needs engine-level installation (transport
        wrapping or stall schedules) beyond the model faults."""
        return self.has_transport_faults or self.has_stalls

    @property
    def is_empty(self) -> bool:
        """True when attaching this plan changes nothing."""
        return not (self.has_model_faults or self.has_engine_faults)

    # ------------------------------------------------------------------
    def validate(self, num_nodes: int | None = None, n_pes: int | None = None) -> None:
        """Raise :class:`FaultPlanError` on any structural inconsistency.

        Checks kinds, ranges and — per fault target — that link toggles
        and crash/recover events alternate with strictly increasing
        steps, which is what makes the compiled up/down state a total
        function of the step.  Topology-level checks (does the link
        exist?) happen at compile time, when a topology is available.
        """
        for rate, name in (
            (self.drop_rate, "drop_rate"),
            (self.dup_rate, "dup_rate"),
            (self.delay_rate, "delay_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.dup_rate + self.delay_rate > 1.0 + 1e-12:
            raise FaultPlanError(
                "drop_rate + dup_rate + delay_rate must not exceed 1"
            )
        if self.delay_rounds < 1:
            raise FaultPlanError(
                f"delay_rounds must be >= 1, got {self.delay_rounds}"
            )
        link_seq: dict[tuple[int, int], tuple[int, str]] = {}
        crash_seq: dict[int, tuple[int, str]] = {}
        for ev in sorted(self.events, key=lambda e: (e.step, e.kind)):
            if ev.kind not in MODEL_KINDS:
                raise FaultPlanError(
                    f"unknown fault kind {ev.kind!r}; choose from "
                    f"{sorted(MODEL_KINDS)}"
                )
            if ev.step < 0:
                raise FaultPlanError(f"fault step must be >= 0, got {ev.step}")
            if ev.node < 0 or (num_nodes is not None and ev.node >= num_nodes):
                raise FaultPlanError(
                    f"fault node {ev.node} out of range"
                    + (f" 0..{num_nodes - 1}" if num_nodes is not None else "")
                )
            if ev.kind in LINK_KINDS:
                if not 0 <= ev.direction <= 3:
                    raise FaultPlanError(
                        f"link fault needs direction 0..3, got {ev.direction}"
                    )
                key = (ev.node, ev.direction)
                prev = link_seq.get(key)
                want_down = prev is None or prev[1] == LINK_UP
                if (ev.kind == LINK_DOWN) != want_down:
                    raise FaultPlanError(
                        f"link ({ev.node}, dir {ev.direction}): "
                        f"{ev.kind} at step {ev.step} does not alternate "
                        "down/up"
                    )
                if prev is not None and ev.step <= prev[0]:
                    raise FaultPlanError(
                        f"link ({ev.node}, dir {ev.direction}): steps must "
                        f"strictly increase ({prev[0]} then {ev.step})"
                    )
                link_seq[key] = (ev.step, ev.kind)
            else:
                prev = crash_seq.get(ev.node)
                want_crash = prev is None or prev[1] == RECOVER
                if (ev.kind == CRASH) != want_crash:
                    raise FaultPlanError(
                        f"router {ev.node}: {ev.kind} at step {ev.step} "
                        "does not alternate crash/recover"
                    )
                if prev is not None and ev.step <= prev[0]:
                    raise FaultPlanError(
                        f"router {ev.node}: steps must strictly increase "
                        f"({prev[0]} then {ev.step})"
                    )
                crash_seq[ev.node] = (ev.step, ev.kind)
        for st in self.stalls:
            if st.pe < 0 or (n_pes is not None and st.pe >= n_pes):
                raise FaultPlanError(f"stall PE {st.pe} out of range")
            if st.start_round < 0 or st.rounds < 1:
                raise FaultPlanError(
                    f"stall window must have start_round >= 0 and "
                    f"rounds >= 1, got {st}"
                )

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "events": [ev.to_dict() for ev in self.events],
            "transport": {
                "drop_rate": self.drop_rate,
                "dup_rate": self.dup_rate,
                "delay_rate": self.delay_rate,
                "delay_rounds": self.delay_rounds,
            },
            "stalls": [st.to_dict() for st in self.stalls],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "FaultPlan":
        version = doc.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise FaultPlanError(
                f"plan version {version!r} is not the supported "
                f"version {PLAN_VERSION}"
            )
        transport = doc.get("transport", {})
        try:
            plan = cls(
                events=tuple(
                    FaultEvent.from_dict(e) for e in doc.get("events", ())
                ),
                drop_rate=float(transport.get("drop_rate", 0.0)),
                dup_rate=float(transport.get("dup_rate", 0.0)),
                delay_rate=float(transport.get("delay_rate", 0.0)),
                delay_rounds=int(transport.get("delay_rounds", 3)),
                stalls=tuple(PEStall.from_dict(s) for s in doc.get("stalls", ())),
                seed=int(doc.get("seed", DEFAULT_FAULT_SEED)),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from None
        return plan

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, exact round-trip)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"plan is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise FaultPlanError("plan JSON must be an object")
        return cls.from_dict(doc)

    def dump(self, target: str | Path | IO[str]) -> None:
        """Write the plan as JSON to a path or open text stream."""
        text = self.to_json()
        if isinstance(target, (str, Path)):
            Path(target).write_text(text)
        else:
            target.write(text)


def load_plan(source: str | Path | IO[str]) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON path or open text stream."""
    if isinstance(source, (str, Path)):
        return FaultPlan.from_json(Path(source).read_text())
    return FaultPlan.from_json(source.read())


def plan_from_spec(fault: Mapping[str, Any] | None, cfg) -> FaultPlan | None:
    """The plan a JSON fault spec names for a hot-potato configuration.

    ``fault`` is ``None`` (no faults), ``{"plan": path}`` (a plan file)
    or ``{"link_rate": r, "seed": s}`` (each link of ``cfg``'s topology
    fails permanently with probability ``r``; ``seed`` ``None`` means
    :data:`DEFAULT_FAULT_SEED`).  Sweep points, chaos episodes and the
    ``repro.hotpotato`` fault flags all describe their faults this way.
    """
    if not fault:
        return None
    if "plan" in fault:
        return load_plan(fault["plan"])
    from repro.net import TOPOLOGIES

    seed = fault.get("seed")
    return generate_plan(
        TOPOLOGIES[cfg.topology](cfg.n),
        duration=cfg.duration,
        link_fail_rate=fault["link_rate"],
        seed=DEFAULT_FAULT_SEED if seed is None else seed,
    )


# ----------------------------------------------------------------------
# Rate-based plan generation.
# ----------------------------------------------------------------------
def generate_plan(
    topo,
    *,
    duration: float,
    link_fail_rate: float = 0.0,
    heal_after: int | None = None,
    router_crash_rate: float = 0.0,
    recover_after: int | None = None,
    drop_rate: float = 0.0,
    dup_rate: float = 0.0,
    delay_rate: float = 0.0,
    delay_rounds: int = 3,
    stalls: Iterable[PEStall] = (),
    seed: int = DEFAULT_FAULT_SEED,
) -> FaultPlan:
    """Expand failure *rates* into a concrete timed :class:`FaultPlan`.

    Each physical link fails independently with probability
    ``link_fail_rate`` at a random step in the first quarter of the run
    (so failures shape most of the measurement window), healing
    ``heal_after`` steps later when given.  Each router crashes with
    probability ``router_crash_rate`` at a random step in the first half,
    recovering after ``recover_after`` steps when given.  All draws come
    from one stream derived from ``seed`` (never the traffic seed), and
    links/routers are visited in canonical id order, so the same
    ``(topo shape, rates, seed)`` always yields the same plan.
    """
    from repro.net import Direction

    steps = max(1, int(duration))
    rng = ReversibleStream(derive_seed(seed, _GENERATE_STREAM), 0)
    events: list[FaultEvent] = []
    if link_fail_rate > 0.0:
        # (node, EAST) and (node, SOUTH) enumerate every physical link of
        # a torus exactly once; on a mesh, edges without a neighbor are
        # skipped.
        for node in range(topo.num_nodes):
            for d in (Direction.EAST, Direction.SOUTH):
                if topo.neighbor(node, d) is None:
                    continue
                if not rng.bernoulli(link_fail_rate):
                    continue
                fail_step = rng.integer(0, max(0, steps // 4))
                events.append(FaultEvent(fail_step, LINK_DOWN, node, int(d)))
                if heal_after is not None:
                    heal_step = fail_step + heal_after
                    if heal_step < steps:
                        events.append(
                            FaultEvent(heal_step, LINK_UP, node, int(d))
                        )
    if router_crash_rate > 0.0:
        for node in range(topo.num_nodes):
            if not rng.bernoulli(router_crash_rate):
                continue
            crash_step = rng.integer(1, max(1, steps // 2))
            events.append(FaultEvent(crash_step, CRASH, node))
            if recover_after is not None:
                recover_step = crash_step + recover_after
                if recover_step < steps:
                    events.append(FaultEvent(recover_step, RECOVER, node))
    events.sort(key=lambda e: (e.step, e.kind, e.node, e.direction))
    plan = FaultPlan(
        events=tuple(events),
        drop_rate=drop_rate,
        dup_rate=dup_rate,
        delay_rate=delay_rate,
        delay_rounds=delay_rounds,
        stalls=tuple(stalls),
        seed=seed,
    )
    plan.validate(num_nodes=topo.num_nodes)
    return plan
