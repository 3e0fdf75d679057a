"""Attribute a cProfile of one run to the program's layers.

Every ``repro`` module belongs to exactly one layer.  A function's self
time goes to its module's layer, except for the few functions of
``repro.core.optimistic`` and ``repro.core.kp`` that belong to another
layer (run-start compilation, rollback, fossil collection).  Time spent
outside ``repro`` (builtins such as ``heapq``, the standard library,
generated dataclass methods) is charged to the layers of the ``repro``
functions that called it, directly or through other functions outside
``repro``; what no ``repro`` function called is ``other``.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["LAYERS", "attribute", "layer_of", "module_of"]

LAYERS = (
    "hotpotato",  # the model: routers, routing policy, packets, SoA population
    "net",  # topology and routing geometry
    "rng",  # reversible random streams
    "event",  # events, event keys, the event pool
    "queue",  # pending-event structures
    "engine",  # the sequential engine and the LP base class it sends through
    "timewarp",  # the optimistic kernel's send, execute and batch paths
    "setup",  # population build, RNG binding, fast-path compilation
    "rollback",  # undo, cancellation, anti-messages
    "gvt",  # GVT estimation
    "fossil",  # fossil collection and commit
    "mp",  # worker processes, rings, codec, token-wave GVT
    "attached",  # instrumentation and features a run may attach
    "tools",  # CLIs, harnesses and analysis around the engines
)

#: Packages whose every module belongs to one layer.
PACKAGE_LAYER = {
    "repro.hotpotato": "hotpotato",
    "repro.baselines": "hotpotato",
    "repro.models": "hotpotato",
    "repro.net": "net",
    "repro.rng": "rng",
    "repro.vt": "event",
    "repro.mp": "mp",
    "repro.obs": "attached",
    "repro.health": "attached",
    "repro.ckpt": "attached",
    "repro.faults": "attached",
    "repro.scenarios": "attached",
    "repro.chaos": "attached",
    "repro.bench": "tools",
    "repro.experiments": "tools",
    "repro.analysis": "tools",
}

#: Single modules, for packages whose modules belong to different layers.
MODULE_LAYER = {
    "repro": "tools",
    "repro.errors": "tools",
    "repro.version": "tools",
    "repro.core": "setup",
    "repro.core.config": "setup",
    "repro.core.conservative": "engine",
    "repro.core.costmodel": "timewarp",
    "repro.core.engine": "engine",
    "repro.core.event": "event",
    "repro.core.executor": "setup",
    "repro.core.gvt": "gvt",
    "repro.core.invariants": "attached",
    "repro.core.kp": "fossil",
    "repro.core.lp": "engine",
    "repro.core.mapping": "setup",
    "repro.core.optimistic": "timewarp",
    "repro.core.pe": "timewarp",
    "repro.core.queue": "queue",
    "repro.core.result": "setup",
    "repro.core.rollback": "rollback",
    "repro.core.splay": "queue",
    "repro.core.stats": "setup",
    "repro.core.throttle": "timewarp",
    "repro.core.trace": "attached",
    "repro.core.transport": "timewarp",
}

#: Functions that belong to another layer than their module.
FUNCTION_LAYER = {
    ("repro.core.optimistic", "__init__"): "setup",
    ("repro.core.optimistic", "_install_fast_paths"): "setup",
    ("repro.core.optimistic", "_compile_send"): "setup",
    ("repro.core.optimistic", "_compile_execute"): "setup",
    ("repro.core.optimistic", "_compile_batch"): "setup",
    ("repro.core.optimistic", "undo_event"): "rollback",
    ("repro.core.optimistic", "_cancel"): "rollback",
    ("repro.core.optimistic", "_flag_cancelled"): "rollback",
    ("repro.core.optimistic", "_drain_cancels"): "rollback",
    ("repro.core.optimistic", "_flush_antimsgs"): "rollback",
    ("repro.core.optimistic", "_straggler"): "rollback",
    ("repro.core.optimistic", "fossil_collect"): "fossil",
    ("repro.core.optimistic", "fossil"): "fossil",
    ("repro.core.kp", "rollback_until"): "rollback",
    ("repro.core.kp", "needs_rollback"): "timewarp",
    ("repro.core.kp", "append_processed"): "timewarp",
    ("repro.core.kp", "last_key"): "timewarp",
    ("repro.core.lp", "bind"): "setup",
}

#: Cumulative-time metrics: (metric, module, function).
CUMULATIVE = (
    ("setup.population_s", "repro.core.executor", "_init_population"),
    ("setup.population_s", "repro.core.executor", "_bind_lps"),
    ("setup.compile_s", "repro.core.optimistic", "_install_fast_paths"),
)


def module_of(filename: str, src: Path) -> str | None:
    """Dotted ``repro`` module name of a source file, or None if outside it."""
    try:
        rel = Path(os.path.abspath(filename)).relative_to(src)
    except ValueError:
        return None
    parts = rel.with_suffix("").parts
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def layer_of(module: str, func: str = "") -> str | None:
    """The layer that owns ``func`` in ``module`` (None when unmapped)."""
    layer = FUNCTION_LAYER.get((module, func)) or MODULE_LAYER.get(module)
    if layer is not None:
        return layer
    for pkg, layer in PACKAGE_LAYER.items():
        if module == pkg or module.startswith(pkg + "."):
            return layer
    return None


def attribute(stats: dict, src: Path) -> tuple[dict, dict, set]:
    """Group a profile by layer.

    ``stats`` is ``pstats.Stats(profile).stats``.  Returns
    ``(self_s, profile, unmapped)``: self seconds per layer (plus
    ``other``); the cumulative-time metrics and the call counts of every
    ``repro`` function keyed ``"module:function"``; and the ``repro``
    modules no layer claims (their time goes to ``other``).
    """
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    counts: dict = {}
    unmapped: set = set()
    owner: dict = {}

    def layer_at(key) -> str | None:
        if key not in owner:
            filename, _, func = key
            module = module_of(filename, src) if filename != "~" else None
            if module is None:
                owner[key] = None
            else:
                layer = layer_of(module, func)
                if layer is None:
                    unmapped.add(module)
                    layer = "other"
                owner[key] = layer
                name = f"{module}:{func}"
                nc, ct = stats[key][1], stats[key][3]
                prev_nc, prev_ct = counts.get(name, (0, 0.0))
                counts[name] = (prev_nc + nc, prev_ct + ct)
        return owner[key]

    shares: dict = {}

    def share_of(key) -> dict:
        """How a function outside repro splits its time among layers.

        Each caller gets its part of the calls' cumulative time; a caller
        outside repro passes its part on to its own callers.
        """
        layer = layer_at(key) if key in stats else None
        if layer is not None:
            return {layer: 1.0}
        if key not in stats:
            return {"other": 1.0}
        if key in shares:
            return shares[key] or {"other": 1.0}  # None marks a call cycle
        shares[key] = None
        callers = stats[key][4]
        total = sum(v[3] for v in callers.values())
        split: dict = {}
        for caller, (_c, _n, _tt, ct) in callers.items():
            if total <= 0:
                break
            for lay, frac in share_of(caller).items():
                split[lay] = split.get(lay, 0.0) + frac * ct / total
        shares[key] = split or {"other": 1.0}
        return shares[key]

    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, frac in share_of(key).items():
            self_s[layer] += tt * frac
    cumulative: dict = {}
    for metric, module, func in CUMULATIVE:
        ct = counts.get(f"{module}:{func}", (0, 0.0))[1]
        cumulative[metric] = cumulative.get(metric, 0.0) + ct
    calls = {name: nc for name, (nc, _ct) in counts.items()}
    return self_s, {"cumulative": cumulative, "calls": calls}, unmapped
