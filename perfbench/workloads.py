"""The benchmark's workloads, and how one point of a workload is run.

Every workload is the Busch hot-potato model on a torus with
:class:`~repro.hotpotato.HotPotatoConfig` defaults, except for the knobs
named here.  Engine knobs a workload does not name keep the defaults of
the code under test (executor, queue, cancellation, rollback, transport),
so a change to a default is measured the way users get it.

The program is driven only through public entry points:
``HotPotatoModel``, ``run_sequential``, ``run_optimistic`` with
``EngineConfig``, and the ``spans=``/``metrics=`` hooks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import EngineConfig, run_optimistic, run_sequential  # noqa: E402
from repro.hotpotato import HotPotatoConfig, HotPotatoModel  # noqa: E402

__all__ = [
    "DEFAULT_SEED",
    "PROBE_END",
    "WORKLOADS",
    "Workload",
    "config_key",
    "fingerprint",
    "run_oracle",
    "run_point",
]

#: Seed whose oracle fingerprints are pinned in ``oracle.json`` (the
#: engines' own default seed).
DEFAULT_SEED = 0x5EED

#: End time of a set-up probe: below the first event's timestamp, so the
#: run does all of its set-up (population build, RNG binding, fast-path
#: compilation, worker fork) and executes nothing.
PROBE_END = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an engine configuration over a sweep of loads.

    Why each workload exists is written in ``BENCHMARK.json`` and ``README.md``.
    """

    name: str
    engine: str  # "sequential" or "optimistic"
    n: int
    duration: float
    loads: tuple[float, ...] = (1.0,)
    #: Engine knobs the workload names; everything else keeps its default.
    knobs: tuple[tuple[str, object], ...] = ()

    @property
    def procs(self) -> int:
        return int(dict(self.knobs).get("procs", 1))

    def engine_config(self, seed: int, end_time: float) -> EngineConfig:
        return EngineConfig(end_time=end_time, seed=seed, **dict(self.knobs))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig34-seq",
            "sequential",
            n=32,
            duration=12.0,
            loads=(0.25, 0.5, 0.75, 1.0),
        ),
        Workload(
            "tw-n64",
            "optimistic",
            n=64,
            duration=6.0,
            knobs=(("n_pes", 4), ("n_kps", 16), ("batch_size", 64)),
        ),
        Workload(
            "tw-thrash",
            "optimistic",
            n=16,
            duration=60.0,
            knobs=(("n_pes", 4), ("n_kps", 16), ("batch_size", 2048)),
        ),
        Workload(
            "mp2-n16",
            "optimistic",
            n=16,
            duration=160.0,
            knobs=(
                ("n_pes", 4),
                ("n_kps", 16),
                ("batch_size", 64),
                ("gvt_interval", 16),
                ("parallelism", "process"),
                ("procs", 2),
            ),
        ),
    )
}


def _model(w: Workload, load: float) -> HotPotatoModel:
    return HotPotatoModel(
        HotPotatoConfig(n=w.n, duration=w.duration, injector_fraction=load)
    )


def run_point(w: Workload, load: float, seed: int, end_time: float, **hooks):
    """Build the model for one load point and run ``w``'s engine to ``end_time``.

    ``hooks`` are passed through to the engine (``spans=``, ``metrics=``).
    """
    model = _model(w, load)
    if w.engine == "sequential":
        return run_sequential(model, end_time, seed=seed, **hooks)
    return run_optimistic(model, w.engine_config(seed, end_time), **hooks)


def run_oracle(w: Workload, load: float, seed: int):
    """The sequential engine, with its defaults, on the same model and seed."""
    return run_sequential(_model(w, load), w.duration, seed=seed)


def fingerprint(result) -> dict:
    """Committed count plus a hash of the model statistics (``per_router`` too)."""
    stats = repr(sorted(result.model_stats.items()))
    return {
        "committed": result.run.committed,
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
    }


def _sequential_defaults() -> dict:
    params = inspect.signature(run_sequential).parameters
    return {k: params[k].default for k in ("executor", "pool", "paranoid")}


def config_key(w: Workload, seed: int) -> dict:
    """Everything that decides what a run of ``w`` measures, defaults resolved.

    Two outputs whose ``id`` differs are different workloads and must not be
    compared as one.
    """
    if w.engine == "sequential":
        engine = {"engine": "sequential", **_sequential_defaults()}
    else:
        cfg = dataclasses.asdict(w.engine_config(seed, w.duration))
        for k in ("end_time", "seed", "cost"):
            cfg.pop(k)
        engine = {"engine": "optimistic", **cfg}
    key = {
        "workload": w.name,
        "model": "hotpotato-busch-torus",
        "n": w.n,
        "duration": w.duration,
        "loads": list(w.loads),
        "seed": seed,
        **engine,
    }
    blob = json.dumps(key, sort_keys=True, default=str).encode()
    key["id"] = hashlib.sha256(blob).hexdigest()[:16]
    return key
