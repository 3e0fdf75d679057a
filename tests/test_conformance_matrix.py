"""Conformance matrix: every accepted configuration reproduces the oracle.

The sequential oracle's committed sequence is the contract.  This table
walks engine × executor × cancellation × workload on a small network and
holds every cell to one of two outcomes: the run commits exactly the
oracle's event sequence and statistics, or the configuration is refused
before the run starts with an error that names why.

* engine — sequential, conservative, optimistic in-process, optimistic
  over two worker processes;
* executor — scalar, vectorized (the conservative engine has no fused
  stepper and no executor field, so its vectorized cell is the refusal);
* cancellation — aggressive, lazy (optimistic only);
* workload — plain Bernoulli traffic, a model FaultPlan (link and router
  faults), a scripted adversary.

Every accepted cell runs twice: traced, to compare the committed
``(ts, lp, seq, kind)`` sequence, and untraced, so the vectorized cells
take the fused band batch wherever the kernel allows it.  The untraced
run also pins *whether* the fused batch ran, and otherwise which named
reason ``RunStats.soa_decline_reason`` gives.
"""

from functools import lru_cache

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, run_conservative
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.trace import Tracer
from repro.faults import generate_plan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.net import TorusTopology
from repro.scenarios import generate_injection_plan

N = 4
DURATION = 8.0
SEED = 0x5EED

ENGINES = ("seq", "cons", "opt", "opt-p2")
EXECUTORS = ("scalar", "vectorized")
WORKLOADS = ("plain", "faultplan", "adversary")


def _model(workload: str) -> HotPotatoModel:
    cfg = HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)
    fault_plan = injection_plan = None
    if workload == "faultplan":
        fault_plan = generate_plan(
            TorusTopology(N), duration=DURATION, link_fail_rate=0.03,
            heal_after=3, router_crash_rate=0.02, recover_after=3, seed=77,
        )
    elif workload == "adversary":
        injection_plan = generate_injection_plan(
            TorusTopology(N), strategy="hotspot", duration=DURATION,
            rate=0.5, seed=909,
        )
    return HotPotatoModel(cfg, fault_plan=fault_plan, injection_plan=injection_plan)


def _run(engine, executor, cancellation, workload, tracer=None):
    model = _model(workload)
    if engine == "seq":
        return run_sequential(
            model, DURATION, seed=SEED, executor=executor, tracer=tracer
        )
    if engine == "cons":
        extra = {} if executor == "scalar" else {"executor": executor}
        ccfg = ConservativeConfig(
            end_time=DURATION, n_pes=4, seed=SEED, lookahead=model.lookahead,
            **extra,
        )
        return run_conservative(model, ccfg, tracer=tracer)
    mp = {"parallelism": "process", "procs": 2, "gvt_interval": 4}
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=SEED,
        executor=executor, cancellation=cancellation,
        **(mp if engine == "opt-p2" else {}),
    )
    return run_optimistic(model, ecfg, tracer=tracer)


@lru_cache(maxsize=None)
def _oracle(workload):
    tracer = Tracer()
    result = run_sequential(_model(workload), DURATION, seed=SEED, tracer=tracer)
    return tracer.committed_sequence(), result.model_stats


def _expected_untraced(engine, executor, cancellation, workload):
    """True when the fused band batch must run, else the decline reason
    (a substring), or "" when nothing was asked of the executor."""
    if executor == "scalar":
        return ""
    if engine == "seq":
        return "sequential engine has no fused stepper"
    if workload == "adversary":
        return "adversarial injection plan"
    if engine == "opt-p2":
        return "process mode"
    if cancellation == "lazy":
        return "lazy cancellation"
    return True


def _cells():
    for engine in ENGINES:
        cancellations = ("aggressive", "lazy") if engine.startswith("opt") else (None,)
        for executor in EXECUTORS:
            for cancellation in cancellations:
                for workload in WORKLOADS:
                    cell = "-".join(
                        x for x in (engine, executor, cancellation, workload) if x
                    )
                    refusal = None
                    if engine == "cons" and executor == "vectorized":
                        refusal = (TypeError, "executor")
                    yield pytest.param(
                        engine, executor, cancellation, workload, refusal, id=cell
                    )


@pytest.mark.parametrize("engine, executor, cancellation, workload, refusal", _cells())
def test_cell_reproduces_oracle_or_is_refused(
    engine, executor, cancellation, workload, refusal
):
    if refusal is not None:
        exc, message = refusal
        with pytest.raises(exc, match=message):
            _run(engine, executor, cancellation, workload)
        return

    oracle_sequence, oracle_stats = _oracle(workload)
    assert oracle_stats["delivered"] > 0

    tracer = Tracer()
    traced = _run(engine, executor, cancellation, workload, tracer=tracer)
    assert tracer.committed_sequence() == oracle_sequence
    assert traced.model_stats == oracle_stats

    untraced = _run(engine, executor, cancellation, workload)
    assert untraced.run.procs == (2 if engine == "opt-p2" else 1)
    assert untraced.model_stats == oracle_stats
    assert untraced.run.committed == len(oracle_sequence)
    expected = _expected_untraced(engine, executor, cancellation, workload)
    if expected is True:
        assert untraced.run.soa_batches > 0
        assert untraced.run.soa_decline_reason == ""
    else:
        assert untraced.run.soa_batches == 0
        if expected:
            assert expected in untraced.run.soa_decline_reason
        else:
            assert untraced.run.soa_decline_reason == ""
