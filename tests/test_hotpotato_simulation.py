"""Tests for the HotPotatoSimulation facade and engine equivalence."""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.optimistic import TimeWarpKernel
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation

CFG = HotPotatoConfig(n=6, duration=30.0, injector_fraction=1.0)


@pytest.fixture(scope="module")
def oracle():
    return HotPotatoSimulation(CFG).run()


def test_run_produces_stats(oracle):
    assert oracle.run.engine == "sequential"
    assert oracle.model_stats["delivered"] > 0


def test_parallel_matches_oracle(oracle):
    sim = HotPotatoSimulation(CFG)
    par = sim.run_parallel(n_pes=4, n_kps=12, mapping="striped")
    assert par.model_stats == oracle.model_stats


def test_parallel_window_mode_matches_oracle(oracle):
    sim = HotPotatoSimulation(CFG)
    par = sim.run_parallel(
        n_pes=4, n_kps=12, mapping="striped", window=2.0, batch_size=1 << 20
    )
    assert par.run.events_rolled_back > 0  # real Time Warp activity
    assert par.model_stats == oracle.model_stats


def test_engine_config_end_time_is_overridden(oracle):
    sim = HotPotatoSimulation(CFG)
    ecfg = EngineConfig(end_time=999.0, n_pes=2, n_kps=4, mapping="striped")
    par = sim.run_parallel(engine_config=ecfg)
    assert par.model_stats == oracle.model_stats  # ran to CFG.duration


def test_validate_determinism_helper():
    sim = HotPotatoSimulation(HotPotatoConfig(n=4, duration=20.0))
    assert sim.validate_determinism(n_pes=2, n_kps=4)


def test_different_seeds_differ():
    a = HotPotatoSimulation(CFG, seed=1).run()
    b = HotPotatoSimulation(CFG, seed=2).run()
    assert a.model_stats != b.model_stats


def test_mesh_parallel_matches_sequential():
    cfg = HotPotatoConfig(n=6, duration=30.0, injector_fraction=0.5, torus=False)
    sim = HotPotatoSimulation(cfg)
    assert sim.run().model_stats == sim.run_parallel(
        n_pes=2, n_kps=6, mapping="striped"
    ).model_stats


def test_proof_mode_parallel_matches_sequential():
    cfg = HotPotatoConfig(
        n=6, duration=30.0, injector_fraction=0.5, absorb_sleeping=False
    )
    sim = HotPotatoSimulation(cfg)
    assert sim.run().model_stats == sim.run_parallel(
        n_pes=4, n_kps=12, mapping="striped"
    ).model_stats


def test_heartbeat_parallel_matches_sequential():
    cfg = HotPotatoConfig(n=4, duration=25.0, injector_fraction=1.0, heartbeat=True)
    sim = HotPotatoSimulation(cfg)
    seq = sim.run()
    par = sim.run_parallel(n_pes=2, n_kps=4, mapping="striped")
    assert seq.model_stats == par.model_stats
    assert seq.model_stats["link_utilization"] > 0


@pytest.mark.parametrize(
    "kind, cls",
    [
        ("sequential", SequentialEngine),
        ("seq", SequentialEngine),
        ("conservative", ConservativeKernel),
        ("cons", ConservativeKernel),
        ("optimistic", TimeWarpKernel),
        ("opt", TimeWarpKernel),
    ],
)
def test_engine_builds_each_kind(kind, cls):
    engine = HotPotatoSimulation(CFG).engine(kind)
    assert type(engine) is cls


def test_engine_applies_defaults_then_knobs():
    sim = HotPotatoSimulation(CFG, engine_defaults={"n_pes": 2, "batch_size": 8})
    kernel = sim.engine("opt", batch_size=4)
    assert (kernel.cfg.n_pes, kernel.cfg.batch_size) == (2, 4)
    assert kernel.cfg.n_kps == 4  # largest count <= 16 tiling 6x6 on 2 PEs
    assert sim.engine("cons").cfg.n_pes == 2


def test_engine_refuses_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        HotPotatoSimulation(CFG).engine("quantum")


def test_engine_refuses_process_mode():
    with pytest.raises(ConfigurationError, match="process mode"):
        HotPotatoSimulation(CFG).engine("optimistic", parallelism="process")
