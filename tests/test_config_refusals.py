"""Up-front refusals and worker-error reporting.

Every engine configuration either runs to the oracle's committed
sequence or is refused before the run starts, by
:class:`~repro.core.config.EngineConfig`, with a message that names the
offending value.  When a process-mode worker does fail mid-run, the
error the caller sees carries that worker's own traceback.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.mapping import build_mapping
from repro.core.optimistic import run_optimistic
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.router import RouterLP


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"gvt": "oracle"}, "gvt must be one of 'synchronous', 'mattern'"),
        ({"gvt": "incremental"}, "incremental GVT manager was removed"),
        ({"queue": "ladder"}, "ladder queue and splay tree were removed"),
        ({"queue": "splay"}, "ladder queue and splay tree were removed"),
        ({"rollback": "undo"}, "rollback must be one of 'reverse', 'copy'"),
        ({"transport": "carrier"}, "transport must be one of 'immediate'"),
        ({"mapping": "diagonal"}, "mapping must be one of 'block'"),
    ],
    ids=[
        "gvt", "gvt-incremental", "queue-ladder", "queue-splay", "rollback",
        "transport", "mapping",
    ],
)
def test_engine_config_refuses_unknown_or_removed_names(overrides, message):
    with pytest.raises(ConfigurationError, match=message):
        EngineConfig(end_time=1.0, **overrides)


class _FailingRouterLP(RouterLP):
    """A router whose handler always raises."""

    __slots__ = ()

    def forward(self, event):
        raise RuntimeError(f"handler failed on LP {self.id}")


class _OneBadRouterModel(HotPotatoModel):
    """Hot-potato network where exactly one router's handler raises."""

    def __init__(self, cfg, victim):
        super().__init__(cfg)
        self.victim = victim

    def build(self):
        lps = super().build()
        lps[self.victim].__class__ = _FailingRouterLP
        return lps


def test_worker_error_reports_the_failing_workers_traceback():
    """The handler raises only in worker 1's slice: the caller sees worker
    1's own traceback, not "worker 0 produced no result"."""
    cfg = HotPotatoConfig(n=4, duration=12.0, injector_fraction=1.0)
    ecfg = EngineConfig(
        end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=16,
        parallelism="process", procs=2, gvt_interval=8,
    )
    mapping = build_mapping(
        cfg.num_routers, ecfg.n_kps, ecfg.n_pes, ecfg.mapping,
        grid=HotPotatoModel(cfg).grid, seed=ecfg.seed,
    )
    # Worker 1 owns the upper half of the PEs.
    victim = next(
        lp for lp in range(cfg.num_routers)
        if mapping.kp_to_pe[mapping.lp_to_kp[lp]] == ecfg.n_pes - 1
    )
    with pytest.raises(ConfigurationError) as excinfo:
        run_optimistic(_OneBadRouterModel(cfg, victim), ecfg)
    message = str(excinfo.value)
    assert message.startswith("worker 1 failed:")
    assert f"RuntimeError: handler failed on LP {victim}" in message
    assert "Traceback" in message
