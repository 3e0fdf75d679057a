"""Attachment 3: the parallel and sequential models produce identical

results.  "The sample output in Attachment 3 shows that the parallel and
sequential models produce identical results (under the same model
configuration).  As such, the parallel model is deterministic and therefore
repeatable." (§4.2.1)

We check a matrix of optimistic configurations (PE/KP/batch/mapping/
rollback-strategy/transport) against the sequential oracle, comparing the
complete model statistics including the per-router fingerprint.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for
from repro.experiments.report import Table
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation

__all__ = ["run", "CONFIG_MATRIX"]

#: (n_pes, kp_request, batch, mapping, rollback, transport, cancellation).
CONFIG_MATRIX: tuple[tuple[int, int, int, str, str, str, str], ...] = (
    (1, 1, 16, "block", "reverse", "immediate", "aggressive"),
    (2, 8, 16, "block", "reverse", "immediate", "aggressive"),
    (4, 16, 8, "block", "reverse", "immediate", "aggressive"),
    (4, 64, 64, "block", "reverse", "immediate", "aggressive"),
    (4, 16, 16, "striped", "reverse", "immediate", "aggressive"),
    (4, 16, 16, "random", "reverse", "immediate", "aggressive"),
    (4, 16, 16, "block", "copy", "immediate", "aggressive"),
    (4, 16, 16, "block", "reverse", "mailbox", "aggressive"),
    (4, 16, 16, "block", "reverse", "immediate", "lazy"),
    (4, 16, 64, "random", "copy", "mailbox", "lazy"),
)


def run(params: SweepParams) -> Table:
    """Validate repeatability on the smallest sweep size."""
    n = params.sizes[0]
    sim = HotPotatoSimulation(
        HotPotatoConfig(n=n, duration=params.duration, injector_fraction=1.0),
        seed=params.seed,
    )
    oracle = sim.run()
    table = Table(
        title=f"Attachment 3 — parallel vs sequential results (N={n})",
        columns=[
            "PEs",
            "KPs",
            "batch",
            "mapping",
            "rollback",
            "transport",
            "cancel",
            "rolled back",
            "identical",
        ],
    )
    all_match = True
    for n_pes, kp_req, batch, mapping, rollback, transport, cancel in CONFIG_MATRIX:
        n_kps = kp_count_for(n, kp_req, n_pes) if mapping == "block" else kp_req
        result = sim.run(
            "optimistic",
            n_pes=n_pes,
            n_kps=n_kps,
            batch_size=batch,
            mapping=mapping,
            rollback=rollback,
            transport=transport,
            cancellation=cancel,
        )
        match = result.model_stats == oracle.model_stats
        all_match &= match
        table.add_row(
            n_pes,
            n_kps,
            batch,
            mapping,
            rollback,
            transport,
            cancel,
            result.run.events_rolled_back,
            match,
        )
    table.notes.append(
        "identical = complete model statistics (including the per-router "
        "fingerprint) equal the sequential oracle's"
    )
    table.notes.append(f"ALL CONFIGURATIONS IDENTICAL: {'yes' if all_match else 'NO'}")
    return table
