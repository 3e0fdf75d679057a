"""``python -m repro.experiments.pointworker`` — one sweep point, isolated.

The experiment supervisor (:mod:`repro.experiments.supervisor`) executes
every sweep point through this entry so a wedged or crashed simulation
cannot take the whole sweep down.  The protocol is four paths on argv::

    python -m repro.experiments.pointworker SPEC.json RESULT.pkl HEARTBEAT CKPT_DIR

* ``SPEC.json`` — the point specification (see :func:`run_spec`).
* ``RESULT.pkl`` — where the pickled ``{"model_stats", "run"}`` dict
  goes on success (written atomically; its existence plus exit code 0
  is the success signal).
* ``HEARTBEAT`` — file the run's checkpointer touches at every GVT /
  scheduler boundary; the parent's watchdog reads its mtime as
  GVT-progress evidence and SIGKILLs the child when it goes stale.
* ``CKPT_DIR`` — snapshot directory.  If it already holds snapshots
  (a previous attempt died mid-run), the worker restores the latest one
  and continues instead of starting over.

Spec keys: ``kind`` (``seq`` / ``opt`` / ``cons``), ``n``, ``load``,
``duration``, ``seed``; ``n_pes`` / ``n_kps`` / ``batch_size`` /
``window`` / ``overrides`` for the parallel engines; ``fault`` (``None``,
``{"plan": path}`` or ``{"link_rate": r, "seed": s}``); ``telemetry``
(metrics JSONL path or ``None``); ``checkpoint_every``; ``sabotage``
(test hook: ``"stall"`` hangs without heartbeats, ``{"flaky": k}``
exits 1 on the first *k* attempts).

A spec may instead carry ``scenario``
(``{"path": ..., "name": ..., "hash": ...}``): the point then rebuilds
its entire configuration from that scenario file (topology, traffic,
policy, duration, faults — ``n`` / ``load`` / ``duration`` / ``fault``
are absent from the spec) and the worker refuses to run if the file no
longer hashes to the recorded value, so resuming a sweep can never
silently compute a different experiment.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path

from repro.experiments.common import point_simulation, run_point_inline

__all__ = ["run_spec", "main"]


def _spec_marker(spec: dict) -> dict:
    """The snapshot configuration fingerprint: the spec minus test hooks."""
    return {k: v for k, v in spec.items() if k not in ("sabotage", "telemetry")}


def _sabotage(spec: dict, ckpt_dir: Path) -> None:
    """Deterministic failure modes for the supervisor's own tests."""
    mode = spec.get("sabotage")
    if not mode:
        return
    if mode == "stall":
        # Hang without ever touching the heartbeat: the parent's
        # watchdog must notice and SIGKILL us.
        time.sleep(3600)
        sys.exit(1)
    if isinstance(mode, dict) and "flaky" in mode:
        counter = ckpt_dir / "flaky_attempts"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        attempts = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(attempts + 1))
        if attempts < int(mode["flaky"]):
            sys.exit(1)


def run_spec(spec: dict, heartbeat: Path, ckpt_dir: Path):
    """Build the spec's engine, resume from CKPT_DIR if possible, run."""
    from repro.ckpt import Checkpointer, deferred_interrupts, latest_snapshot
    from repro.obs.capture import RunCapture

    _sabotage(spec, ckpt_dir)

    sim = point_simulation(spec)
    meta = {"engine": spec["kind"], "duration": sim.cfg.duration,
            "seed": spec["seed"]}
    if "scenario" in spec:
        meta.update(scenario=sim.name, scenario_hash=sim.scenario_hash())
    else:
        meta.update(n=spec["n"], load=spec["load"])

    ckpt = Checkpointer(
        ckpt_dir,
        every=spec.get("checkpoint_every", 4),
        marker=_spec_marker(spec),
        heartbeat=heartbeat,
    )
    payload = ckpt.load_latest() if latest_snapshot(ckpt_dir) is not None else None

    telemetry = spec.get("telemetry")
    if payload is not None and payload.get("obs") is not None:
        capture = RunCapture.resume(payload["obs"])
    elif telemetry:
        capture = RunCapture(
            metrics_out=telemetry,
            meta=meta,
            fault_plan=sim.fault_plan,
            injection_plan=sim.injection_plan,
        )
    else:
        capture = None

    try:
        with deferred_interrupts(ckpt):
            result = run_point_inline(
                sim, spec, capture=capture, checkpointer=ckpt
            )
    except KeyboardInterrupt:
        if capture is not None:
            capture.finalize(None)
        sys.exit(130)
    if capture is not None:
        capture.finalize(result)
    return result


def main(argv: list[str] | None = None) -> int:
    """Entry point: run argv's spec, atomically persist the result pickle."""
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 4:
        print(
            "usage: python -m repro.experiments.pointworker "
            "SPEC.json RESULT.pkl HEARTBEAT CKPT_DIR",
            file=sys.stderr,
        )
        return 2
    spec_path, result_path, heartbeat, ckpt_dir = map(Path, argv)
    spec = json.loads(spec_path.read_text())
    result = run_spec(spec, heartbeat, ckpt_dir)
    # LPs hold fused closures (unpicklable by design); the supervisor
    # only needs the statistics.
    doc = {"model_stats": result.model_stats, "run": result.run}
    tmp = result_path.with_suffix(".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
