"""The sequential discrete-event engine — the correctness oracle.

"It is important to validate the results of the parallel simulation with
the results of the sequential simulation.  Consequently, the only way for
the results of the parallel simulation to match the sequential model is for
the parallel model to be deterministic." (§4.2.1)

This engine shares the model API (:class:`~repro.core.lp.LogicalProcess`,
:class:`~repro.core.lp.Model`) but none of the Time Warp machinery: one
heap, events executed strictly in key order, no rollback paths at all.
Its committed results define what every optimistic configuration must
reproduce bit-for-bit.

Cost accounting mirrors Fig 5's "1 Processor" line: events are charged the
cost-model's per-event cost (with the full LP population's cache factor)
plus local send costs — no GVT, fossil or rollback overhead, because a
sequential simulator has none.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.core.event import Event
from repro.core.executor import Executor
from repro.core.lp import LogicalProcess, Model
from repro.core.queue import PendingQueue
from repro.core.result import RunResult
from repro.core.stats import RunStats
from repro.errors import ConfigurationError

__all__ = ["SequentialEngine", "run_sequential"]


class SequentialEngine(Executor):
    """Classic single-heap discrete-event simulator."""

    kind = "sequential"

    def __init__(
        self,
        model: Model,
        end_time: float,
        *,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
        pool: bool = True,
        paranoid: bool = False,
        executor: str = "scalar",
    ) -> None:
        if end_time <= 0:
            raise ConfigurationError(f"end_time must be positive, got {end_time}")
        self.end_time = end_time
        self.seed = seed
        self.paranoid = paranoid
        self.cost = cost if cost is not None else CostModel()
        # The population.  This engine steps one event at a time in
        # strict key order and has no fused stepper, so it never asks the
        # model for a vector plan; ``executor`` only records why.
        self._init_population(model)
        if executor == "vectorized":
            self.soa_decline = "the sequential engine has no fused stepper"
        self.pending = PendingQueue()
        self.sends = 0
        #: Optional event tracer (see repro.core.trace); in a sequential
        #: run every executed event commits immediately.
        self.tracer = None
        #: Optional metrics recorder (see repro.obs.metrics).  A
        #: sequential run has no GVT rounds, so the recorder's
        #: ``interval`` (in events) paces the samples; when detached the
        #: run loop is the exact allocation-free loop from before.
        self.metrics = None
        #: Optional span tracer (see repro.obs.spans).  No rounds here
        #: either, so one ``exec`` span covers every ``spans.interval``
        #: events; detached, the run loop is the exact fast loop.
        self.spans = None
        #: Optional checkpointer (see repro.ckpt); consulted every
        #: ``ckpt.seq_events`` commits, never per event.
        self.ckpt = None
        #: Optional liveness watchdog (see repro.health); consulted at
        #: the same event-interval boundaries as the checkpointer.
        self.health = None
        #: Run-loop state grafted by a checkpoint restore; consumed (and
        #: cleared) at the top of :meth:`run`.
        self._resume = None
        #: Event recycling: a committed event is dead the moment its
        #: ``commit`` hook returns (sequential execution never rolls back),
        #: so it goes straight back to the free list.
        self._bind_lps(seed, self._init_pool(pool))

    def _sample_metrics(self, recorder, now: float, processed: int) -> None:
        """Feed the recorder one sample (sequential: commit == execute)."""
        recorder.sample(
            gvt=now,
            committed=processed,
            processed=processed,
            fossil_collected=processed,
            pending=len(self.pending),
            pool_hit_rate=self._pool_hit_rate(),
        )

    def _emit(self, src_lp: LogicalProcess, ev: Event) -> None:
        self.sends += 1
        self.pending.push(ev)

    def schedule(self, ev: Event) -> None:
        """Executor ABI: bare enqueue into the single pending heap."""
        self.pending.push(ev)

    def run(self) -> RunResult:
        """Execute to the end barrier and collect statistics."""
        resume = self._resume
        if resume is None:
            for lp in self.lps:
                lp._now = -1.0
                lp.on_init()

        lps = self.lps
        pop_below = self.pending.pop_below
        end = self.end_time
        tracer = self.tracer
        release = self.pool.release if self.pool is not None else None
        metrics = self.metrics
        spans = self.spans
        ckpt = self.ckpt
        health = self.health
        processed = 0
        if resume is not None:
            processed = resume["processed"]
            self._resume = None
        if (
            metrics is None
            and spans is None
            and ckpt is None
            and health is None
            and not self.paranoid
        ):
            while True:
                ev = pop_below(end)
                if ev is None:
                    break
                lp = lps[ev.dst]
                lp._now = ev.key.ts
                lp.forward(ev)
                lp.commit(ev)
                processed += 1
                if tracer is not None:
                    tracer.on_exec(ev)
                    tracer.on_commit(ev)
                if release is not None:
                    release(ev)
        elif spans is None and ckpt is None and health is None and not self.paranoid:
            # Identical event-by-event behaviour, plus a metric sample
            # every ``metrics.interval`` events and one at the barrier.
            interval = metrics.interval
            next_sample = (processed // interval + 1) * interval
            while True:
                ev = pop_below(end)
                if ev is None:
                    break
                lp = lps[ev.dst]
                now = ev.key.ts
                lp._now = now
                lp.forward(ev)
                lp.commit(ev)
                processed += 1
                if tracer is not None:
                    tracer.on_exec(ev)
                    tracer.on_commit(ev)
                if release is not None:
                    release(ev)
                if processed >= next_sample:
                    next_sample += interval
                    self._sample_metrics(metrics, now, processed)
            self._sample_metrics(metrics, end, processed)
        else:
            # Spans, checkpointing and/or paranoid checks: the metric
            # loop plus an ``exec`` span every ``spans.interval`` events
            # and a boundary every ``seq_events`` commits.  Pacing is
            # anchored to absolute commit counts so a resumed run hits
            # the same boundaries as the uninterrupted one.
            from repro.core.invariants import check_sequential

            interval = metrics.interval if metrics is not None else 0
            next_sample = (
                (processed // interval + 1) * interval
                if metrics is not None
                else -1
            )
            sinterval = spans.interval if spans is not None else 0
            next_span = (
                (processed // sinterval + 1) * sinterval
                if spans is not None
                else -1
            )
            span_t0 = spans.clock() if spans is not None else 0.0
            span_base = processed
            bstep = ckpt.seq_events if ckpt is not None else 1024
            next_boundary = (processed // bstep + 1) * bstep
            paranoid = self.paranoid
            while True:
                ev = pop_below(end)
                if ev is None:
                    break
                lp = lps[ev.dst]
                now = ev.key.ts
                lp._now = now
                lp.forward(ev)
                lp.commit(ev)
                processed += 1
                if tracer is not None:
                    tracer.on_exec(ev)
                    tracer.on_commit(ev)
                if release is not None:
                    release(ev)
                if metrics is not None and processed >= next_sample:
                    next_sample += interval
                    self._sample_metrics(metrics, now, processed)
                if spans is not None and processed >= next_span:
                    next_span += sinterval
                    t1 = spans.clock()
                    spans.record(
                        "exec", span_t0, t1, pe=0, n=processed - span_base
                    )
                    span_t0 = t1
                    span_base = processed
                if processed >= next_boundary:
                    next_boundary += bstep
                    if paranoid:
                        check_sequential(self, now)
                    if health is not None:
                        health.boundary_sequential(self, now)
                    if ckpt is not None:
                        written_before = ckpt.written
                        t0 = spans.clock() if spans is not None else 0.0
                        ckpt.boundary(self, {"processed": processed})
                        if spans is not None and ckpt.written > written_before:
                            spans.record("snapshot", t0, spans.clock())
            if metrics is not None:
                self._sample_metrics(metrics, end, processed)
            if spans is not None and processed > span_base:
                spans.record(
                    "exec",
                    span_t0,
                    spans.clock(),
                    pe=0,
                    n=processed - span_base,
                )

        stats = RunStats(engine="sequential", n_pes=1, n_kps=1)
        stats.soa_decline_reason = self.soa_decline
        stats.processed = processed
        stats.committed = processed
        stats.local_sends = self.sends
        if self.pool is not None:
            stats.pool_hits = self.pool.hits
            stats.pool_allocs = self.pool.allocs
        n_lps = len(lps)
        busy_units = processed * self.cost.event_cost(n_lps) + (
            self.sends * self.cost.local_send
        )
        stats.makespan_seconds = self.cost.seconds(busy_units)
        stats.total_busy_seconds = stats.makespan_seconds
        stats.per_pe_busy_seconds = [stats.makespan_seconds]
        stats.event_rate = (
            stats.committed / stats.makespan_seconds if stats.makespan_seconds else 0.0
        )
        model_stats = self.model.collect_stats(lps)
        return RunResult(model_stats=model_stats, run=stats, lps=lps)


def run_sequential(
    model: Model,
    end_time: float,
    *,
    seed: int = 0x5EED,
    cost: CostModel | None = None,
    pool: bool = True,
    paranoid: bool = False,
    executor: str = "scalar",
    tracer=None,
    metrics=None,
    spans=None,
    checkpointer=None,
    health=None,
) -> RunResult:
    """Convenience wrapper: build a sequential engine, attach telemetry, run."""
    engine = SequentialEngine(
        model,
        end_time,
        seed=seed,
        cost=cost,
        pool=pool,
        paranoid=paranoid,
        executor=executor,
    )
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
