"""Global Virtual Time computation.

GVT is the floor of virtual time: no event below it can ever be rolled
back, so storage below it can be fossil-collected and statistics committed.
ROSS "uses Fujimoto's Global Virtual Time (GVT) algorithm for process
synchronization ... rather than a less efficient distributed GVT algorithm
such as Mattern's" (§3.1.2), which it can do because shared-memory delivery
is instantaneous.  We implement both:

* :class:`SynchronousGVT` — Fujimoto-style: at a round barrier, GVT is the
  minimum over all PEs' earliest unprocessed event and anything the
  transport still holds.  Exact, but requires the barrier.
* :class:`MatternGVT` — a Mattern-style epoch/coloring algorithm that never
  needs a barrier: sends are stamped with the current epoch, per-PE
  send/receive counts per epoch detect in-flight messages, and unbalanced
  epochs contribute the (conservative) minimum timestamp they ever sent.
  Produces a valid *lower bound* that converges to the exact GVT once
  mailboxes drain.  Meaningful with the mailbox transport, where messages
  really are in flight when the estimate is taken.

Both satisfy the safety property tested in the suite: the returned value
never exceeds the true minimum unprocessed timestamp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.event import Event
from repro.vt.time import TIME_HORIZON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimistic import TimeWarpKernel

__all__ = ["SynchronousGVT", "MatternGVT", "make_gvt_manager"]


class SynchronousGVT:
    """Barrier GVT: exact minimum over pending queues and the transport."""

    name = "synchronous"
    #: This manager's send/receive hooks are no-ops; the kernel skips the
    #: two per-event calls entirely when this is False.
    tracks_messages = False

    def __init__(self, n_pes: int) -> None:
        self.last = 0.0

    def on_send(self, src_pe: int, event: Event) -> None:
        """Message hook (unused by the synchronous algorithm)."""
        return None

    def on_receive(self, dst_pe: int, event: Event) -> None:
        """Message hook (unused by the synchronous algorithm)."""
        return None

    def estimate(self, kernel: "TimeWarpKernel") -> float:
        """Exact GVT; call only at a round barrier (post-flush)."""
        m = kernel.transport.min_in_flight_ts()
        for pe in kernel.pes:
            key = pe.pending.peek_key()
            if key is not None and key.ts < m:
                m = key.ts
        self.last = m
        return m


class MatternGVT:
    """Epoch-coloring GVT estimator (Mattern-style, barrier-free bound).

    Every send is stamped with the sender's current epoch; the estimator
    closes the epoch and checks, per closed epoch, whether every sent
    message has been received.  Unbalanced epochs may still have messages
    in flight, so they contribute the minimum timestamp sent during that
    epoch — a conservative but safe bound.
    """

    name = "mattern"
    tracks_messages = True

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self.epoch = 0
        # Aggregate counters per epoch (a real distributed implementation
        # keeps these per PE and sums them on the token; the sum is all the
        # algorithm ever uses, so we fold eagerly).
        self._sent: dict[int, int] = {}
        self._recv: dict[int, int] = {}
        self._min_sent_ts: dict[int, float] = {}
        self.last = 0.0

    def on_send(self, src_pe: int, event: Event) -> None:
        """Stamp the message with the current epoch and count it."""
        e = self.epoch
        event.color = e
        self._sent[e] = self._sent.get(e, 0) + 1
        prev = self._min_sent_ts.get(e, TIME_HORIZON)
        if event.key.ts < prev:
            self._min_sent_ts[e] = event.key.ts

    def on_receive(self, dst_pe: int, event: Event) -> None:
        """Balance the message's epoch counter on arrival."""
        e = event.color
        self._recv[e] = self._recv.get(e, 0) + 1

    def estimate(self, kernel: "TimeWarpKernel") -> float:
        """One token pass: close the epoch and return a GVT lower bound."""
        closed = self.epoch
        self.epoch = closed + 1
        m = TIME_HORIZON
        for pe in kernel.pes:
            key = pe.pending.peek_key()
            if key is not None and key.ts < m:
                m = key.ts
        # Unbalanced closed epochs may still have messages in flight.
        for e in list(self._sent):
            if e > closed:
                continue
            if self._sent.get(e, 0) == self._recv.get(e, 0):
                # Fully delivered: this epoch can never lower GVT again.
                self._sent.pop(e, None)
                self._recv.pop(e, None)
                self._min_sent_ts.pop(e, None)
            else:
                ts = self._min_sent_ts.get(e, TIME_HORIZON)
                if ts < m:
                    m = ts
        # GVT is monotone; a lagging estimate never goes backwards.
        if m < self.last:
            m = self.last
        self.last = m
        return m


_MANAGERS = {
    SynchronousGVT.name: SynchronousGVT,
    MatternGVT.name: MatternGVT,
}


def make_gvt_manager(name: str, n_pes: int):
    """Instantiate a GVT manager by config name."""
    try:
        return _MANAGERS[name](n_pes)
    except KeyError:
        raise ValueError(
            f"unknown GVT algorithm {name!r}; choose from {sorted(_MANAGERS)}"
        ) from None
