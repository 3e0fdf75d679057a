"""How fast the host is right now, measured with fixed pure-Python kernels.

The benchmark's host is shared, and its speed wanders by tens of percent
over seconds to minutes.  While a timed repetition runs, a :class:`Sampler`
interrupts the program every ``PERIOD_S`` seconds, in whichever processes
do the work, to time one *burst* of these kernels.  Every measured span is
expressed in *reference seconds*: its host seconds, less the bursts inside
it, scaled by ``REF_BURST_S`` over the mean burst time during the span.  A reference second is a second on a host
where a burst takes ``REF_BURST_S``.  The kernels use none of the program's
code, so a change to the program moves reference seconds exactly as it
moves host seconds, while a change in host speed moves both the bursts and
the program and cancels out.

The kernels do what the simulator does most: allocate small slotted
objects, call methods, and work on dicts, lists and ``heapq`` heaps.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import mmap
import os
import signal
import statistics
import struct
import time

#: Burst time, in seconds, that defines a reference second: about the
#: typical burst on the 2-core Xeon host the benchmark was defined on.
REF_BURST_S = 0.014
#: Seconds between bursts while a sampler runs; bursts cost about 5%.
PERIOD_S = 0.25


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


class _Packet:
    __slots__ = ("t", "src", "dst", "hops")

    def __init__(self, t: int, src: int, dst: int) -> None:
        self.t = t
        self.src = src
        self.dst = dst
        self.hops = 0

    def step(self, n: int) -> bool:
        self.hops += 1
        self.src = (self.src + 1) % n
        return self.src == self.dst


def _table_kernel(n: int) -> int:
    d: dict = {}
    h: list = []
    acc = 0
    for i in range(n):
        o = _Item(i, (i * 2654435761) & 0xFFFF)
        d[o.b] = o
        heapq.heappush(h, (o.b, i))
        if len(h) > 256:
            acc += heapq.heappop(h)[0]
        acc += d.get(i & 0xFFFF, o).a
    return acc


def _route_kernel(n: int) -> int:
    h: list = []
    table: list[list] = [[] for _ in range(64)]
    seen: dict = {}
    acc = 0
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        p = _Packet(x & 0xFFFF, x % 64, (x >> 8) % 64)
        table[p.src].append(p)
        heapq.heappush(h, (p.t, i, p))
        if len(h) > 512:
            _, _, q = heapq.heappop(h)
            if q.step(64):
                acc += 1
            seen[q.t] = seen.get(q.t, 0) + 1
            lst = table[q.dst]
            if lst:
                acc += lst.pop().hops
    return acc + len(seen)


def burst() -> float:
    """Host seconds one burst of the kernels takes now.

    The collector is off while the kernels run, so their time does not
    depend on what the interrupted program holds on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _table_kernel(5000)
        _route_kernel(3750)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_speed(n: int = 9) -> float:
    """Median of ``n`` bursts: about ``REF_BURST_S`` at typical host speed."""
    return statistics.median(burst() for _ in range(n))


#: Shared burst records of forked processes: slots of a count and
#: (start, time) pairs.  Slot 0 is the sampling process itself.
_SLOTS = 64
_RECORDS = 1024
_SLOT_BYTES = 8 + 16 * _RECORDS


class Sampler:
    """Times a burst every ``PERIOD_S`` seconds while the ``with`` block runs.

    The bursts run in a ``SIGALRM`` handler, on the main thread, between
    the program's bytecodes.  With ``in_workers`` they run instead in every
    process this one forks inside the block (process mode), so that they
    measure the host where the work runs and take no core from a worker;
    those processes write them to shared memory.  Either way one burst
    runs here on entry and on exit, so every span in between has bursts on
    both sides, however short it is.
    """

    def __init__(self, in_workers: bool = False) -> None:
        self.in_workers = in_workers
        self.starts: list[float] = []
        self.times: list[float] = []
        self.slots: list[int] = []
        self._shared: mmap.mmap | None = None
        self._forks = 0

    def _record(self, slot: int) -> None:
        start = time.perf_counter()
        took = burst()
        if self._shared is None:
            self.starts.append(start)
            self.times.append(took)
            self.slots.append(slot)
            return
        off = slot * _SLOT_BYTES
        (n,) = struct.unpack_from("q", self._shared, off)
        if n < _RECORDS:
            struct.pack_into("dd", self._shared, off + 8 + 16 * n, start, took)
            struct.pack_into("q", self._shared, off, n + 1)

    def _start_timer(self, slot: int) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self._record(slot))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _before_fork(self) -> None:
        self._forks += 1

    def _in_child(self) -> None:
        global _forking
        _forking = None  # the child's own children are not sampled
        if self._forks < _SLOTS:
            self._start_timer(self._forks)

    def __enter__(self) -> Sampler:
        global _forking
        self._record(0)
        self._previous = signal.getsignal(signal.SIGALRM)
        if self.in_workers:
            self._shared = mmap.mmap(-1, _SLOTS * _SLOT_BYTES)
            _forking = self
        else:
            self._start_timer(0)
        return self

    def __exit__(self, *exc) -> None:
        global _forking
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if self._shared is not None:
            _forking = None
            records = []
            for slot in range(1, min(self._forks + 1, _SLOTS)):
                off = slot * _SLOT_BYTES
                (n,) = struct.unpack_from("q", self._shared, off)
                for i in range(n):
                    start, took = struct.unpack_from("dd", self._shared, off + 8 + 16 * i)
                    records.append((start, took, slot))
            self._shared.close()
            self._shared = None
            for start, took, slot in sorted(records):
                self.starts.append(start)
                self.times.append(took)
                self.slots.append(slot)
        self._record(0)

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def host_s(self, t0: float, t1: float) -> float:
        """The span ``[t0, t1]`` of ``perf_counter`` time, less the bursts inside it.

        Processes that burst in the span did so side by side, so the span
        loses their mean total burst time.
        """
        lo, hi = self._inside(t0, t1)
        sources = len(set(self.slots[lo:hi])) or 1
        return t1 - t0 - sum(self.times[lo:hi]) / sources

    def reference_s(self, t0: float, t1: float) -> float:
        """The span's :meth:`host_s` in reference seconds.

        The mean time of the bursts inside the span gives the host's speed.
        A span too short to hold a burst uses the bursts just before and
        just after it.
        """
        lo, hi = self._inside(t0, t1)
        near = self.times[lo:hi] or self.times[max(lo - 1, 0):hi + 1]
        return self.host_s(t0, t1) * REF_BURST_S / statistics.mean(near)


#: The sampler whose ``with`` block is forking processes to burst in.
_forking: Sampler | None = None


def _before_fork() -> None:
    if _forking is not None:
        _forking._before_fork()


def _after_fork_in_child() -> None:
    if _forking is not None:
        _forking._in_child()


os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)
