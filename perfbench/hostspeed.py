"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose CPU speed swings by 2x and
more within fractions of a second (process CPU time grows with wall
time, so it is not scheduling: other tenants slow the core itself). A
raw wall time then measures the neighbours as much as the program.

The benchmark therefore times a fixed pure-Python reference loop next to
the measured work and rescales the work to a nominal host on which one
reference chunk takes :data:`NOMINAL_CHUNK_S`. The swings are fast, so
:class:`Sampler` times one short chunk every :data:`PERIOD_S` *inside* a
sweep, from a ``SIGALRM`` handler, splitting the sweep into segments
short enough for the host's speed to hold across each::

    normalized_s = sum(segment_s * NOMINAL_CHUNK_S / mean(chunk_left, chunk_right))

The handler's own time is left out of every segment. The loop uses only
the standard library (a heap of timestamped events dispatched to slotted
objects, the simulator's hottest pattern), so no change to the program
under test can move it: every program speed-up or slow-down shows in the
normalized time in full, while a uniform host slow-down cancels.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any, List, Tuple

#: one reference chunk's time on the nominal host, the unit the
#: normalized times are in: a round figure (on a contended 2-core x86_64
#: VM under Python 3.11 chunks took 1.6 to 9 ms, and sweeps normalized
#: to about 1.2x what they took raw on that VM when quiet)
NOMINAL_CHUNK_S = 0.001
#: dispatches per chunk
CHUNK_EVENTS = 2_000
#: chunks per sample taken outside a sweep (the sample is their median)
CHUNKS = 15
#: seconds between the in-sweep chunks: at 20 ms a segment's speed is
#: steady, and the chunks cost about a tenth of the sweep (left out)
PERIOD_S = 0.02


class _Node:
    __slots__ = ("hits", "acc")

    def __init__(self) -> None:
        self.hits = 0
        self.acc = 0.0

    def hit(self, now: float) -> None:
        self.hits += 1
        self.acc += now * 0.5


def _chunk(events: int = CHUNK_EVENTS) -> float:
    """Time one chunk: ``events`` pops and pushes on a 64-entry heap."""
    t0 = time.perf_counter()
    nodes = [_Node() for _ in range(64)]
    heap = [(i * 1e-6, i, node) for i, node in enumerate(nodes)]
    seq = len(heap)
    for _ in range(events):
        now, _, node = heapq.heappop(heap)
        node.hit(now)
        seq += 1
        heapq.heappush(heap, (now + (seq % 7 + 1) * 1e-6, seq, node))
    return time.perf_counter() - t0


def sample() -> float:
    """Median seconds of :data:`CHUNKS` reference chunks, measured now."""
    return statistics.median(_chunk() for _ in range(CHUNKS))


def scale(before: float, after: float) -> float:
    """Factor taking a raw time measured between two samples to the
    nominal host."""
    return NOMINAL_CHUNK_S / ((before + after) / 2.0)


class Sampler:
    """Times one reference chunk every :data:`PERIOD_S` while active.

    Use as a context manager around one sweep, between two :func:`sample`
    calls; then :meth:`normalize` the sweep's interval. Each mark is
    ``(handler entry, handler exit, chunk seconds)``.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float, float]] = []
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        entered = time.perf_counter()
        chunk = _chunk()
        self.marks.append((entered, time.perf_counter(), chunk))
        # one-shot, re-armed after the chunk: handlers never nest
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def handler_s(self, t0: float, t1: float) -> float:
        """Seconds the handler took inside ``[t0, t1]``."""
        return sum(
            max(0.0, min(end, t1) - max(start, t0)) for start, end, _ in self.marks
        )

    def normalize(self, t0: float, t1: float, before: float, after: float) -> float:
        """``[t0, t1]`` without the handler's time, at the nominal host
        speed; ``before``/``after`` are samples taken just outside it."""
        total = 0.0
        left_end, left_chunk = t0, before
        for start, end, chunk in self.marks:
            if end <= t0 or start >= t1:
                continue
            total += max(0.0, start - left_end) * scale(left_chunk, chunk)
            left_end, left_chunk = end, chunk
        return total + max(0.0, t1 - left_end) * scale(left_chunk, after)
