"""Machine-speed calibration: host seconds expressed in reference-host seconds.

Host speed on a shared 2-vCPU box wanders by up to 1.5x over seconds, in
steps that last seconds (neighbours on the host's SMT siblings and caches).
A fixed loop that allocates, hashes and resumes generators like the
simulator slows down by about the same factor, so every timed section is
bracketed by this loop and reported as ``elapsed / slowness``, where
``slowness = loop time / CALIBRATION_REFERENCE_S``.
"""

import gc
import heapq
import time
from typing import Any, Dict, List, Tuple

#: Seconds the calibration loop takes on the reference host (2-vCPU Xeon,
#: Python 3.11, in its fast state).
CALIBRATION_REFERENCE_S = 0.035


def _loop(steps: int = 25_000) -> int:
    """A small discrete-event loop: generators, a heap, fresh objects."""

    class Event:
        __slots__ = ("when", "process", "value")

    def process(delay: int):
        done = 0
        while True:
            done += 1
            yield delay + (done & 3)

    heap: List[Tuple[int, int, Any]] = []
    for index in range(256):
        proc = process(index % 5 + 1)
        heap.append((next(proc), index, proc))
    heapq.heapify(heap)
    table: Dict[int, Event] = {}
    for step in range(steps):
        when, index, proc = heapq.heappop(heap)
        event = Event()
        event.when, event.process, event.value = when, proc, (step, index)
        table[(step * 7919) & 32767] = event
        heapq.heappush(heap, (when + proc.send(None), index, proc))
    return len(table)


def calibrate() -> float:
    """Seconds the calibration loop takes right now.

    Everything alive before the call is frozen out of the collector while
    the loop runs, so the collections it triggers cost the same whatever
    the program has built.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        gc.unfreeze()


def slowness(*loop_times: float) -> float:
    """Machine slowness vs the reference host, from calibration times."""
    return sum(loop_times) / len(loop_times) / CALIBRATION_REFERENCE_S
