"""Frozen reference kernels: the yardsticks host time is normalized by.

Two fixed workloads, each run in short slices next to the simulation.
A slice does the same work on every run, so its duration tracks how
fast this machine does that kind of work *right now*; the benchmark
divides the simulator's time by it.

* :func:`run_slice` is pure Python shaped like the simulator's inner
  loop -- a heap of ``(time, seq)`` tuples, a dict of live entries and
  one closure call per event.  It normalizes run time.
* :func:`run_fault_slice` zero-fills fresh memory, as building a host's
  simulated memory does; page faults are most of a rig's build time.
  It normalizes setup time.

Frozen: do not change this file, and import nothing from ``repro``.
Editing a kernel or a nominal time changes the unit every normalized
figure is expressed in, so results before and after such an edit are
not comparable.
"""

from __future__ import annotations

import heapq
import time

# Events one slice executes.
SLICE_EVENTS = 1500
# Entries kept live in the slice's heap.
SLICE_DEPTH = 128
# The slice duration normalized figures are expressed against: a frozen
# constant, so ``run_s`` reads "seconds on a machine whose slice takes
# this long".
NOMINAL_SLICE_S = 0.003
# Bytes one fault slice zero-fills, and its frozen nominal duration.
FAULT_BYTES = 8 << 20
NOMINAL_FAULT_S = 0.004


def run_slice(events: int = SLICE_EVENTS) -> float:
    """Execute one slice of the reference loop; return its duration."""
    start = time.perf_counter()
    heap: list = []
    live: dict = {}
    total = [0]
    rand = 12345

    def make(weight: int):
        def fire() -> None:
            total[0] += weight
        return fire

    for seq in range(SLICE_DEPTH):
        rand = (rand * 1103515245 + 12345) & 0x7FFFFFFF
        when = float(rand & 0x3FF)
        live[seq] = (when, make(seq & 7))
        heapq.heappush(heap, (when, seq))
    seq = SLICE_DEPTH
    for _ in range(events):
        now, key = heapq.heappop(heap)
        entry = live.pop(key)
        entry[1]()
        rand = (rand * 1103515245 + 12345) & 0x7FFFFFFF
        when = now + float(rand & 0x3FF) * 0.25
        live[seq] = (when, make(rand & 7))
        heapq.heappush(heap, (when, seq))
        seq += 1
    if total[0] < 0:            # keep the work observable
        raise AssertionError("reference kernel miscounted")
    return time.perf_counter() - start


def run_fault_slice(nbytes: int = FAULT_BYTES) -> float:
    """Zero-fill ``nbytes`` of fresh memory; return the duration.  The
    caller returns freed memory to the OS before each call, so every
    page faults in."""
    start = time.perf_counter()
    block = bytearray(nbytes)
    took = time.perf_counter() - start
    if len(block) != nbytes:
        raise AssertionError("reference kernel misallocated")
    return took
