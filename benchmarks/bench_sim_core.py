"""Micro-benchmarks for the event engine's hot paths.

Five scenarios that dominate real model runs::

    python benchmarks/bench_sim_core.py

* throughput -- schedule-and-run a flat stream of events (the heap's
  steady state everywhere).
* cancel-heavy -- timers armed and cancelled before firing, the
  retransmit/watchdog pattern; exercises dead-entry compaction.
* pending-poll -- a model that checks ``sim.pending`` between events
  (the workload engine's completion test); must be O(1), not a scan.
* processes -- the process kernel: processor loops that each delay,
  run a three-deep ``yield from`` chain down to ``Resource.use`` on a
  bus that about two requests in three find free (as on the paper's
  single-host runs), and spawn one short-lived child per iteration,
  as the OSIRIS receive processor does per cell DMA.
* store -- a bounded producer/consumer channel that the producers
  outrun, so most puts wait as blocked putters that the consumer's gets
  let in: the board's receive FIFO under a fictitious-PDU source.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sim import Delay, Resource, Simulator, Store, spawn  # noqa: E402


def bench_throughput(n: int = 200_000) -> tuple[float, int]:
    sim = Simulator()
    start = time.perf_counter()
    for i in range(n):
        sim.call_after(float(i % 97), lambda: None)
    sim.run()
    return time.perf_counter() - start, sim.events_processed


def bench_cancel_heavy(n: int = 200_000) -> tuple[float, int]:
    sim = Simulator()

    def tick():
        # Arm a "retransmit timer", then the ack arrives and cancels
        # it -- the timer never fires, it only churns the heap.
        timer = sim.call_after(1000.0, lambda: None)
        timer.cancel()

    start = time.perf_counter()
    for _ in range(n):
        sim.call_after(1.0, tick)
    sim.run()
    return time.perf_counter() - start, sim.events_processed


def bench_pending_poll(n: int = 200_000) -> tuple[float, int]:
    sim = Simulator()
    for i in range(n):
        sim.call_after(float(i % 97), lambda: None)
    start = time.perf_counter()
    while sim.pending:
        sim.step()
    return time.perf_counter() - start, sim.events_processed


def bench_processes(n: int = 200_000) -> tuple[float, int]:
    sim = Simulator()
    bus = Resource(sim, "bus")

    def bus_write(hold):            # TurboChannel.dma_write's shape
        return bus.use(hold)

    def write_host(hold):           # the DMA engine's transaction
        yield from bus_write(hold)

    def transfer(hold):
        yield from write_host(hold)

    def child():
        yield Delay(1.0)

    def processor(iterations):
        for _ in range(iterations):
            yield Delay(0.5)
            yield from transfer(0.2)
            spawn(sim, child(), "child")

    # Four events per iteration: the delay, the bus hold, and the
    # child's start and delay.  Three processors on one bus leave it
    # free for 68% of the requests.
    processors = 3
    for i in range(processors):
        spawn(sim, processor(n // 4 // processors), f"processor{i}")
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.events_processed


def bench_store(n: int = 200_000) -> tuple[float, int]:
    sim = Simulator()
    fifo = Store(sim, "fifo", capacity=8)

    def producer(count):
        for i in range(count):
            yield Delay(0.5)
            yield fifo.put(i)           # blocks while the FIFO is full

    def consumer():
        get = fifo.get()                # one command, yielded again
        while True:
            yield get
            yield Delay(0.7)

    # One event per put and one per get: two producers outrun the
    # consumer, so after the first few cells every put blocks.
    producers = 2
    for i in range(producers):
        spawn(sim, producer(n // 2 // producers), f"producer{i}")
    spawn(sim, consumer(), "consumer")
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.events_processed


def main() -> int:
    for name, fn in (("throughput", bench_throughput),
                     ("cancel-heavy", bench_cancel_heavy),
                     ("pending-poll", bench_pending_poll),
                     ("processes", bench_processes),
                     ("store", bench_store)):
        wall, events = min(fn() for _ in range(3))
        print(f"{name:>14s}: {wall:6.3f} s  "
              f"({events / wall / 1e6:.2f} M events/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
