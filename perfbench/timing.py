"""Reference-interleaved timing of simulator runs.

:class:`Clock` wraps the simulator's public entry points from the
outside.  While installed, ``Simulator.run`` executes in budgets of
``BUDGET`` events and ``Simulator.run_window`` one window at a time;
between budgets, whenever ``SLICE_EVERY_S`` of host time has passed
since the last slice, one reference slice (:mod:`refkernel`) runs.
Chunking is transparent to the model: a budgeted ``run`` drains the
queue exactly like an unbudgeted one, which the benchmark checks by
comparing report digests against plain runs.

An operation may build several rigs one after another (one
``Simulator`` each, as Table 1 does) or several shards run side by
side.  The paper harness's rig runners (``measure_round_trip`` and the
two throughput runners) are wrapped too: before each rig, dead rigs are
released and a fault slice runs, outside the timed regions.  A rig's
*setup* is host time from the operation's start, or from that release,
to its first ``run`` or ``run_window`` call: building the simulated
system and installing the workload; shards are all set up before the
first window.  *Work* is the rest of the operation minus slice time.
The runner normalizes a pass's work by the mean of that pass's slices,
and setup by the median of the fault slices that run before each rig
and after every operation.
"""

from __future__ import annotations

import ctypes
import gc
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import refkernel
from repro.bench import harness, latency, throughput
from repro.net.host_node import Host
from repro.sim.core import Simulator

# Events per Simulator.run budget: small enough that slices land close
# to their due time.
BUDGET = 256
# Host time between slices (target density: one slice per 25 ms).
SLICE_EVERY_S = 0.025
# A run whose slices are sparser than one per this many seconds of
# work was not normalized by anything it measured, and fails.
DENSITY_FLOOR_S = 0.1
# Events an operation may execute in unbudgeted Simulator.run calls and
# in run_window calls before it counts as hung.
EVENT_BUDGET = 50_000_000
# Where the paper experiments look up the functions that build and run
# one rig each.
RIG_RUNNERS = (
    (latency, "measure_round_trip"),
    (throughput, "measure_receive_throughput"),
    (throughput, "measure_transmit_throughput"),
)


def _libc_trim():
    """The C library's ``malloc_trim``, or ``None`` where it has none."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _libc_trim()


def release_memory() -> None:
    """Free every dead rig and hand its pages back to the OS.

    Without the trim, whether a new rig's 16 MB host memories fault in
    fresh pages or reuse resident ones depends on where the allocator
    happened to leave free space, and a build's host time swings by 2x
    between the two.  Trimmed, every build pays for its pages as a
    fresh process does.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class BudgetExhausted(RuntimeError):
    """An operation ran more events than its budget allows."""


class _SetupDone(Exception):
    """Raised at the first run call of a setup-only operation."""


@dataclass
class OpTiming:
    """Host time of one operation and the model counters of its rigs."""

    setup_s: float = 0.0
    work_s: float = 0.0
    slices: int = 0
    slice_s: float = 0.0
    # One entry per rig, in run order: model events, folded events and
    # a snapshot of every host the rig built.
    rigs: list = field(default_factory=list)


class Clock:
    """Installs the wrapped entry points and keeps the slice record.

    With ``interleave`` false the wrappers still split setup from work
    and snapshot each rig, but run no budgets and no slices: the plain
    path chunked runs are checked against, and the one profiled.
    """

    def __init__(self) -> None:
        self.slice_times: list[float] = []
        self.fault_times: list[float] = []
        self.interleave = True
        self._saved: dict = {}
        self._op: Optional[OpTiming] = None
        self._setup_only = False
        self._open: list = []          # [sim, hosts] of running rigs
        self._new_hosts: list = []     # hosts not yet bound to a rig
        self._mark = 0.0               # when the current setup began
        self._excluded = 0.0           # slice + snapshot time in op
        self._events = 0               # events counted against budget
        self._last_slice = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        run, run_window = Simulator.run, Simulator.run_window
        host_init = Host.__init__
        self._saved = {"run": run, "run_window": run_window,
                       "host_init": host_init}
        clock = self

        def rig_runner(build):
            def wrapped(*args, **kwargs):
                if clock._op is not None:
                    clock._next_rig()
                return build(*args, **kwargs)
            return wrapped

        for module, name in RIG_RUNNERS:
            setattr(module, name, rig_runner(getattr(harness, name)))

        def budgeted_run(sim, max_events=None):
            clock._enter(sim)
            limit = EVENT_BUDGET if max_events is None else max_events
            if clock.interleave:
                total = 0
                while True:
                    chunk = min(BUDGET, limit - total)
                    executed = run(sim, chunk)
                    total += executed
                    if executed < chunk or total >= limit:
                        break
                    clock._maybe_slice()
            else:
                total = run(sim, limit)
            if max_events is None:
                clock._count(total)
            return total

        def sliced_window(sim, horizon):
            clock._enter(sim)
            executed = run_window(sim, horizon)
            clock._count(executed)
            if clock.interleave:
                clock._maybe_slice()
            return executed

        def tracked_host_init(host, *args, **kwargs):
            host_init(host, *args, **kwargs)
            if clock._op is not None:
                clock._new_hosts.append(host)

        Simulator.run = budgeted_run
        Simulator.run_window = sliced_window
        Host.__init__ = tracked_host_init

    def uninstall(self) -> None:
        if self._saved:
            Simulator.run = self._saved["run"]
            Simulator.run_window = self._saved["run_window"]
            Host.__init__ = self._saved["host_init"]
            for module, name in RIG_RUNNERS:
                setattr(module, name, getattr(harness, name))
            self._saved = {}

    # -- operations ----------------------------------------------------------

    def time_op(self, fn: Callable[[], object]) -> tuple[object, OpTiming]:
        """Run one operation; return its result and its timing."""
        release_memory()
        op = self._begin(OpTiming())
        start = self._mark
        try:
            result = fn()
            end = time.perf_counter()
            self._close_rigs()
        finally:
            self._end()
        op.work_s = end - start - op.setup_s - self._excluded
        self._fault_slice()
        return result, op

    def time_setup(self, fn: Callable[[], object]) -> Optional[float]:
        """Host time ``fn`` takes to reach its first run call, where the
        operation is abandoned; ``None`` if it never made one."""
        release_memory()
        op = self._begin(OpTiming())
        self._setup_only = True
        reached = False
        try:
            fn()
        except _SetupDone:
            reached = True
        finally:
            self._setup_only = False
            self._end()
        self._fault_slice()
        return op.setup_s if reached else None

    def _begin(self, op: OpTiming) -> OpTiming:
        self._op, self._open, self._new_hosts = op, [], []
        self._events = 0
        self._excluded = 0.0
        self._mark = time.perf_counter()
        return op

    def _end(self) -> None:
        self._op, self._open, self._new_hosts = None, [], []

    def _enter(self, sim) -> None:
        op = self._op
        if op is None:
            return
        for rig in self._open:
            if rig[0] is sim:
                return
        if not self._open:
            op.setup_s += time.perf_counter() - self._mark
            if self._setup_only:
                raise _SetupDone
        hosts = [h for h in self._new_hosts if h.sim is sim]
        self._new_hosts = [h for h in self._new_hosts if h.sim is not sim]
        self._open.append([sim, hosts])

    def _count(self, events: int) -> None:
        if self._op is None:
            return
        self._events += events
        if self._events >= EVENT_BUDGET:
            raise BudgetExhausted(
                f"simulation did not drain within {EVENT_BUDGET} events")

    def _next_rig(self) -> None:
        """Close the finished rigs and release them before the next one
        is built; the time this takes is not the operation's."""
        start = time.perf_counter()
        self._close_rigs()
        self._fault_slice()
        self._mark = time.perf_counter()
        self._excluded += self._mark - start

    def _close_rigs(self) -> None:
        """Snapshot the open rigs' counters and drop the references."""
        for sim, hosts in self._open:
            self._op.rigs.append({
                "model_events": sim.events_processed + sim.events_absorbed,
                "absorbed": sim.events_absorbed,
                "hosts": [asdict(h.stats()) for h in hosts],
            })
        self._open = []

    def _maybe_slice(self) -> None:
        if time.perf_counter() - self._last_slice < SLICE_EVERY_S:
            return
        # The slice frees all it allocates; with the collector off it
        # cannot shift the model's own collection schedule.
        enabled = gc.isenabled()
        gc.disable()
        try:
            took = refkernel.run_slice()
        finally:
            if enabled:
                gc.enable()
        self.slice_times.append(took)
        self._excluded += took
        if self._op is not None:
            self._op.slices += 1
            self._op.slice_s += took
        self._last_slice = time.perf_counter()

    def _fault_slice(self) -> None:
        release_memory()
        self.fault_times.append(refkernel.run_fault_slice())

    # -- normalization ---------------------------------------------------------

    def setup_scale(self) -> float:
        """Factor turning raw setup seconds into nominal-fault seconds."""
        return refkernel.NOMINAL_FAULT_S / statistics.median(
            self.fault_times)
