"""Generator-based simulation processes.

A *process* is a Python generator that yields *commands* to the process
kernel.  This mirrors how the real system is structured: the on-board
i960 loops, the host interrupt handlers and the driver threads of the
paper all become processes that explicitly spend simulated time.

Supported commands (anything a process may ``yield``):

* :class:`Delay` -- advance simulated time.
* :class:`Signal` (yield it directly) -- block until the signal fires;
  the value passed to :meth:`Signal.fire` becomes the yield's value.
* :class:`Process` (yield it directly) -- join another process; its
  return value becomes the yield's value.
* ``None`` -- reschedule immediately (a cooperative yield point).

Resources (:mod:`repro.sim.resources`) provide further awaitables.

Resume order -- the contract every model's event order rests on:

* A ``Delay`` or ``None`` schedules one heap event; same-time wake-ups
  run in the order they were scheduled.
* A command that is ready when yielded -- a free resource unit, a put
  into a store with room, a get from a non-empty store, a fired latch,
  a finished process -- resumes the process at once, inside the same
  event, before any other process runs.
* A process woken by a release, a deposit or a fire runs to its next
  blocking yield before the code that woke it continues.

* A get that makes room in a full store lets the first blocked putter
  in once the getter blocks, sleeps or ends -- the latest such get
  first -- and not at all if the getter raised.

:meth:`Process._step` answers ready resource requests, puts and gets
in a loop instead of by recursion (a trampoline) and schedules sleeps
itself; every other command takes the waiter path, which resumes
synchronously in the same order.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .core import NO_KEY, Delay, SimulationError, Simulator
from .resources import _Get, _Put, _Request

ProcessGen = Generator[Any, Any, Any]

# Installed by repro.analysis.sanitize while it is enabled: wraps the
# resume callback of every process built afterwards (so that each
# process runs under its own actor attribution).  None costs nothing
# per step: it is read once, when a process is built.
_resume_wrapper: Optional[Callable[[Callable], Callable]] = None


def set_resume_wrapper(
        wrapper: Optional[Callable[[Callable], Callable]]) -> None:
    """Install (or clear) the per-process resume wrapper."""
    global _resume_wrapper
    _resume_wrapper = wrapper


class Signal:
    """A broadcast wake-up point.

    Processes that yield a Signal block until :meth:`fire` is called;
    all current waiters wake with the fired value.  A Signal has no
    memory: firing with no waiters is a no-op (see :class:`Latch` for
    the sticky variant).
    """

    def __init__(self, name: str = "signal"):
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        # A tuple, rebuilt on subscribe: fire() iterates it without a
        # copy, and a callback subscribed during a fire waits for the
        # next one.
        self._subscribers: tuple[Callable[[Any], None], ...] = ()
        self.fire_count = 0

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        self._waiters.append(resume)

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register a persistent callback invoked on every fire."""
        self._subscribers = (*self._subscribers, callback)

    def fire(self, value: Any = None) -> int:
        """Wake all waiters; returns how many were woken."""
        self.fire_count += 1
        waiters = self._waiters
        woken = len(waiters)
        if woken:
            self._waiters = []
            for resume in waiters:
                resume(value)
        for callback in self._subscribers:
            callback(value)
        return woken

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Latch(Signal):
    """A sticky signal: once fired, subsequent waits return immediately."""

    def __init__(self, name: str = "latch"):
        super().__init__(name)
        self.fired = False
        self.value: Any = None

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self.fired:
            resume(self.value)
        else:
            super()._add_waiter(resume)

    def fire(self, value: Any = None) -> int:
        self.fired = True
        self.value = value
        return super().fire(value)


class Interrupted(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process:
    """A running generator, driven by the simulator.

    Yielding a Process from another process joins it.  The generator's
    ``return`` value is exposed as :attr:`result` once :attr:`done`.
    """

    def __init__(self, sim: Simulator, gen: ProcessGen, name: str = "proc"):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done = False
        self.failed = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Built on first join: most processes are never joined.
        self._done_latch: Optional[Latch] = None
        # Bound once; every wake-up and waiter registration reuses it.
        self._resume = (self._step if _resume_wrapper is None
                        else _resume_wrapper(self._step))
        # The seq of the scheduled wake-up while sleeping, the command
        # while blocked on a waiter, None while running or done.
        self._pending: Any = sim._schedule(sim.now, NO_KEY, self._resume)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        # Duck-typed with Signal so `yield process` joins it.
        if self._done_latch is None:
            self._done_latch = Latch(f"{self.name}.done")
            if self.done:
                self._done_latch.fire(self.result)
        self._done_latch._add_waiter(resume)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point.

        Only a sleeping process (one that yielded ``Delay`` or ``None``)
        can be interrupted.  One blocked on a signal, resource, store or
        join is registered there as a waiter, which would resume it a
        second time, so that raises :class:`SimulationError`.
        """
        if self.done:
            return
        pending = self._pending
        if type(pending) is not int:
            state = ("is running" if pending is None
                     else f"waits on {pending!r}")
            raise SimulationError(
                f"cannot interrupt process {self.name!r}: it {state}")
        self.sim._cancel(pending)
        self._resume(None, Interrupted(cause))

    def _step(self, value: Any = None,
              exc: Optional[BaseException] = None) -> None:
        """Resume the generator with ``value`` (or throw ``exc`` into
        it) and run it until it sleeps, blocks or ends.

        Ready resource requests, store puts and store gets are answered
        in the loop instead of through a waiter callback that would
        re-enter it; sleeps go straight onto the simulator's heap.
        """
        self._pending = None
        gen = self._gen
        # Bounded stores this step took an item from: each lets a
        # blocked putter in once the step has blocked, slept or ended,
        # latest get first, and none if it raised (the resume order the
        # module docstring states).
        admit: Optional[list] = None
        while True:
            try:
                if exc is None:
                    command = gen.send(value)
                else:
                    command = gen.throw(exc)
                    exc = None
            except StopIteration as stop:
                self._finish(stop.value)
                break
            except Interrupted as err:
                if exc is None:            # raised by the model itself
                    self._fail(err)
                    raise
                self._finish(None)         # an uncaught interrupt ends it
                break
            except BaseException as err:
                self._fail(err)            # propagate model bugs loudly
                raise
            cls = type(command)
            if cls is Delay:
                when = self.sim._now + command.duration
            elif command is None:
                when = self.sim._now
            else:
                if cls is _Get:
                    store = command.store
                    if store._items:
                        value = store._items.popleft()
                        if store.capacity is not None:
                            if admit is None:
                                admit = []
                            admit.append(store)
                        continue
                elif cls is _Request:
                    resource = command.resource
                    if resource._in_use < resource.capacity:
                        value = resource._take()  # a free unit: no waiter
                        continue
                elif cls is _Put:
                    store = command.store
                    if (store.capacity is None
                            or len(store._items) < store.capacity):
                        store._deposit(command.item)  # wakes a getter first
                        value = None
                        continue
                add_waiter = getattr(command, "_add_waiter", None)
                if add_waiter is not None:        # block until resumed
                    self._pending = command
                    add_waiter(self._resume)
                    break
                if not isinstance(command, Delay):
                    err = SimulationError(
                        f"process {self.name!r} yielded unsupported "
                        f"{command!r}")
                    self._fail(err)
                    raise err
                when = self.sim._now + command.duration  # a Delay subclass
            # Sleep: Simulator._schedule, inlined.
            sim = self.sim
            seq = next(sim._seq)
            sim._live[seq] = (when, NO_KEY, self._resume)
            heappush(sim._heap, (when, NO_KEY, seq))
            self._pending = seq
            break
        if admit is not None:
            for store in reversed(admit):
                store._admit_putter()

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        if self._done_latch is not None:
            self._done_latch.fire(result)

    def _fail(self, err: BaseException) -> None:
        self.done = True
        self.failed = True
        self.error = err
        if self._done_latch is not None:
            self._done_latch.fire(None)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


def spawn(sim: Simulator, gen: ProcessGen, name: str = "proc") -> Process:
    """Start ``gen`` as a process on ``sim``."""
    return Process(sim, gen, name)


def all_of(sim: Simulator, processes: Iterable[Process]) -> Process:
    """A process that completes when every process in the list has."""

    def waiter() -> ProcessGen:
        results = []
        for proc in processes:
            results.append((yield proc))
        return results

    return spawn(sim, waiter(), "all_of")


__all__ = [
    "Delay", "Signal", "Latch", "Process", "Interrupted", "spawn", "all_of",
]
