"""Unit tests for generator-based processes."""

import pytest

from repro.sim import (
    Delay, Interrupted, Latch, Resource, SimulationError, Signal, Simulator,
    all_of, spawn,
)


def test_delay_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        yield Delay(3.0)
        seen.append(sim.now)
        yield Delay(4.0)
        seen.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert seen == [3.0, 7.0]


def test_process_result():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return 42

    p = spawn(sim, proc())
    sim.run()
    assert p.done
    assert p.result == 42


def test_join_another_process():
    sim = Simulator()

    def worker():
        yield Delay(5.0)
        return "payload"

    def waiter(target):
        value = yield target
        return (sim.now, value)

    w = spawn(sim, worker())
    j = spawn(sim, waiter(w))
    sim.run()
    assert j.result == (5.0, "payload")


def test_join_already_finished_process():
    sim = Simulator()

    def worker():
        yield Delay(1.0)
        return "done"

    def late_joiner(target):
        yield Delay(10.0)
        value = yield target
        return value

    w = spawn(sim, worker())
    j = spawn(sim, late_joiner(w))
    sim.run()
    assert j.result == "done"


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    sig = Signal("s")
    results = []

    def waiter():
        value = yield sig
        results.append((sim.now, value))

    for _ in range(3):
        spawn(sim, waiter())
    spawn(sim, _fire_later(sim, sig, 2.0, "hello"))
    sim.run()
    assert results == [(2.0, "hello")] * 3


def _fire_later(sim, sig, delay, value):
    yield Delay(delay)
    sig.fire(value)


def test_signal_has_no_memory():
    sim = Simulator()
    sig = Signal("s")
    sig.fire("lost")
    results = []

    def waiter():
        value = yield sig
        results.append(value)

    spawn(sim, waiter())
    spawn(sim, _fire_later(sim, sig, 1.0, "kept"))
    sim.run()
    assert results == ["kept"]


def test_latch_remembers_fire():
    sim = Simulator()
    latch = Latch("l")
    latch.fire("sticky")
    results = []

    def waiter():
        value = yield latch
        results.append(value)

    spawn(sim, waiter())
    sim.run()
    assert results == ["sticky"]


def test_yield_none_is_cooperative_yield():
    sim = Simulator()
    order = []

    def proc(tag):
        for _ in range(2):
            order.append(tag)
            yield None

    spawn(sim, proc("a"))
    spawn(sim, proc("b"))
    sim.run()
    assert order == ["a", "b", "a", "b"]


def test_interrupt_during_delay():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield Delay(100.0)
            outcome.append("slept")
        except Interrupted as exc:
            outcome.append(("interrupted", sim.now, exc.cause))

    p = spawn(sim, sleeper())

    def interrupter():
        yield Delay(3.0)
        p.interrupt("wake up")

    spawn(sim, interrupter())
    sim.run()
    assert outcome == [("interrupted", 3.0, "wake up")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield Delay(1.0)

    p = spawn(sim, quick())
    sim.run()
    p.interrupt()  # no exception
    assert p.done


def test_interrupt_while_waiting_on_signal_raises():
    # The waiter stays registered with the signal, so an interrupt would
    # let the fire resume it a second time, mid-sleep.
    sim = Simulator()
    sig = Signal("s")
    log = []

    def waiter():
        try:
            value = yield sig
            log.append(("fired", sim.now, value))
        except Interrupted:
            log.append(("interrupted", sim.now))
            yield Delay(10.0)
            log.append(("slept", sim.now))

    p = spawn(sim, waiter(), "waiter")

    def interrupter():
        yield Delay(1.0)
        with pytest.raises(SimulationError, match="'waiter'.*Signal\\('s'"):
            p.interrupt()
        yield Delay(2.0)
        sig.fire("go")

    spawn(sim, interrupter())
    sim.run()
    assert log == [("fired", 3.0, "go")]
    assert p.done and not p.failed


def test_interrupt_while_queued_on_resource_raises():
    # The queued request would still be granted after the process ended,
    # leaving the unit in use forever.
    sim = Simulator()
    bus = Resource(sim, "bus")
    log = []

    def holder():
        yield from bus.use(5.0)

    def user(tag, wait):
        yield Delay(wait)
        try:
            grant = yield bus.request()
        except Interrupted:
            log.append((tag, "interrupted"))
            return
        log.append((tag, sim.now))
        grant.release()

    spawn(sim, holder())
    queued = spawn(sim, user("queued", 0.0), "queued")
    spawn(sim, user("late", 2.0))

    def interrupter():
        yield Delay(1.0)
        with pytest.raises(SimulationError,
                           match="'queued'.*bus.request"):
            queued.interrupt()

    spawn(sim, interrupter())
    sim.run()
    assert log == [("queued", 5.0), ("late", 5.0)]
    assert bus.in_use == 0


def test_uncaught_interrupt_terminates_process():
    sim = Simulator()

    def sleeper():
        yield Delay(100.0)

    p = spawn(sim, sleeper())

    def interrupter():
        yield Delay(1.0)
        p.interrupt()

    spawn(sim, interrupter())
    sim.run()
    assert p.done


def test_yield_bad_command_raises():
    sim = Simulator()

    def proc():
        yield 123

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_exception_propagates_and_marks_failed():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        raise ValueError("model bug")

    p = spawn(sim, proc())
    with pytest.raises(ValueError):
        sim.run()
    assert p.failed
    assert isinstance(p.error, ValueError)


def test_all_of_collects_results():
    sim = Simulator()

    def worker(delay, value):
        yield Delay(delay)
        return value

    procs = [spawn(sim, worker(d, d * 10)) for d in (3.0, 1.0, 2.0)]
    combined = all_of(sim, procs)
    sim.run()
    assert combined.result == [30.0, 10.0, 20.0]
    assert sim.now == 3.0


def test_subgenerator_delegation_with_yield_from():
    sim = Simulator()
    seen = []

    def inner():
        yield Delay(2.0)
        return "inner-value"

    def outer():
        value = yield from inner()
        seen.append((sim.now, value))

    spawn(sim, outer())
    sim.run()
    assert seen == [(2.0, "inner-value")]
