"""Pin the process kernel's resume order.

A seeded mixed model drives every kind of wait the kernel offers --
same-time delays and cooperative yields, capacity-1 and capacity-2
resources with priority ties, a bounded store with waiting getters and
blocked putters, signal and latch waits, and joins -- and records every
``(sim.now, tag)`` step.  The digest of that list is a constant: a change
to the kernel that reorders a single resume changes it.
"""

import hashlib
import random

import pytest

from repro.sim import (
    Delay, Interrupted, Latch, Resource, Signal, Simulator, Store, spawn,
)

# sha256 of repr(log) for the model below; recompute only for a change
# that is meant to reorder the kernel's resumes.
RESUME_ORDER_SHA256 = (
    "45e7f716bbb182c5e9d0b0f723faf2753c189db97f78f7b999a801d61f7c53c2")


def _mixed_model(seed: int) -> list:
    sim = Simulator()
    rng = random.Random(seed)
    bus = Resource(sim, "bus", capacity=1)
    pool = Resource(sim, "pool", capacity=2)
    box = Store(sim, "box", capacity=2)
    tick = Signal("tick")
    gate = Latch("gate")
    log = []

    def note(tag):
        log.append((sim.now, tag))

    def hold(name, resource, priority, duration):
        grant = yield resource.request(priority)
        note(f"{name}:{resource.name}-grant")
        yield Delay(duration)
        grant.release()
        note(f"{name}:{resource.name}-release")

    def worker(name, steps):
        for step in range(steps):
            action = rng.choice(("sleep", "coop", "bus", "pool", "tick",
                                 "gate", "put"))
            note(f"{name}:{step}:{action}")
            if action == "sleep":
                yield Delay(rng.choice((0.0, 0.5, 1.0, 2.0)))
            elif action == "coop":
                yield None
            elif action == "bus":
                yield from hold(name, bus, rng.choice((0.0, 1.0)),
                                rng.choice((0.0, 1.0, 2.0)))
            elif action == "pool":
                yield from pool.use(rng.choice((0.5, 1.0, 3.0)),
                                    rng.choice((0.0, 1.0)))
                note(f"{name}:pool-done")
            elif action == "tick":
                value = yield tick
                note(f"{name}:tick={value}")
            elif action == "gate":
                value = yield gate
                note(f"{name}:gate={value}")
            else:
                yield box.put((name, step))
                note(f"{name}:put-done")
        return name

    def producer(name, count):
        for i in range(count):
            yield box.put((name, i))
            note(f"{name}:put={i}")
            if rng.random() < 0.3:
                yield Delay(rng.choice((0.0, 4.0)))

    def consumer(name):
        while True:
            item = yield box.get()
            note(f"{name}:got={item}")
            if rng.random() < 0.6:
                yield Delay(rng.choice((0.0, 1.0, 2.5)))

    def ticker(workers):
        count = 0
        while not all(w.done for w in workers):
            yield Delay(1.5)
            count += 1
            woke = tick.fire(count)
            note(f"ticker:fire={count}/{woke}")
            if count == 4:
                gate.fire("open")
                note("ticker:gate-open")

    def joiner(name, target, wait):
        if wait:
            yield Delay(wait)
        value = yield target
        note(f"{name}:joined={value}")

    workers = [spawn(sim, worker(f"w{i}", 20), f"w{i}") for i in range(6)]
    workers.append(spawn(sim, producer("p", 24), "p"))
    spawn(sim, consumer("c0"), "c0")
    spawn(sim, consumer("c1"), "c1")
    spawn(sim, ticker(workers), "ticker")
    spawn(sim, joiner("j-running", workers[0], 0.0), "j-running")
    spawn(sim, joiner("j-finished", workers[1], 500.0), "j-finished")
    sim.run()
    note("end")
    assert all(w.done and not w.failed for w in workers)
    return log


def test_mixed_model_resume_order_is_pinned():
    log = _mixed_model(seed=16)
    assert len(log) == 296
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == RESUME_ORDER_SHA256


def _run(sim):
    sim.run()


def _run_windows(sim):
    for horizon in (60.0, 130.0):
        sim.run_window(horizon)
    sim.run_window(float("inf"))


@pytest.mark.parametrize("drive", [_run, _run_windows],
                         ids=["run", "run_window"])
def test_compaction_mid_run_fires_every_live_event_once(drive):
    sim = Simulator()
    fired = []
    timers = [sim.call_at(10.0 + i, lambda i=i: fired.append(i))
              for i in range(200)]
    heap_sizes = []

    def purge():
        # Cancel three timers in four: the heap compacts under the
        # running drain loop, which must keep its view of the queue.
        before = len(sim._heap)
        for i, timer in enumerate(timers):
            if i % 4:
                timer.cancel()
        heap_sizes.append((before, len(sim._heap)))
        sim.call_at(30.5, lambda: fired.append("late"))

    sim.call_at(5.0, purge)
    drive(sim)
    before, after = heap_sizes[0]
    assert after < before                       # it really compacted
    expected = [i for i in range(200) if i % 4 == 0]
    expected.insert(expected.index(20) + 1, "late")
    assert fired == expected
    assert sim.pending == 0


# -- the trampoline's fast paths keep the waiter path's order -----------------

def _blocked_putter(sim, store, item, log, tag):
    """A process that fills ``store`` with ``item`` once there is room
    and notes when its put completed."""
    def putter():
        yield store.put(item)
        log.append((sim.now, tag, len(store)))
    return spawn(sim, putter(), tag)


def test_get_from_full_store_admits_putter_after_getter_blocks():
    sim = Simulator()
    box = Store(sim, "box", capacity=1)
    box.try_put("a")
    log = []
    _blocked_putter(sim, box, "b", log, "putter")

    def getter():
        yield Delay(1.0)
        item = yield box.get()
        log.append((sim.now, f"got {item}", len(box)))  # putter still out
        yield Delay(0.0)
        log.append((sim.now, "getter woke", len(box)))

    spawn(sim, getter(), "getter")
    sim.run()
    assert log == [(1.0, "got a", 0), (1.0, "putter", 1),
                   (1.0, "getter woke", 1)]


def test_putters_admitted_latest_get_first():
    sim = Simulator()
    first = Store(sim, "first", capacity=1)
    second = Store(sim, "second", capacity=1)
    first.try_put("f")
    second.try_put("s")
    log = []
    _blocked_putter(sim, first, "f2", log, "first-putter")
    _blocked_putter(sim, second, "s2", log, "second-putter")

    def getter():
        yield Delay(1.0)
        got = [(yield first.get()), (yield second.get())]
        log.append((sim.now, f"got {got}", len(first) + len(second)))
        yield Delay(0.0)                   # blocks: ends this step

    spawn(sim, getter(), "getter")
    sim.run()
    assert log == [(1.0, "got ['f', 's']", 0), (1.0, "second-putter", 1),
                   (1.0, "first-putter", 1)]


def test_putter_not_admitted_when_getter_raises():
    sim = Simulator()
    box = Store(sim, "box", capacity=1)
    box.try_put("a")
    log = []
    _blocked_putter(sim, box, "b", log, "putter")

    def getter():
        yield Delay(1.0)
        yield box.get()
        raise ValueError("model bug")

    proc = spawn(sim, getter(), "getter")
    with pytest.raises(ValueError):
        sim.run()
    assert proc.failed
    assert log == [] and len(box) == 0


def test_same_get_command_yielded_again():
    sim = Simulator()
    box = Store(sim, "box", capacity=2)
    got = []

    def consumer():
        get = box.get()
        for _ in range(4):
            item = yield get
            got.append((sim.now, item))

    def producer():
        for i in range(4):
            yield box.put(i)
            yield Delay(1.0 if i % 2 else 0.0)

    spawn(sim, consumer(), "consumer")
    spawn(sim, producer(), "producer")
    sim.run()
    assert got == [(0.0, 0), (0.0, 1), (1.0, 2), (1.0, 3)]


def test_use_releases_unit_when_interrupted_during_hold():
    sim = Simulator()
    bus = Resource(sim, "bus")
    log = []

    def holder():
        try:
            yield from bus.use(10.0)
        except Interrupted:
            log.append((sim.now, "interrupted", bus.in_use))

    def waiter():
        yield Delay(1.0)
        yield from bus.use(2.0)             # queued behind the holder
        log.append((sim.now, "waiter done", bus.in_use))

    proc = spawn(sim, holder(), "holder")
    spawn(sim, waiter(), "waiter")
    sim.call_at(4.0, lambda: proc.interrupt("stop"))
    sim.run()
    # The release hands the unit to the waiter before the holder's
    # handler runs.
    assert log == [(4.0, "interrupted", 1), (6.0, "waiter done", 0)]
    assert bus.grants == 2
    assert bus.busy_time == pytest.approx(6.0)
    assert bus.in_use == 0 and bus.queue_length == 0


def test_delay_subclass_still_sleeps():
    class Nap(Delay):
        __slots__ = ()

    sim = Simulator()
    woke = []

    def sleeper():
        yield Nap(2.5)
        woke.append(sim.now)

    spawn(sim, sleeper(), "sleeper")
    sim.run()
    assert woke == [2.5]
