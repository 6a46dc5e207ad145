"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_after_orders_by_time():
    sim = Simulator()
    fired = []
    sim.call_after(5.0, lambda: fired.append("b"))
    sim.call_after(1.0, lambda: fired.append("a"))
    sim.call_after(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.call_after(3.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list(range(10))


def test_call_at_in_past_raises():
    sim = Simulator()
    sim.call_after(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1.0, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    timer = sim.call_after(1.0, lambda: fired.append("x"))
    timer.cancel()
    sim.run()
    assert fired == []
    assert timer.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.call_after(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run_until(42.0)
    assert sim.now == 42.0


def test_run_until_only_runs_due_events():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, lambda: fired.append("early"))
    sim.call_after(100.0, lambda: fired.append("late"))
    sim.run_until(50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_after(2.0, lambda: fired.append("chained"))

    sim.call_after(1.0, first)
    sim.run()
    assert fired == ["first", "chained"]
    assert sim.now == 3.0


def test_peek_skips_cancelled_entries():
    sim = Simulator()
    t1 = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    t1.cancel()
    assert sim.peek() == 2.0


def test_run_while_stops_on_predicate():
    sim = Simulator()
    count = []

    def tick():
        count.append(1)
        sim.call_after(1.0, tick)

    sim.call_after(1.0, tick)
    sim.run_while(lambda: len(count) < 5)
    assert len(count) == 5


def test_run_while_livelock_guard():
    sim = Simulator()

    def tick():
        sim.call_now(tick)

    sim.call_now(tick)
    with pytest.raises(SimulationError):
        sim.run_while(lambda: True, max_events=100)


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.call_after(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_pending_counts_only_live_timers():
    sim = Simulator()
    timers = [sim.call_after(float(i + 1), lambda: None)
              for i in range(10)]
    for timer in timers[:4]:
        timer.cancel()
    assert sim.pending == 6


def test_cancel_heavy_heap_compacts():
    # White-box: mass-cancelling must shrink the heap itself, not
    # just mark entries dead, or cancel-heavy models go quadratic.
    sim = Simulator()
    timers = [sim.call_after(float(i + 1), lambda: None)
              for i in range(1000)]
    for timer in timers[:-1]:
        timer.cancel()
    assert sim.pending == 1
    assert len(sim._heap) < 100
    sim.run()
    assert sim.now == 1000.0


def test_run_window_is_strict_and_does_not_clamp():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.call_at(t, lambda t=t: fired.append(t))
    ran = sim.run_window(2.5)
    assert ran == 2
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0          # not clamped to the horizon
    assert sim.peek() == 3.0
    assert sim.run_window(3.0) == 0   # event AT the horizon stays put
    assert sim.run_window(3.5) == 1


def test_advance_to_moves_idle_clock_and_guards_live_events():
    sim = Simulator()
    sim.call_after(5.0, lambda: None)
    sim.run()
    sim.advance_to(20.0)
    assert sim.now == 20.0
    sim.advance_to(20.0)           # idempotent at the same time
    sim.call_after(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.advance_to(30.0)       # would skip a live event


def test_keys_order_same_time_events_content_based():
    from repro.sim import NO_KEY
    sim = Simulator()
    fired = []
    sim.call_at(5.0, lambda: fired.append("b"), key=("b", 0))
    sim.call_at(5.0, lambda: fired.append("a"), key=("a", 7))
    sim.call_at(5.0, lambda: fired.append("plain"), key=NO_KEY)
    sim.run()
    # Keyless events sort before any keyed event at the same time;
    # keyed events sort by key, independent of insertion order.
    assert fired == ["plain", "a", "b"]


def test_same_key_same_time_falls_back_to_schedule_order():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: fired.append(1), key=("k", 0))
    sim.call_at(1.0, lambda: fired.append(2), key=("k", 0))
    sim.run()
    assert fired == [1, 2]


def test_run_with_zero_budget_runs_nothing():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, lambda: fired.append("x"))
    assert sim.run(max_events=0) == 0
    assert fired == []
    assert sim.now == 0.0
    assert sim.pending == 1
    assert sim.run(max_events=1) == 1
    assert fired == ["x"]


def test_run_with_negative_budget_raises():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=-5)
    assert sim.pending == 1
    assert sim.run() == 1           # the refused call left it usable
