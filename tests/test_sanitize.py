"""Runtime-sanitizer tests: SRSW ownership, monotone time, horizon
discipline, per-window conservation, and -- the load-bearing one --
byte-identity of sanitized runs."""

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    SanitizerError, SimSanitizer, check_window_conservation,
)
from repro.cluster import Fabric, WorkloadSpec, collect, run_workload
from repro.cluster.sharded import run_cluster_sharded
from repro.faults import FaultPlan
from repro.hw import DualPortMemory
from repro.osiris import Descriptor, DescriptorQueue
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _always_disable():
    yield
    sanitize.disable()


def _queue(name="txq"):
    return DescriptorQueue(DualPortMemory(8192), 0, 8,
                           host_is_writer=True, name=name)


def _desc(i):
    return Descriptor(addr=0x1000 * (i + 1), length=64, vci=1)


# -- SRSW ownership ----------------------------------------------------------

def test_two_writer_queue_raises_naming_queue_and_both_actors():
    with sanitize.enabled():
        queue = _queue(name="shared-tx")
        with sanitize.actor("driver-a"):
            queue.push(_desc(0))
        with sanitize.actor("driver-b"):
            with pytest.raises(SanitizerError) as err:
                queue.push(_desc(1))
    message = str(err.value)
    assert "shared-tx" in message
    assert "driver-a" in message and "driver-b" in message
    assert "head" in message


def test_disciplined_queue_is_silent():
    with sanitize.enabled():
        queue = _queue()
        for i in range(12):         # wraps the ring twice
            assert queue.push(_desc(i))
            assert queue.pop() is not None


def test_two_reader_tail_also_raises():
    with sanitize.enabled():
        queue = _queue()
        queue.push(_desc(0))
        queue.push(_desc(1))
        with sanitize.actor("rx-a"):
            queue.pop()
        with sanitize.actor("rx-b"):
            with pytest.raises(SanitizerError, match="tail"):
                queue.pop()


def test_hook_is_off_by_default():
    queue = _queue()
    with sanitize.actor("a"):
        queue.push(_desc(0))
    with sanitize.actor("b"):
        queue.push(_desc(1))        # no sanitizer, no error


# -- simulator-core discipline -----------------------------------------------

def test_monotone_time_watchdog():
    watchdog = SimSanitizer()
    watchdog.on_event(5.0)
    watchdog.on_event(5.0)
    with pytest.raises(SanitizerError, match="backwards"):
        watchdog.on_event(4.0)


def test_horizon_watchdog():
    watchdog = SimSanitizer()
    watchdog.window_begin(10.0)
    watchdog.on_event(9.9)
    with pytest.raises(SanitizerError, match="horizon"):
        watchdog.on_event(10.0)
    watchdog.window_end()
    watchdog.on_event(10.0)         # fine outside a window
    watchdog.window_begin(20.0)
    with pytest.raises(SanitizerError, match="nested"):
        watchdog.window_begin(30.0)


def test_simulator_carries_sanitizer_only_when_enabled():
    assert Simulator().sanitizer is None
    with sanitize.enabled():
        sim = Simulator()
        assert isinstance(sim.sanitizer, SimSanitizer)
        sim.call_at(1.0, lambda: None)
        assert sim.run_window(5.0) == 1
        assert sim.sanitizer._last_time == 1.0
    assert Simulator().sanitizer is None


# -- window-boundary conservation --------------------------------------------

def _probe(**overrides):
    base = {"uplink_cells_sent": 10, "uplink_arrived": 8,
            "delivered": 6, "corrupted": 1, "uplink_fault_lost": 1,
            "isw_in_flight": 0, "cross_injected": 0,
            "switch_queued": 1, "dropped": 0, "switch_fault_lost": 0}
    base.update(overrides)
    return base


def test_window_conservation_balanced():
    # injected 10 = delivered 6 + corrupted 1 + queued (10-8-1+0+1=2)
    # + dropped 0 + lost 1.
    check_window_conservation(3, [_probe()])


def test_window_conservation_violation_names_window():
    with pytest.raises(SanitizerError, match="window 7"):
        check_window_conservation(7, [_probe(delivered=5)])


def test_window_conservation_sums_across_shards():
    # An inter-switch cell that crossed shards: the source counted
    # +1 in flight at emission, the destination counted -1 when it
    # absorbed the cell into its switch queue.  Only the sum over
    # shards is meaningful -- and it balances.
    src = _probe(isw_in_flight=1, delivered=5)
    dst = _probe(uplink_cells_sent=0, uplink_arrived=0,
                 uplink_fault_lost=0, delivered=0, corrupted=0,
                 switch_queued=1, isw_in_flight=-1,
                 cross_injected=0)
    check_window_conservation(1, [src, dst])


# -- byte-identity of sanitized runs -----------------------------------------

def _kwargs(**extra):
    from repro.hw.specs import DS5000_200
    return {"machines": DS5000_200, "n_hosts": 4, "n_switches": 1,
            "backpressure": "credit", "credit_window_cells": 64,
            "drain_policy": "rr", **extra}


def _spec():
    return WorkloadSpec(pattern="all2all", kind="open", seed=1,
                        message_bytes=2048, messages_per_client=2)


@pytest.mark.parametrize("faulted", (False, True))
def test_sanitized_sharded_run_is_byte_identical(faulted):
    kwargs = _kwargs()
    if faulted:
        kwargs["faults"] = FaultPlan.parse("loss=0.01,corrupt=0.002",
                                           seed=1)
        kwargs["credit_regen_timeout_us"] = 500.0
    plain, _run = run_cluster_sharded(kwargs, _spec(), 2,
                                      backend="inline")
    sanitized, _run = run_cluster_sharded(kwargs, _spec(), 2,
                                          backend="inline",
                                          sanitize=True)
    assert sanitized.to_json() == plain.to_json()


def test_sanitized_plain_fabric_run_is_byte_identical():
    fabric = Fabric(**_kwargs())
    baseline = collect(fabric, run_workload(fabric, _spec())).to_json()
    with sanitize.enabled():
        fabric = Fabric(**_kwargs())
        report = collect(fabric,
                         run_workload(fabric, _spec())).to_json()
    assert report == baseline
