"""Unit tests for the conservative window engine, on toy programs.

The ring relay below is the smallest model with the fabric's shape:
every cross-shard message is stamped one lookahead after the emitting
event.  It runs identically under both backends.
"""

import pickle

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.parallel import BACKENDS, run_shards

W = 2.0


class RingRelay:
    """A token hops shard -> shard+1 every W; each hop is logged."""

    def __init__(self, index: int, n_shards: int, hops: int):
        self.sim = Simulator()
        self.index = index
        self.n_shards = n_shards
        self.hops = hops
        self.log = []
        self._outbox = []
        if index == 0:
            self.sim.call_at(1.0, lambda: self._hop(0))

    def _hop(self, k: int) -> None:
        self.log.append((self.sim.now, k))
        if k + 1 >= self.hops:
            return
        dest = (self.index + 1) % self.n_shards
        when = self.sim.now + W
        if dest == self.index:
            self.sim.call_at(when, lambda: self._hop(k + 1),
                             key=("hop", k + 1))
        else:
            self._outbox.append((dest, when, ("hop", k + 1),
                                 ("hop", k + 1)))

    def deliver(self, batch):
        for when, key, msg in batch:
            _tag, k = msg
            self.sim.call_at(when, lambda k=k: self._hop(k), key=key)

    def drain_outbox(self):
        out, self._outbox = self._outbox, []
        return out

    def collect(self, t_end):
        return {"index": self.index, "log": self.log,
                "now": self.sim.now}


def _ring(index, n_shards=3, hops=12):
    return RingRelay(index, n_shards, hops)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ring_relay_all_backends(backend):
    run = run_shards(lambda i: _ring(i), 3, W, backend=backend)
    merged = sorted((entry for p in run.partials for entry in p["log"]))
    assert merged == [(1.0 + W * k, k) for k in range(12)]
    assert run.t_end == 1.0 + W * 11
    assert run.events_processed == 12
    # advance_to(t_end) ran everywhere: idle shards read the global
    # end time, which is what makes merged snapshots consistent.
    assert all(p["now"] == run.t_end for p in run.partials)


def test_single_shard_runs_to_completion():
    run = run_shards(lambda i: RingRelay(i, 1, 8), 1, W,
                     backend="inline")
    assert run.partials[0]["log"] == [(1.0 + W * k, k)
                                      for k in range(8)]


def test_idle_peers_do_not_throttle_a_lone_busy_shard():
    # Shard 1 never has an event.  With per-shard horizons the busy
    # shard's bound is its own frontier plus TWO lookaheads (the
    # shortest possible echo path), so it needs about half as many
    # windows as events -- and far fewer than a global-window engine.
    hops = 40
    run = run_shards(lambda i: RingRelay(i, 1, hops) if i == 0
                     else RingRelay(1, 2, 0), 2, W, backend="inline")
    assert len(run.partials[0]["log"]) == hops
    assert run.windows <= hops // 2 + 2


def test_worker_exception_surfaces_with_shard_index():
    class Boom(RingRelay):
        def _hop(self, k):
            raise RuntimeError("kaboom at hop")

    with pytest.raises(SimulationError, match=r"(?s)shard 0.*kaboom"):
        run_shards(lambda i: Boom(i, 2, 4), 2, W, backend="proc")


def test_proc_worker_failure_reads_as_one_line():
    """A proc shard's error is one line that carries the inline
    backend's text; the worker's traceback rides on an attribute."""
    from repro.cluster import WorkloadSpec, run_cluster_sharded
    from repro.hw import DS5000_200

    kwargs = {"machines": DS5000_200, "n_hosts": 2, "topology": "direct"}
    with pytest.raises(SimulationError) as inline:
        run_cluster_sharded(kwargs, WorkloadSpec(), 2, backend="inline")
    with pytest.raises(SimulationError) as proc:
        run_cluster_sharded(kwargs, WorkloadSpec(), 2, backend="proc")
    text = str(inline.value)
    assert "switched topology" in text
    assert str(proc.value) == f"shard 0 failed: SimulationError: {text}"
    assert "\n" not in str(proc.value)
    assert proc.value.worker_traceback.startswith("Traceback")
    assert text in proc.value.worker_traceback


def test_engine_rejects_bad_parameters():
    with pytest.raises(SimulationError):
        run_shards(lambda i: _ring(i), 2, 0.0)
    with pytest.raises(SimulationError):
        run_shards(lambda i: _ring(i), 0, W)
    with pytest.raises(SimulationError):
        run_shards(lambda i: _ring(i), 2, W, backend="nope")


# ----------------------------------------------------------- coalescing


class SelfLooper:
    """Dense local events, provably no cross-shard emission: the
    workload shape window coalescing exists for."""

    def __init__(self, index: int, events: int = 20):
        self.sim = Simulator()
        self.index = index
        self.log = []
        self._remaining = events
        self.sim.call_at(1.0, self._tick)

    def may_emit(self) -> bool:
        return False

    def _tick(self) -> None:
        self.log.append(self.sim.now)
        self._remaining -= 1
        if self._remaining:
            self.sim.call_after(0.5, self._tick)

    def deliver(self, batch):
        raise AssertionError("nothing should reach a SelfLooper")

    def drain_outbox(self):
        return []

    def probe(self):
        return {"index": self.index, "done": len(self.log)}

    def collect(self, t_end):
        return {"index": self.index, "log": self.log}


def test_non_capable_shards_coalesce_to_one_window():
    run = run_shards(lambda i: SelfLooper(i), 2, W, backend="inline")
    # Ten lookaheads of local work, which a fixed schedule would pay a
    # barrier per W for, drain in a single window.
    assert run.windows == 1
    assert run.boundary_msgs == 0
    assert [p["log"] for p in run.partials] \
        == [[1.0 + 0.5 * k for k in range(20)]] * 2


def test_window_probe_fires_per_coalesced_window():
    probes = []
    run = run_shards(lambda i: SelfLooper(i), 2, W, backend="inline",
                     window_probe=lambda w, counters:
                     probes.append((w, counters)))
    assert len(probes) == run.windows == 1
    # The final probe is a true quiescence snapshot.
    assert all(c["done"] == 20 for c in probes[-1][1])


class Sender:
    """Emits ``n_msgs`` messages to shard 1, one per lookahead."""

    def __init__(self, n_msgs: int):
        self.sim = Simulator()
        self._outbox = []
        for k in range(n_msgs):
            self.sim.call_at(1.0 + W * k, lambda k=k: self._emit(k))

    def _emit(self, k: int) -> None:
        self._outbox.append((1, self.sim.now + W, ("m", k), ("m", k)))

    def deliver(self, batch):
        raise AssertionError("nothing sends to the Sender")

    def drain_outbox(self):
        out, self._outbox = self._outbox, []
        return out

    def collect(self, t_end):
        return {"sent": True}


class Sink:
    """Deliver-only and provably non-emitting: with coalescing its
    deliveries must be deferred and batched, not trickled."""

    def __init__(self):
        self.sim = Simulator()
        self.received = []
        self.flush_times = []       # sim time of each deliver() call

    def may_emit(self) -> bool:
        return False

    def deliver(self, batch):
        self.flush_times.append(self.sim.now)
        for when, key, msg in batch:
            self.sim.call_at(
                when,
                lambda m=msg: self.received.append((self.sim.now, m)),
                key=key)

    def drain_outbox(self):
        return []

    def collect(self, t_end):
        return {"received": self.received,
                "flush_times": self.flush_times}


def test_deliver_only_sink_batches_into_one_window():
    n_msgs = 6
    run = run_shards(lambda i: Sender(n_msgs) if i == 0 else Sink(), 2,
                     W, backend="inline")
    want = [(1.0 + W * (k + 1), ("m", k)) for k in range(n_msgs)]
    assert run.partials[1]["received"] == want
    assert run.boundary_msgs == n_msgs
    # Deferred deliver-only commands coalesce into a single flush
    # (every batch lands before the sink runs at all) instead of
    # waking the sink once per message.
    assert set(run.partials[1]["flush_times"]) == {0.0}


# ------------------------------------------------------------ transport


@pytest.mark.parametrize("backend", BACKENDS)
def test_transport_ships_pickled_batches(backend):
    run = run_shards(lambda i: _ring(i), 3, W, backend=backend)
    merged = sorted((entry for p in run.partials for entry in p["log"]))
    assert merged == [(1.0 + W * k, k) for k in range(12)]
    # 11 of the 12 hops cross a shard boundary, each alone in its
    # window's batch; the engine counts exactly the bytes it shipped.
    assert run.boundary_msgs == 11
    assert run.boundary_bytes == sum(
        len(pickle.dumps([(1.0 + W * k, ("hop", k), ("hop", k))],
                         pickle.HIGHEST_PROTOCOL))
        for k in range(1, 12))
