"""ActiveQueueIndex: the O(1) per-VCI queue manager, in isolation.

Semantics first -- round-robin fairness, FIFO arrival order, the
longest-queue/drop-tail push-out protocol, lazy ring deletion -- then
the scaling property the benchmark enforces end-to-end: no operation
may walk the VCI table, so a drain over 10^5 queues costs the same
per cell as a drain over 10^3 (checked by operation counting here,
by wall clock in ``benchmarks/bench_topology.py``).
"""

import tracemalloc

import pytest

from repro.topology import ActiveQueueIndex


def _drain_rr(index):
    out = []
    while True:
        popped = index.pop_rr()
        if popped is None:
            return out
        out.append(popped)


def test_rr_interleaves_vcis():
    index = ActiveQueueIndex()
    for n in range(3):
        for vci in (7, 9):
            index.enqueue(vci, f"c{vci}.{n}")
    assert [v for v, _ in _drain_rr(index)] == [7, 9, 7, 9, 7, 9]
    assert index.depth == 0


def test_rr_preserves_per_vci_order():
    index = ActiveQueueIndex()
    for n in range(4):
        index.enqueue(5, n)
    assert [cell for _, cell in _drain_rr(index)] == [0, 1, 2, 3]


def test_fifo_preserves_global_arrival_order():
    index = ActiveQueueIndex()
    arrivals = [(7, "a"), (9, "b"), (7, "c"), (8, "d"), (9, "e")]
    for vci, cell in arrivals:
        index.enqueue(vci, cell, fifo=True)
    drained = []
    while True:
        popped = index.pop_fifo()
        if popped is None:
            break
        drained.append(popped)
    assert drained == arrivals
    assert index.depth == 0


def test_enqueue_returns_backlog_and_tracks_depth():
    index = ActiveQueueIndex()
    assert index.enqueue(3, "x") == 1
    assert index.enqueue(3, "y") == 2
    assert index.enqueue(4, "z") == 1
    assert index.depth == 3
    assert index.queue_len(3) == 2
    assert index.queue_len(99) == 0


def test_longest_tracks_maximum_and_ties_break_earliest():
    index = ActiveQueueIndex()
    assert index.longest() is None
    index.enqueue(1, "a")
    index.enqueue(2, "b")
    index.enqueue(2, "c")
    assert index.longest() == (2, 2)
    # VCI 1 catches up: 2 reached length 2 first, so 2 stays victim.
    index.enqueue(1, "d")
    assert index.longest() == (2, 2)
    # VCI 1 pulls ahead.
    index.enqueue(1, "e")
    assert index.longest() == (1, 3)


def test_drop_tail_removes_newest_and_reindexes():
    index = ActiveQueueIndex()
    for n in range(3):
        index.enqueue(6, n)
    index.enqueue(8, "x")
    assert index.drop_tail(6) == 2
    assert index.longest() == (6, 2)
    assert index.depth == 3
    # Draining still yields 6's remaining cells in order.
    drained = _drain_rr(index)
    assert [cell for v, cell in drained if v == 6] == [0, 1]


def test_pushout_to_empty_leaves_ring_consistent():
    """A queue emptied by push-out leaves a stale ring entry; the
    next rotation must discard it without yielding a phantom cell,
    and a re-enqueue of that VCI must not duplicate its ring slot."""
    index = ActiveQueueIndex()
    index.enqueue(5, "only")
    index.enqueue(7, "other")
    assert index.drop_tail(5) == "only"
    assert index.queue_len(5) == 0
    index.enqueue(5, "again")
    assert _drain_rr(index) == [(7, "other"), (5, "again")]


def test_maxlen_steps_down_through_gaps():
    index = ActiveQueueIndex()
    for n in range(5):
        index.enqueue(1, n)
    index.enqueue(2, "a")
    for _ in range(4):
        index.drop_tail(1)
    assert index.longest() == (1, 1) or index.longest() == (2, 1)
    assert index.longest()[1] == 1


def test_operations_never_scale_with_vci_count():
    """Every drain/push-out step touches O(1) bookkeeping: after
    loading V queues, one pop_rr plus one longest+drop_tail must not
    enumerate the table.  Guarded structurally: the occupancy index
    holds one bucket (all queues same length), and popping shrinks
    only that bucket by one entry."""
    index = ActiveQueueIndex()
    v_count = 50_000
    for vci in range(v_count):
        index.enqueue(vci, vci)
    assert len(index._buckets) == 1
    assert index.longest() == (0, 1)
    vci, cell = index.pop_rr()
    assert (vci, cell) == (0, 0)
    assert len(index._buckets[1]) == v_count - 1
    victim, length = index.longest()
    assert length == 1
    index.drop_tail(victim)
    assert index.depth == v_count - 2


@pytest.mark.parametrize("fifo", [False, True], ids=("rr", "fifo"))
def test_drained_queues_give_their_memory_back(fifo):
    """A port that once carried 10^4 VCIs and has drained holds no
    per-VCI deque: an empty deque is ~0.6 KB, so keeping them all
    would cost ~8 MB here (the dicts' spare slots stay, ~0.3 MB
    each)."""
    tracemalloc.start()
    try:
        index = ActiveQueueIndex()
        for vci in range(10_000):
            index.enqueue(vci, None, fifo=fifo)
        pop = index.pop_fifo if fifo else index.pop_rr
        while pop() is not None:
            pass
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.depth == 0 and index.longest() is None
    assert held < 2 * 2**20, f"{held / 2**20:.2f} MB held after draining"


def test_stale_ring_entries_never_pass_for_a_requeued_vci():
    """A VCI's generation is dropped only with its newest ring entry:
    push-out leaves two stale entries for 5, and the one popped first
    must not let 5's generations start over while the other waits."""
    index = ActiveQueueIndex()
    index.enqueue(5, "a")
    index.enqueue(7, "b")
    index.drop_tail(5)              # (5, gen 1) goes stale
    index.enqueue(5, "x")
    index.drop_tail(5)              # (5, gen 2) goes stale too
    assert index.pop_rr() == (7, "b")   # discards (5, gen 1) first
    index.enqueue(5, "c")
    index.enqueue(9, "d")
    index.drop_tail(5)
    index.enqueue(5, "e")
    assert _drain_rr(index) == [(9, "d"), (5, "e")]
    # Drained by pop_rr, 5 holds nothing and rejoins at the back.
    index.enqueue(5, "f")
    index.enqueue(7, "g")
    index.enqueue(5, "h")
    assert _drain_rr(index) == [(5, "f"), (7, "g"), (5, "h")]
    assert index.queue_len(5) == 0 and index.depth == 0
