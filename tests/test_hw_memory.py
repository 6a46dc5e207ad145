"""Unit tests for physical memory, dual-port memory, test-and-set."""

import random
import tracemalloc

import pytest

from repro.cluster import Fabric
from repro.hw import (
    DS5000_200, DualPortMemory, OutOfMemory, PhysicalMemory,
    TestAndSetRegister,
)
from repro.sim import SimulationError


@pytest.fixture
def mem():
    return PhysicalMemory(size_bytes=8 * 1024 * 1024, page_size=4096,
                          reserved_bytes=1024 * 1024)


def test_read_write_roundtrip(mem):
    mem.write(0x1000, b"osiris")
    assert mem.read(0x1000, 6) == b"osiris"


def test_unwritten_bytes_read_as_zero(mem):
    assert mem.read(0, 64) == bytes(64)
    assert mem.read(mem.size_bytes - 4096, 4096) == bytes(4096)
    mem.write(0x2000, b"\xff" * 8)
    assert mem.read(0x1ff8, 24) == bytes(8) + b"\xff" * 8 + bytes(8)


def test_write_straddling_a_page_roundtrips(mem):
    data = bytes(range(256)) * 40                   # 10240 bytes
    addr = 3 * mem.page_size - 100
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data
    assert mem.read(addr - 1, 1) == b"\x00"
    assert mem.read(addr + len(data), 1) == b"\x00"


def test_write_ending_at_the_last_byte_roundtrips(mem):
    mem.write(mem.size_bytes - 5, b"tail!")
    assert mem.read(mem.size_bytes - 5, 5) == b"tail!"
    assert mem.read(mem.size_bytes, 0) == b""


def test_memories_do_not_share_bytes(mem):
    other = PhysicalMemory(size_bytes=mem.size_bytes, page_size=4096,
                           reserved_bytes=mem.reserved_bytes)
    mem.write(0x5000, b"only here")
    assert other.read(0x5000, 9) == bytes(9)
    other.write(0x5000, b"elsewhere")
    assert mem.read(0x5000, 9) == b"only here"


def test_free_frame_order_is_the_seeded_shuffle(mem):
    # The order feeds physical addresses, and with them the
    # direct-mapped cache model: it must stay exactly this shuffle.
    frames = list(range(mem.reserved_bytes // mem.page_size,
                        mem.size_bytes // mem.page_size))
    random.Random(0x05171994).shuffle(frames)
    got = [mem.alloc_frame() // mem.page_size
           for _ in range(mem.free_frame_count)]
    assert got == frames[::-1]          # alloc_frame pops from the end


def test_allocating_leaves_another_memorys_frame_order_intact(mem):
    frames = (mem.size_bytes - mem.reserved_bytes) // mem.page_size
    assert mem.free_frame_count == frames
    first = [mem.alloc_frame() for _ in range(frames)]
    other = PhysicalMemory(size_bytes=mem.size_bytes, page_size=4096,
                           reserved_bytes=mem.reserved_bytes)
    assert [other.alloc_frame()
            for _ in range(other.free_frame_count)] == first


def test_host_build_pays_only_for_what_it_writes():
    # A 16-host Clos fabric traced 16.5 MB per host while each host's
    # memory was a zero-filled bytearray.
    def build():
        return Fabric(machines=DS5000_200, n_hosts=16, topology="clos",
                      pods=4)

    build()                             # imports and one-time caches
    tracemalloc.start()
    try:
        fabric = build()
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fabric.hosts) == 16
    assert traced / 16 < 1024 * 1024


def test_out_of_range_access_rejected(mem):
    with pytest.raises(SimulationError):
        mem.read(mem.size_bytes - 2, 4)
    with pytest.raises(SimulationError):
        mem.write(-4, b"xxxx")


def test_frame_allocation_is_scrambled(mem):
    # Consecutive allocations must generally NOT be physically adjacent:
    # this is the fragmentation premise of section 2.2.
    addrs = [mem.alloc_frame() for _ in range(32)]
    adjacent = sum(
        1 for a, b in zip(addrs, addrs[1:], strict=False)
        if b == a + mem.page_size)
    assert adjacent < 8
    assert len(set(addrs)) == 32
    for addr in addrs:
        assert addr % mem.page_size == 0
        assert addr >= mem.reserved_bytes


def test_frame_free_and_reuse(mem):
    addr = mem.alloc_frame()
    before = mem.free_frame_count
    mem.free_frame(addr)
    assert mem.free_frame_count == before + 1


def test_free_unallocated_frame_rejected(mem):
    with pytest.raises(SimulationError):
        mem.free_frame(mem.reserved_bytes)


def test_frames_exhaust(mem):
    total = mem.free_frame_count
    for _ in range(total):
        mem.alloc_frame()
    with pytest.raises(OutOfMemory):
        mem.alloc_frame()


def test_contiguous_pool_is_contiguous_and_bounded(mem):
    a = mem.alloc_contiguous(16 * 1024)
    b = mem.alloc_contiguous(16 * 1024)
    assert b == a + 16 * 1024
    with pytest.raises(OutOfMemory):
        mem.alloc_contiguous(2 * 1024 * 1024)


def test_best_effort_contiguous_frames(mem):
    addr = mem.try_alloc_contiguous_frames(4)
    assert addr is not None
    assert addr % mem.page_size == 0
    # The four frames are gone from the free list.
    frames = {addr + i * mem.page_size for i in range(4)}
    more = {mem.alloc_frame() for _ in range(mem.free_frame_count)}
    assert not (frames & more)


def test_dualport_word_roundtrip():
    dp = DualPortMemory(1024)
    dp.write_word(0, 0xDEADBEEF, by_host=True)
    assert dp.read_word(0, by_host=False) == 0xDEADBEEF
    assert dp.host_writes == 1
    assert dp.board_reads == 1


def test_dualport_masks_to_32_bits():
    dp = DualPortMemory(1024)
    dp.write_word(4, 0x1_0000_0001, by_host=False)
    assert dp.read_word(4, by_host=True) == 1
    dp.write_word(8, -1, by_host=False)
    assert dp.read_word(8, by_host=True) == 0xFFFFFFFF


def test_dualport_unwritten_word_reads_zero():
    dp = DualPortMemory(1024)
    dp.write_word(0, 7, by_host=True)
    assert dp.read_word(1020, by_host=False) == 0
    assert dp.read_word(4, by_host=True) == 0
    assert (dp.host_reads, dp.board_reads, dp.host_writes) == (1, 1, 1)


def test_dualport_rejects_unaligned_and_out_of_range():
    dp = DualPortMemory(1024)
    with pytest.raises(SimulationError):
        dp.read_word(3, by_host=True)
    with pytest.raises(SimulationError):
        dp.write_word(6, 0, by_host=False)
    with pytest.raises(SimulationError):
        dp.write_word(1024, 0, by_host=True)
    with pytest.raises(SimulationError):
        dp.read_word(1024, by_host=False)
    with pytest.raises(SimulationError):
        dp.read_word(-4, by_host=True)


def test_test_and_set_semantics():
    tas = TestAndSetRegister()
    assert tas.test_and_set()
    assert not tas.test_and_set()
    assert tas.failed_attempts == 1
    tas.clear()
    assert tas.test_and_set()
    assert tas.acquisitions == 2


def test_clear_free_register_rejected():
    tas = TestAndSetRegister()
    with pytest.raises(SimulationError):
        tas.clear()
