"""Cache coherence and DMA controller tests."""

import pytest

from repro.hw import (
    DataCache, DmaController, DmaMode, DEC3000_600, DS5000_200,
    PhysicalMemory, TurboChannel,
)
from repro.sim import SimulationError, Simulator, spawn


def _mem():
    return PhysicalMemory(size_bytes=4 * 1024 * 1024, page_size=4096,
                          reserved_bytes=1024 * 1024)


def test_cache_miss_fills_from_memory():
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    mem.write(0x2000, b"abcd")
    assert cache.read(0x2000, 4) == b"abcd"
    assert cache.misses >= 1
    assert cache.is_cached(0x2000)


def test_cache_hit_after_fill():
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    cache.read(0x2000, 4)
    before = cache.hits
    cache.read(0x2000, 4)
    assert cache.hits == before + 1


def test_noncoherent_dma_leaves_stale_lines():
    """The section 2.3 hazard: cached data survives a DMA overwrite."""
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    mem.write(0x3000, b"old!")
    assert cache.read(0x3000, 4) == b"old!"
    cache.dma_write(0x3000, b"new!")
    # Memory has the new bytes, the CPU still sees the old ones.
    assert mem.read(0x3000, 4) == b"new!"
    assert cache.read(0x3000, 4) == b"old!"
    assert cache.stale_reads >= 1


def test_invalidate_clears_stale_lines():
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    mem.write(0x3000, b"old!")
    cache.read(0x3000, 4)
    cache.dma_write(0x3000, b"new!")
    words = cache.invalidate(0x3000, 4)
    assert words == 1
    assert cache.read(0x3000, 4) == b"new!"


def test_coherent_dma_updates_cache():
    """The Alpha behaviour: DMA writes update the cache (section 2.3)."""
    mem = _mem()
    cache = DataCache(DEC3000_600.cache, mem)
    mem.write(0x3000, b"old!")
    cache.read(0x3000, 4)
    cache.dma_write(0x3000, b"new!")
    assert cache.read(0x3000, 4) == b"new!"
    assert cache.stale_reads == 0


def test_direct_mapped_eviction():
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    size = DS5000_200.cache.size_bytes
    mem.write(0x100, b"aaaa")
    mem.write(0x100 + size, b"bbbb")
    cache.read(0x100, 4)
    cache.read(0x100 + size, 4)  # same index, different tag -> evict
    assert not cache.is_cached(0x100)
    assert cache.is_cached(0x100 + size)


def test_eviction_clears_staleness_naturally():
    """Paper's lazy-invalidation argument: heavy traffic evicts lines."""
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    mem.write(0x3000, b"old!")
    cache.read(0x3000, 4)
    cache.dma_write(0x3000, b"new!")
    # CPU touches one full cache worth of other data.
    base = 0x100000
    step = DS5000_200.cache.line_bytes
    for offset in range(0, DS5000_200.cache.size_bytes, step):
        cache.read(base + offset, 1)
    assert cache.read(0x3000, 4) == b"new!"


def test_cpu_write_is_write_through():
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    cache.write(0x4000, b"wxyz")
    assert mem.read(0x4000, 4) == b"wxyz"
    assert cache.read(0x4000, 4) == b"wxyz"


def test_invalidate_word_count_for_16kb():
    mem = _mem()
    cache = DataCache(DS5000_200.cache, mem)
    assert cache.invalidate(0, 16 * 1024) == 4096


def _dma_rig(mode, cache_spec=None, coherent_machine=False):
    sim = Simulator()
    mem = _mem()
    machine = DEC3000_600 if coherent_machine else DS5000_200
    cache = DataCache(cache_spec or machine.cache, mem)
    tc = TurboChannel(sim, machine.bus)
    dma = DmaController(sim, tc, mem, cache, mode=mode, page_size=4096)
    return sim, mem, cache, dma


def test_single_cell_mode_rejects_larger_bursts():
    sim, mem, cache, dma = _dma_rig(DmaMode.SINGLE_CELL)

    def proc():
        yield from dma.write_host(0x2000, b"x" * 45)

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_double_cell_mode_allows_88_bytes():
    sim, mem, cache, dma = _dma_rig(DmaMode.DOUBLE_CELL)

    def proc():
        yield from dma.write_host(0x2000, b"y" * 88)

    spawn(sim, proc())
    sim.run()
    assert mem.read(0x2000, 88) == b"y" * 88
    assert sim.now == pytest.approx((8 + 22) * 0.04)


def test_page_boundary_stop_limits_burst():
    sim, mem, cache, dma = _dma_rig(DmaMode.DOUBLE_CELL)
    # 20 bytes before a page boundary: burst must stop there.
    addr = 0x3000 - 20
    assert dma.max_burst(addr, 88) == 20
    # At a page start the full burst is allowed.
    assert dma.max_burst(0x3000, 88) == 88
    # Wanting less than the cap returns the want.
    assert dma.max_burst(0x3000, 30) == 30


def test_burst_crossing_page_boundary_rejected():
    sim, mem, cache, dma = _dma_rig(DmaMode.DOUBLE_CELL)

    def proc():
        yield from dma.write_host(0x3000 - 20, b"z" * 44)

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_arbitrary_mode_moves_up_to_a_page():
    sim, mem, cache, dma = _dma_rig(DmaMode.ARBITRARY)
    # No length cap, but the page-boundary stop still applies.
    assert dma.max_burst(0x2000, 5120) == 4096

    def proc():
        yield from dma.write_host(0x2000, bytes(range(256)) * 16)

    spawn(sim, proc())
    sim.run()
    assert mem.read(0x2000, 4096) == bytes(range(256)) * 16


def test_read_host_returns_memory_contents():
    sim, mem, cache, dma = _dma_rig(DmaMode.SINGLE_CELL)
    mem.write(0x2000, b"q" * 44)
    result = {}

    def proc():
        data = yield from dma.read_host(0x2000, 44)
        result["data"] = data

    spawn(sim, proc())
    sim.run()
    assert result["data"] == b"q" * 44


def test_dma_write_respects_coherence_model():
    sim, mem, cache, dma = _dma_rig(DmaMode.SINGLE_CELL)
    mem.write(0x2000, b"A" * 44)
    cache.read(0x2000, 44)

    def proc():
        yield from dma.write_host(0x2000, b"B" * 44)

    spawn(sim, proc())
    sim.run()
    assert mem.read(0x2000, 44) == b"B" * 44
    assert cache.read(0x2000, 44) == b"A" * 44  # stale on the DS

