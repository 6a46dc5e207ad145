"""Shared test rigs."""

import pytest

from repro.hw import (
    DataCache, DS5000_200, HostCPU, MemorySystem, PhysicalMemory,
    TurboChannel,
)
from repro.hw.dma import DmaMode
from repro.osiris import OsirisBoard
from repro.sim import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="run the whole suite with the repro.analysis.sanitize "
             "runtime checks enabled (SRSW queue ownership, monotone "
             "virtual time, shard horizons, window conservation)")


def pytest_configure(config):
    if config.getoption("--sanitize"):
        from repro.analysis import sanitize
        sanitize.enable()


class BoardRig:
    """A simulator + host memory + one OSIRIS board, no OS."""

    def __init__(self, machine=DS5000_200,
                 tx_dma_mode=DmaMode.SINGLE_CELL,
                 rx_dma_mode=DmaMode.SINGLE_CELL,
                 memory_bytes=8 * 1024 * 1024):
        self.machine = machine
        self.sim = Simulator()
        self.memory = PhysicalMemory(
            memory_bytes, machine.page_size,
            reserved_bytes=4 * 1024 * 1024)
        self.cache = DataCache(machine.cache, self.memory)
        self.tc = TurboChannel(self.sim, machine.bus)
        self.memsys = MemorySystem(self.sim, machine, self.tc)
        self.cpu = HostCPU(self.sim, machine, self.memsys)
        self.board = OsirisBoard(
            self.sim, machine, self.tc, self.memory, self.cache,
            tx_dma_mode=tx_dma_mode, rx_dma_mode=rx_dma_mode)

    def feed_free_buffers(self, count, vci=0, channel_id=0):
        """Host-side: allocate contiguous receive buffers and queue them."""
        from repro.osiris import Descriptor
        channel = self.board.channels[channel_id]
        size = self.board.spec.recv_buffer_bytes
        descs = []
        for _ in range(count):
            addr = self.memory.alloc_contiguous(size)
            desc = Descriptor(addr=addr, length=size, vci=vci)
            assert channel.free_queue.push(desc)
            descs.append(desc)
        return descs

    def queue_pdu(self, data, vci, channel_id=0, buffer_split=None):
        """Host-side: write ``data`` into buffers and queue descriptors.

        ``buffer_split`` is a list of buffer sizes; defaults to one
        buffer holding everything.
        """
        from repro.osiris import Descriptor, FLAG_END_OF_PDU
        channel = self.board.channels[channel_id]
        sizes = buffer_split or [len(data)]
        assert sum(sizes) == len(data)
        offset = 0
        descs = []
        for i, size in enumerate(sizes):
            addr = self.memory.alloc_contiguous(max(size, 1))
            self.memory.write(addr, data[offset:offset + size])
            flags = FLAG_END_OF_PDU if i == len(sizes) - 1 else 0
            desc = Descriptor(addr=addr, length=size, flags=flags, vci=vci)
            assert channel.tx_queue.push(desc)
            descs.append(desc)
            offset += size
        return descs

    def drain_received(self, channel_id=0):
        """Host-side: pop every descriptor from the receive queue."""
        channel = self.board.channels[channel_id]
        out = []
        while True:
            desc = channel.recv_queue.pop(by_host=True)
            if desc is None:
                return out
            out.append(desc)

    def reassemble_host_side(self, descs):
        """Concatenate delivered buffers into framed PDUs by END flag."""
        pdus = []
        current = bytearray()
        for desc in descs:
            current += self.memory.read(desc.addr, desc.length)
            if desc.end_of_pdu:
                pdus.append(bytes(current))
                current = bytearray()
        assert not current, "trailing buffers without END_OF_PDU"
        return pdus


@pytest.fixture
def rig():
    return BoardRig()
