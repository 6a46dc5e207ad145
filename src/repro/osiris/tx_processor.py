"""The transmit-side i960 loop.

Section 2.1.1's algorithm, verbatim:

* wait until the transmit queue is not empty
* read the descriptor at ``xmitQueue[tail]``
* transmit the buffer
* increment the tail pointer

extended with everything sections 2.1.2, 2.5 and 3.2 layer on top:
PDUs spanning several descriptors, the transmit-space interrupt (only
when the host found the queue full), DMA-length discipline including
the stop-at-page-boundary continuation, per-channel priorities, and
the ADC page-authorization check.

Two multiplexing disciplines (section 2.5.1):

* **sequential** (default) -- one PDU at a time, maximizing throughput
  to a single application;
* **interleaved** -- one cell from each active PDU in turn ('the host
  could queue a number of packets and the microprocessor could
  transmit one cell from each in turn'), the fine-grained multiplexing
  that favors latency and switch behaviour.

Every cell carries the bytes its DMA bursts read from host memory, so
the board samples a buffer when it moves it, as the hardware does.  The
AAL5 framing (padding, CRC trailer) is computed by the cell generator
hardware from the CRC it accumulates as the bursts stream past, at no
modelled cost; the timed part is the per-cell command issue plus every
DMA transaction on the bus.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..analysis.sanitize import maybe_actor
from ..atm.aal5 import SegmentMode, cell_count, pad_and_trailer
from ..atm.cell import Cell
from ..atm.crc import fast_crc32
from ..atm.striping import StripedLink
from ..hw.specs import AAL_PAYLOAD_BYTES
from ..sim import Delay, Signal, Simulator, spawn
from .board import Channel, OsirisBoard
from .descriptors import Descriptor

DeliverFn = Callable[[Cell], None]


class _PduTransmission:
    """Cursor state for one PDU being segmented onto the wire.

    ``step()`` advances by exactly one cell (including any DMA bursts
    needed to gather its payload), so the processor can interleave
    several of these at cell granularity.
    """

    def __init__(self, txp: "TxProcessor", channel: Channel,
                 descs: list[Descriptor]):
        self.txp = txp
        self.channel = channel
        self.descs = descs
        self.vci = descs[0].vci
        self.total_len = sum(d.length for d in descs)
        self.n_cells = cell_count(self.total_len)
        self.seq_base = txp._seq_counters.get(self.vci, 0)
        if txp.segment_mode is SegmentMode.SEQUENCE:
            txp._seq_counters[self.vci] = self.seq_base + self.n_cells
        self.emitted = 0
        self._acc = 0
        self._desc_index = 0
        self._buf_offset = 0
        self._data_left = self.total_len
        self._crc = 0
        # Framed bytes read but not yet sent: at most part of a cell
        # between bursts, plus the pad and trailer once the data is in
        # (at once for an empty PDU, which no burst reads).
        self._unsent = b"" if self.total_len else pad_and_trailer(0, 0)

    @property
    def done(self) -> bool:
        return self.emitted >= self.n_cells

    def consume_remaining(self) -> None:
        """Pop any descriptors not consumed by the data walk (empty
        buffers of a degenerate PDU)."""
        while self._desc_index < len(self.descs):
            with maybe_actor("tx-processor"):
                self.channel.tx_queue.pop(by_host=False)
            self.txp._maybe_tx_space_irq(self.channel)
            self._desc_index += 1

    def step(self) -> Generator[Any, Any, None]:
        """Gather (via DMA) and emit the next cell."""
        txp = self.txp
        dma = txp.board.tx_dma
        cap = dma.max_bytes or 1 << 30
        # DMA until one whole cell's payload has been gathered (two
        # bursts at buffer/page edges -- the section 2.5.2 two-address
        # continuation).  In double-cell mode one burst may gather two
        # cells; emit both.
        gathered = self._acc // AAL_PAYLOAD_BYTES
        while self._data_left > 0 and gathered == 0:
            desc = self.descs[self._desc_index]
            addr = desc.addr + self._buf_offset
            buf_left = desc.length - self._buf_offset
            room = cap - self._acc
            want = min(self._data_left, buf_left, room)
            burst = dma.max_burst(addr, want)
            data = yield from dma.read_host(addr, burst)
            self._buf_offset += burst
            self._data_left -= burst
            self._acc += burst
            self._crc = fast_crc32(data, self._crc)
            if not self._data_left:
                data += pad_and_trailer(self.total_len, self._crc)
            if self._unsent:
                # The part of a cell the last burst began goes first.
                data = self._unsent + data
            self._unsent = data
            if self._buf_offset == desc.length:
                # Buffer fully read: NOW advance the tail pointer --
                # the host's transmission-complete signal.
                with maybe_actor("tx-processor"):
                    popped = self.channel.tx_queue.pop(by_host=False)
                assert popped == desc
                txp._maybe_tx_space_irq(self.channel)
                self._desc_index += 1
                self._buf_offset = 0
            gathered = self._acc // AAL_PAYLOAD_BYTES
            if self._data_left == 0 and self._acc % AAL_PAYLOAD_BYTES:
                gathered += 1  # final partial cell (pad+trailer follow)
        if gathered > 0:
            self._acc -= min(self._acc, gathered * AAL_PAYLOAD_BYTES)
        else:
            gathered = 1       # a pad/trailer-only cell carries no host data
        for _ in range(gathered):
            if self.emitted < self.n_cells:
                if txp.credit_gate is not None:
                    # Fabric backpressure: hold the cell until its VCI
                    # may emit (credit available / EFCI cooldown elapsed).
                    yield from txp.credit_gate.acquire(self.vci)
                yield txp._cell_time
                self._emit()

    def _emit(self) -> None:
        """Put the next cell on the link; its cell time is spent."""
        txp = self.txp
        index = self.emitted
        n_cells = self.n_cells
        unsent = self._unsent
        # A one-cell burst is sent as it was read, without a copy.
        payload = unsent[:AAL_PAYLOAD_BYTES]
        self._unsent = unsent[AAL_PAYLOAD_BYTES:]
        mode = txp.segment_mode
        if mode is SegmentMode.CONCURRENT:
            stripe = txp.link.n_links if txp.link else 4
            eom = index >= n_cells - min(stripe, n_cells)
        else:
            eom = index == n_cells - 1
        cell = Cell(
            vci=self.vci,
            payload=payload,
            eom=eom,
            seq=(self.seq_base + index
                 if mode is SegmentMode.SEQUENCE else None),
            atm_last=(mode is SegmentMode.CONCURRENT
                      and index == n_cells - 1),
            tx_index=index,
        )
        self.emitted += 1
        txp.cells_sent += 1
        if txp.link is not None:
            txp.link.submit(cell)
        else:
            assert txp.deliver is not None
            txp.deliver(cell)


class TxProcessor:
    """Transmit processor: drains tx queues into cells on the link."""

    def __init__(self, sim: Simulator, board: OsirisBoard,
                 link: Optional[StripedLink] = None,
                 deliver: Optional[DeliverFn] = None,
                 segment_mode: SegmentMode = SegmentMode.IN_ORDER,
                 interleave: bool = False):
        if link is None and deliver is None:
            raise ValueError("TxProcessor needs a link or a deliver callback")
        self.sim = sim
        self.board = board
        self.link = link
        self.deliver = deliver
        self.segment_mode = segment_mode
        self.interleave = interleave
        self.work = Signal("tx.work")
        # Firmware costs, built once and yielded for every cell / PDU.
        self._cell_time = Delay(board.spec.tx_cell_us)
        self._pdu_time = Delay(board.spec.tx_pdu_overhead_us)
        # Optional per-VCI emission gate (duck-typed: anything with an
        # ``acquire(vci)`` subroutine, e.g. repro.cluster.backpressure.
        # CreditGate).  The fabric installs one when flow control is on.
        self.credit_gate = None
        self.pdus_sent = 0
        self.cells_sent = 0
        self.violations = 0
        self._seq_counters: dict[int, int] = {}
        self.seq_migrations = 0
        self._last_served = 0
        self._active: dict[int, _PduTransmission] = {}
        for channel in board.channels:
            channel.tx_queue.became_nonempty.subscribe(
                lambda _v: self.work.fire())
        self.process = spawn(sim, self._run(), "tx-processor")

    def migrate_seq(self, old_vci: int, new_vci: int) -> None:
        """Carry a flow's cell sequence numbering to a new VCI (path
        failover).  The receiver's reassembler keys its state by the
        *delivered* VCI, which a reroute never changes, so numbering
        must stay monotone across the retarget -- otherwise every
        post-failover cell reads as a stale duplicate and is dropped.
        A PDU already mid-transmission keeps the old VCI (and the old,
        possibly dead, path); the gap it leaves is ordinary loss to
        the AAL5 layer."""
        self._seq_counters[new_vci] = self._seq_counters.get(old_vci, 0)
        self.seq_migrations += 1

    # -- scheduling -----------------------------------------------------------

    def _ready_channels(self) -> list[Channel]:
        """Channels with queued work or an in-flight transmission."""
        ready = [
            ch for ch in self.board.channels
            if (ch.channel_id == 0 or ch.open)
            and (ch.channel_id in self._active
                 or not ch.tx_queue.is_empty(by_host=False))
        ]
        if not ready:
            return []
        best = min(ch.priority for ch in ready)
        ring = [ch for ch in ready if ch.priority == best]
        n = len(self.board.channels)
        ring.sort(key=lambda ch: (ch.channel_id - self._last_served - 1) % n)
        return ring

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            ring = self._ready_channels()
            if not ring:
                yield self.work
                continue
            if self.interleave:
                yield from self._step_interleaved(ring)
                continue
            # Sequential discipline: the whole PDU, cell by cell.
            channel = ring[0]
            self._last_served = channel.channel_id
            tx = yield from self._start_transmission(channel)
            if tx is None:
                continue
            while not tx.done:
                yield from tx.step()
            self._finish_transmission(tx)

    # -- interleaved discipline -----------------------------------------------------

    def _step_interleaved(self, ring: list[Channel]
                          ) -> Generator[Any, Any, None]:
        """One cell from each ready channel's active PDU, in turn."""
        for channel in ring:
            cid = channel.channel_id
            tx = self._active.get(cid)
            if tx is None:
                tx = yield from self._start_transmission(channel)
                if tx is None:
                    continue
                self._active[cid] = tx
            self._last_served = cid
            yield from tx.step()
            if tx.done:
                del self._active[cid]
                self._finish_transmission(tx)

    # -- shared ----------------------------------------------------------------------

    def _start_transmission(self, channel: Channel
                            ) -> Generator[Any, Any,
                                           Optional[_PduTransmission]]:
        descs = yield from self._gather_pdu(channel)
        for desc in descs:
            if not channel.page_authorized(desc.addr, desc.length,
                                           self.board.machine.page_size):
                self.violations += 1
                self.board.raise_protection_irq(channel)
                for _ in descs:  # discard the whole PDU
                    with maybe_actor("tx-processor"):
                        channel.tx_queue.pop(by_host=False)
                    self._maybe_tx_space_irq(channel)
                return None
        yield self._pdu_time
        if self.link is not None and not self.interleave:
            self.link.start_pdu()
        return _PduTransmission(self, channel, descs)

    def _finish_transmission(self, tx: _PduTransmission) -> None:
        tx.consume_remaining()
        tx.channel.pdus_sent += 1
        self.pdus_sent += 1

    def _gather_pdu(self, channel: Channel
                    ) -> Generator[Any, Any, list[Descriptor]]:
        """Peek descriptors up to the END_OF_PDU flag.

        The tail pointer is NOT advanced here: it only moves as each
        buffer finishes transmission, because the host reads its
        advance as the completion signal (section 2.1.2).
        """
        descs: list[Descriptor] = []
        while True:
            desc = channel.tx_queue.peek_at(len(descs), by_host=False)
            if desc is None:
                # Host is still queueing the PDU's remaining buffers.
                yield channel.tx_queue.pushed
                continue
            descs.append(desc)
            if desc.end_of_pdu:
                return descs

    def _maybe_tx_space_irq(self, channel: Channel) -> None:
        """Assert the transmit-space interrupt when the host asked for
        one and the queue has drained to half empty (section 2.1.2)."""
        if channel.channel_id not in self.board.tx_interrupt_wanted:
            return
        occupancy = channel.tx_queue.occupancy(by_host=False)
        if occupancy <= channel.tx_queue.capacity // 2:
            self.board.tx_interrupt_wanted.discard(channel.channel_id)
            self.board.raise_tx_space_irq(channel)


__all__ = ["TxProcessor"]
