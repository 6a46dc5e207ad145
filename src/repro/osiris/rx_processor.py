"""The receive-side i960 loop.

The receive processor reads (VCI, AAL info) for each incoming cell
from the on-board FIFO, decides where in host memory the payload
belongs, and issues a DMA command -- typically one per cell (paper,
section 1).  This module implements that loop with:

* early demultiplexing through the VCI table (sections 3.1/3.2);
* buffer selection from per-path cached-fbuf pools with fallback to
  the uncached pool (section 3.1);
* the double-cell DMA optimisation: the processor looks at two cell
  headers and combines two payloads destined for contiguous addresses
  into one 88-byte transaction (section 2.5.1);
* stop-at-page-boundary bursts (section 2.5.2);
* all three reassembly strategies of section 2.6 (in-order, sequence
  numbers, concurrent per-link AAL5);
* the interrupt discipline of section 2.1.2: one interrupt per
  receive-queue empty->non-empty transition, or the traditional
  one-per-PDU as a baseline.

Every cell carries its real payload, and every mode reassembles and
CRC-checks real bytes.  The skew-tolerant modes assume PDUs on one VCI
do not overlap by more than the stripe reorder window (the pure
algorithms in :mod:`repro.atm.sar` handle unrestricted pipelining and
are property-tested separately).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..analysis.sanitize import maybe_actor
from ..atm.aal5 import Aal5Error, BadCrc, Reassembler, SegmentMode, encode_pdu
from ..atm.cell import Cell
from ..atm.sar import (
    ConcurrentReassembler, LossDetected, SequenceNumberReassembler,
    SkewOverflow,
)
from ..hw.dma import DmaMode
from ..hw.specs import AAL_PAYLOAD_BYTES, STRIPE_LINKS
from ..sim import (
    Delay, Process, SimulationError, Simulator, Store, spawn,
)
from .board import Channel, OsirisBoard
from .descriptors import Descriptor, FLAG_END_OF_PDU, FLAG_ERROR

# How long the firmware holds for the next cell's header when the FIFO
# is empty, hoping to combine two payloads into one DMA (section
# 2.5.1): less than a separate DMA's overhead.
COMBINE_WAIT_US = 0.75
# The striped link's aggregate cell rate: one cell per 0.682 us is
# 516 Mbps of payload (section 4's fictitious-PDU generator).
CELL_PACE_US = 0.682
# SEQUENCE mode: declare a destroyed cell lost after this many later
# arrivals, instead of wedging until the skew window overflows (which
# a short flow may never do).
LOSS_RESYNC_CELLS = 32


class InterruptMode(enum.Enum):
    COALESCED = "coalesced"    # the paper's discipline
    PER_PDU = "per-pdu"        # traditional baseline


@dataclass(slots=True)
class _Bucket:
    """One receive buffer holding a slice of the open PDU."""

    desc: Descriptor
    filled: int = 0


@dataclass(slots=True)
class _VciState:
    channel: Channel
    detector: Any
    vci: int = 0
    # In-order placement cursor (bytes into the open PDU's framing).
    offset: int = 0
    cells_in_pdu: int = 0
    base_seq: int = 0
    link_counts: list[int] = field(
        default_factory=lambda: [0] * STRIPE_LINKS)
    buckets: dict[int, _Bucket] = field(default_factory=dict)
    max_offset_seen: int = 0
    last_dma: Optional[Process] = None
    dropping: bool = False


@dataclass(slots=True)
class _Placement:
    state: _VciState
    cell: Cell
    offset: int           # byte offset within the open PDU
    addr: int             # physical destination address
    bucket_index: int


class RxProcessor:
    """Receive processor: cells in, filled buffers + interrupts out."""

    def __init__(self, sim: Simulator, board: OsirisBoard,
                 reassembly_mode: SegmentMode = SegmentMode.IN_ORDER,
                 interrupt_mode: InterruptMode = InterruptMode.COALESCED,
                 flow_controlled: bool = False):
        self.sim = sim
        self.board = board
        self.reassembly_mode = reassembly_mode
        self.interrupt_mode = interrupt_mode
        self.flow_controlled = flow_controlled
        self.bufsize = board.spec.recv_buffer_bytes
        self._states: dict[int, _VciState] = {}
        self._dma_tokens = Store(sim, "rx-dma-tokens")
        for _ in range(board.spec.rx_dma_queue_depth):
            self._dma_tokens.try_put(None)
        self.pdus_received = 0
        self.pdus_errored = 0
        # Subset of pdus_errored caught specifically by the AAL5 CRC
        # (corrupted payload bits, as opposed to framing/length damage).
        self.crc_errors = 0
        # Loss recovery in SEQUENCE mode: resyncs after a destroyed
        # cell wedged the resequencer, and stale duplicates dropped
        # after base_seq moved past them.
        self.skew_resyncs = 0
        self.loss_resyncs = 0
        self.cells_stale = 0
        self.cells_received = 0
        self.cells_dropped_no_buffer = 0
        self.combined_dmas = 0
        self.single_dmas = 0
        # Firmware costs, built once and yielded for every cell / PDU.
        self._cell_time = Delay(board.spec.rx_cell_us)
        self._pdu_time = Delay(board.spec.rx_pdu_overhead_us)
        self._combine_wait = Delay(COMBINE_WAIT_US)
        self.process = spawn(sim, self._run(), "rx-processor")

    # -- main loop ----------------------------------------------------------

    def _run(self) -> Generator[Any, Any, None]:
        combine = self.board.rx_dma.mode is DmaMode.DOUBLE_CELL
        # One get command each, yielded again once answered.
        next_cell = self.board.rx_fifo.get()
        dma_slot = self._dma_tokens.get()
        while True:
            cell = yield next_cell
            yield self._cell_time
            first = yield from self._plan(cell)
            if first is None:
                continue
            second = None
            if combine:
                second = yield from self._try_combine(first)
            dma = self._dma_command(first, second)
            # A slot in the DMA command queue: blocks only when it is
            # full (the engine runs concurrently with cell processing).
            yield dma_slot
            first.state.last_dma = spawn(self.sim, dma, "rx-dma")
            handover = self._post_dma(first)
            if handover is not None:
                yield from handover
            if second is not None:
                handover = self._post_dma(second)
                if handover is not None:
                    yield from handover

    # -- placement ------------------------------------------------------------

    def _state_for(self, cell: Cell) -> Optional[_VciState]:
        channel_id = self.board.vci_table.get(cell.vci)
        if channel_id is None:
            self.board.unknown_vci_drops += 1
            return None
        channel = self.board.channels[channel_id]
        state = self._states.get(cell.vci)
        if state is None:
            state = _VciState(channel=channel, vci=cell.vci,
                              detector=self._new_detector(cell.vci))
            self._states[cell.vci] = state
        return state

    def _new_detector(self, vci: int) -> Any:
        if self.reassembly_mode is SegmentMode.SEQUENCE:
            return SequenceNumberReassembler(
                vci, loss_resync_cells=LOSS_RESYNC_CELLS)
        if self.reassembly_mode is SegmentMode.CONCURRENT:
            return ConcurrentReassembler(vci, STRIPE_LINKS)
        return Reassembler(vci)

    def _cell_offset(self, state: _VciState, cell: Cell) -> int:
        mode = self.reassembly_mode
        if mode is SegmentMode.IN_ORDER:
            return state.offset
        if mode is SegmentMode.SEQUENCE:
            if cell.seq is None:
                raise SimulationError("sequence mode needs numbered cells")
            return (cell.seq - state.base_seq) * AAL_PAYLOAD_BYTES
        m = state.link_counts[cell.link_id]
        return (m * STRIPE_LINKS + cell.link_id) * AAL_PAYLOAD_BYTES

    def _plan(self, cell: Cell) -> Generator[Any, Any, Optional[_Placement]]:
        """Demux, compute placement, secure a buffer, update counters."""
        self.cells_received += 1
        state = self._state_for(cell)
        if state is None:
            return None
        if state.dropping:
            # Discard the rest of a PDU that lost its buffer.
            if cell.eom and self.reassembly_mode is SegmentMode.IN_ORDER:
                state.dropping = False
                state.detector = self._new_detector(cell.vci)
                self._reset_pdu(state)
            return None
        offset = self._cell_offset(state, cell)
        if offset < 0:
            # A duplicate from before a loss resync advanced base_seq;
            # its bytes were already abandoned, so drop it quietly.
            self.cells_stale += 1
            return None
        bucket_index = offset // self.bufsize
        bucket = state.buckets.get(bucket_index)
        if bucket is None:
            bucket = yield from self._allocate_bucket(state, cell,
                                                      bucket_index)
            if bucket is None:
                return None
        addr = bucket.desc.addr + (offset % self.bufsize)
        # Advance per-mode cursors.
        if self.reassembly_mode is SegmentMode.IN_ORDER:
            state.offset += AAL_PAYLOAD_BYTES
        elif self.reassembly_mode is SegmentMode.CONCURRENT:
            state.link_counts[cell.link_id] += 1
        state.cells_in_pdu += 1
        state.max_offset_seen = max(state.max_offset_seen,
                                    offset + AAL_PAYLOAD_BYTES)
        bucket.filled += AAL_PAYLOAD_BYTES
        return _Placement(state=state, cell=cell, offset=offset,
                          addr=addr, bucket_index=bucket_index)

    def _allocate_bucket(self, state: _VciState, cell: Cell,
                         bucket_index: int
                         ) -> Generator[Any, Any, Optional[_Bucket]]:
        channel = state.channel
        while True:
            desc = self.board.take_receive_buffer(channel, cell.vci)
            if desc is not None:
                if desc.length != self.bufsize:
                    raise SimulationError(
                        f"receive buffer of {desc.length} bytes; the "
                        f"board expects uniform {self.bufsize}")
                bucket = _Bucket(desc=desc)
                state.buckets[bucket_index] = bucket
                return bucket
            if not self.flow_controlled:
                self.cells_dropped_no_buffer += 1
                channel.cells_dropped += 1
                if self.reassembly_mode is SegmentMode.IN_ORDER:
                    state.dropping = not cell.eom
                    state.detector = self._new_detector(cell.vci)
                    if cell.eom:
                        self._reset_pdu(state)
                    else:
                        self._discard_open_buffers(state)
                return None
            # Flow-controlled source: wait for the host to feed buffers.
            yield channel.free_queue.became_nonempty

    def _discard_open_buffers(self, state: _VciState) -> None:
        for _, bucket in sorted(state.buckets.items()):
            state.channel.anon_pool.append(bucket.desc)
        state.buckets.clear()

    # -- double-cell combining ---------------------------------------------------

    def _try_combine(self, first: _Placement
                     ) -> Generator[Any, Any, Optional[_Placement]]:
        """Peek the next FIFO cell; combine when its payload lands
        immediately after the first (section 2.5.1)."""
        if first.cell.eom:
            return None
        fifo = self.board.rx_fifo
        nxt: Optional[Cell] = fifo.peek()
        if nxt is None:
            # The successor may be one cell-time behind on the wire;
            # waiting for its header costs less than a separate DMA's
            # overhead, so the firmware holds briefly.
            yield self._combine_wait
            nxt = fifo.peek()
            if nxt is None:
                return None
        if nxt.vci != first.cell.vci:
            return None
        if not self._is_contiguous(first, nxt):
            return None
        # Both payloads must fit in one burst in the same buffer/page.
        if (first.offset % self.bufsize) + 2 * AAL_PAYLOAD_BYTES > \
                self.bufsize:
            return None
        if self.board.rx_dma.max_burst(first.addr, 2 * AAL_PAYLOAD_BYTES) \
                < 2 * AAL_PAYLOAD_BYTES:
            return None
        ok, cell = fifo.try_get()
        assert ok and cell is nxt
        yield self._cell_time
        second = yield from self._plan(cell)
        return second

    def _is_contiguous(self, first: _Placement, nxt: Cell) -> bool:
        mode = self.reassembly_mode
        if mode is SegmentMode.IN_ORDER:
            return True  # in-order cells on one VCI are consecutive
        if mode is SegmentMode.SEQUENCE:
            return (nxt.seq is not None and first.cell.seq is not None
                    and nxt.seq == first.cell.seq + 1)
        state = first.state
        expected = self._cell_offset(state, nxt)
        return expected == first.offset + AAL_PAYLOAD_BYTES

    # -- DMA ------------------------------------------------------------------

    def _dma_command(self, first: _Placement,
                     second: Optional[_Placement]
                     ) -> Generator[Any, Any, None]:
        """The DMA moving one placed cell, or two combined ones."""
        if second is not None:
            self.combined_dmas += 1
            return self._dma(first.addr,
                             first.cell.payload + second.cell.payload,
                             2 * AAL_PAYLOAD_BYTES)
        self.single_dmas += 1
        return self._dma(first.addr, first.cell.payload, AAL_PAYLOAD_BYTES)

    def _dma(self, addr: int, data: bytes, nbytes: int
             ) -> Generator[Any, Any, None]:
        """One DMA command, run as a process of its own."""
        dma = self.board.rx_dma
        # The controller stops at page boundaries and waits for a
        # continuation address (section 2.5.2), so a payload that
        # straddles a boundary costs two transactions.
        pos = addr
        left = nbytes
        offset = 0
        while left > 0:
            burst = dma.max_burst(pos, left)
            yield from dma.write_host(pos, data[offset:offset + burst])
            pos += burst
            offset += burst
            left -= burst
        self._dma_tokens.try_put(None)

    # -- completion ----------------------------------------------------------------

    def _post_dma(self, placement: _Placement
                  ) -> Optional[Generator[Any, Any, None]]:
        """Feed the placed cell to its reassembler.  Returns the
        hand-over it triggers (a finished PDU, or buffers the PDU has
        grown past) for the caller to run, or None."""
        state = placement.state
        cell = placement.cell
        try:
            result = state.detector.push(
                cell, cell.link_id) \
                if self.reassembly_mode is SegmentMode.CONCURRENT \
                else state.detector.push(cell)
        except Aal5Error as exc:
            self.pdus_errored += 1
            if isinstance(exc, BadCrc):
                self.crc_errors += 1
            if isinstance(exc, SkewOverflow):
                # A destroyed cell wedged the sequence stream; abandon
                # everything buffered and resume just past the cell
                # that overflowed (see SequenceNumberReassembler.resync).
                self.skew_resyncs += 1
                state.detector.resync(cell.seq + 1)
            elif isinstance(exc, LossDetected):
                # The gap outlived the loss bound: skip the damaged
                # PDU only; later PDUs stay buffered and drain as
                # their own EOMs complete.
                self.loss_resyncs += 1
                state.detector.gap_resync()
            return self._deliver_pdu(state, error=True)
        if self._completed(result):
            return self._deliver_pdu(state, error=False)
        if self.reassembly_mode is SegmentMode.IN_ORDER:
            # 'When the buffer is filled ... the processor adds the
            # buffer to the receive queue' (section 2.1.1): hand over
            # buffers the PDU has grown past without waiting for the
            # end of the PDU.
            current = placement.bucket_index
            ready = [i for i in state.buckets if i < current]
            if ready:
                ready.sort()
                return self._deliver_filled_buckets(state, ready)
        return None

    def _completed(self, result: Any) -> bool:
        """In-order reassembly returns the decoded PDU (``b""`` for an
        empty one) or None; the skew-tolerant modes return the list of
        PDUs the cell completed."""
        if result is None:
            return False
        if isinstance(result, list):
            return len(result) > 0
        return True

    def _deliver_filled_buckets(self, state: _VciState, ready: list[int]
                                ) -> Generator[Any, Any, None]:
        if state.last_dma is not None and not state.last_dma.done:
            yield state.last_dma
        for index in ready:
            bucket = state.buckets.pop(index)
            desc = Descriptor(addr=bucket.desc.addr, length=self.bufsize,
                              flags=0, vci=state.vci)
            yield from self._enqueue_received(state.channel, desc)

    def _deliver_pdu(self, state: _VciState,
                     error: bool) -> Generator[Any, Any, None]:
        """PDU complete: wait for its last DMA, enqueue buffers, maybe
        interrupt, reset per-PDU state."""
        yield self._pdu_time
        if state.last_dma is not None and not state.last_dma.done:
            yield state.last_dma
        channel = state.channel
        total = state.max_offset_seen
        buckets = state.buckets
        indices = list(buckets) if len(buckets) == 1 else sorted(buckets)
        for position, index in enumerate(indices):
            bucket = buckets[index]
            start = index * self.bufsize
            length = min(self.bufsize, total - start)
            flags = 0
            if position == len(indices) - 1:
                flags |= FLAG_END_OF_PDU
            if error:
                flags |= FLAG_ERROR
            desc = Descriptor(addr=bucket.desc.addr, length=length,
                              flags=flags, vci=state.vci)
            yield from self._enqueue_received(channel, desc)
        channel.pdus_received += 1
        self.pdus_received += 1
        self._reset_pdu(state)

    def _enqueue_received(self, channel: Channel,
                          desc: Descriptor) -> Generator[Any, Any, None]:
        queue = channel.recv_queue
        while True:
            # The adaptor-side pointer moves under the rx-processor
            # actor so the SRSW sanitizer can name the second writer
            # if one ever appears (paper section 2.1.1).
            with maybe_actor("rx-processor"):
                was_empty = queue.is_empty(by_host=False)
                pushed = queue.push(desc, by_host=False)
            if pushed:
                if self.interrupt_mode is InterruptMode.PER_PDU:
                    if desc.end_of_pdu:
                        self.board.raise_receive_irq(channel)
                elif was_empty:
                    self.board.raise_receive_irq(channel)
                return
            if self.flow_controlled:
                yield queue.became_nonfull
            else:
                # Host overrun: drop and recycle the buffer on-board.
                channel.anon_pool.append(
                    Descriptor(addr=desc.addr, length=self.bufsize))
                channel.cells_dropped += 1
                return

    def _reset_pdu(self, state: _VciState) -> None:
        state.offset = 0
        state.cells_in_pdu = 0
        state.max_offset_seen = 0
        state.buckets.clear()
        state.link_counts = [0] * STRIPE_LINKS
        if self.reassembly_mode is SegmentMode.SEQUENCE:
            reasm: SequenceNumberReassembler = state.detector
            state.base_seq = reasm.next_seq


class FramedPduSource:
    """The receive-side isolation workload of section 4.

    'The receiver processor of the OSIRIS board was programmed to
    generate fictitious PDUs as fast as the receiving host could
    absorb them.'  Cells are synthesized at the striped link's
    aggregate cell rate (:data:`CELL_PACE_US`) and pushed through the
    normal receive FIFO; the bounded FIFO provides the absorb-rate flow
    control.  The figure 2/3 harness feeds it the IP fragments a
    sending host's stack would have produced (UDP/IP headers included),
    so the receiving host runs its full protocol path.  The list is
    replayed ``repeat`` times.
    """

    def __init__(self, sim: Simulator, board: OsirisBoard, vci: int,
                 pdus: list[bytes], repeat: int):
        self.sim = sim
        self.board = board
        self.vci = vci
        self.repeat = repeat
        self.rounds_generated = 0
        self._framed = [encode_pdu(p) for p in pdus]
        self.process = spawn(sim, self._run(), "framed-source")

    def _run(self) -> Generator[Any, Any, None]:
        pace = Delay(CELL_PACE_US)
        for _ in range(self.repeat):
            for framed in self._framed:
                n = len(framed) // AAL_PAYLOAD_BYTES
                for i in range(n):
                    payload = framed[i * AAL_PAYLOAD_BYTES:
                                     (i + 1) * AAL_PAYLOAD_BYTES]
                    cell = Cell(vci=self.vci, payload=payload,
                                eom=(i == n - 1), tx_index=i)
                    yield pace
                    yield self.board.rx_fifo.put(cell)
            self.rounds_generated += 1


__all__ = ["RxProcessor", "InterruptMode", "FramedPduSource"]
