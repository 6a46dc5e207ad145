"""IP: fragmentation and reassembly over the driver.

A deliberately slim IP -- what the paper's experiments exercise is the
*fragmentation geometry* (section 2.2): the MTU decides where fragment
boundaries fall relative to page boundaries, and each fragment's
header occupies its own physical buffer.  Like the paper's, this IP is
"modified to support message sizes larger than 64 KB": offsets and
lengths are 32-bit.

Header layout (20 bytes, big-endian)::

    ident:4  offset:4  total_len:4  flags:1  proto:1  checksum:2  pad:4
"""

from __future__ import annotations

import struct
from typing import Any, Generator

from ...atm.crc import fast_internet_checksum as internet_checksum
from ...hw.cpu import HostCPU
from ...sim import SimulationError
from ..message import Message
from ..protocol import Protocol, Session

HEADER = struct.Struct(">IIIBBH4x")
HEADER_BYTES = HEADER.size
FLAG_MORE_FRAGMENTS = 0x1

assert HEADER_BYTES == 20


class IpProtocol(Protocol):
    """The IP node of the graph."""

    def __init__(self, cpu: HostCPU, mtu: int = 16 * 1024 + HEADER_BYTES):
        super().__init__("ip")
        self.cpu = cpu
        self.mtu = mtu
        self._next_ident = 1
        self.fragments_sent = 0
        self.reassemblies_completed = 0

    def allocate_ident(self) -> int:
        ident = self._next_ident
        self._next_ident += 1
        return ident


class IpSession(Session):
    """One path's IP processing."""

    def __init__(self, protocol: IpProtocol, below: Session,
                 proto_id: int = 17):
        super().__init__(protocol, below)
        self.ip: IpProtocol = protocol
        self.proto_id = proto_id
        # ident -> {offset: Message}, plus the expected total.
        self._partial: dict[int, dict[int, Message]] = {}
        self._totals: dict[int, int] = {}

    # -- transmit ---------------------------------------------------------------

    def send(self, msg: Message) -> Generator[Any, Any, None]:
        costs = self.ip.cpu.machine.costs
        yield from self.ip.cpu.execute(costs.ip_tx_pdu)
        payload_per_frag = self.ip.mtu - HEADER_BYTES
        if payload_per_frag <= 0:
            raise SimulationError(f"MTU {self.ip.mtu} below header size")
        total = msg.length
        ident = self.ip.allocate_ident()
        if total <= payload_per_frag:
            self._push_header(msg, ident, 0, total, more=False)
            yield from self._send_below(msg)
            return
        offset = 0
        first = True
        while offset < total:
            take = min(payload_per_frag, total - offset)
            frag = msg.subrange(offset, take)
            more = offset + take < total
            self._push_header(frag, ident, offset, total, more)
            if not first:
                yield from self.ip.cpu.execute(costs.ip_frag_overhead)
            self.ip.fragments_sent += 1
            yield from self._send_below(frag)
            offset += take
            first = False

    def _push_header(self, msg: Message, ident: int, offset: int,
                     total: int, more: bool) -> None:
        flags = FLAG_MORE_FRAGMENTS if more else 0
        header = HEADER.pack(ident, offset, total, flags, self.proto_id, 0)
        csum = internet_checksum(header)
        header = HEADER.pack(ident, offset, total, flags, self.proto_id,
                             csum)
        msg.push_header(header)

    # -- receive -----------------------------------------------------------------

    def deliver(self, msg: Message) -> Generator[Any, Any, None]:
        costs = self.ip.cpu.machine.costs
        yield from self.ip.cpu.execute(costs.ip_rx_pdu)
        raw = msg.pop_bytes(HEADER_BYTES)
        ident, offset, total, flags, proto, _csum = HEADER.unpack(raw)
        if proto != self.proto_id:
            raise SimulationError(f"unexpected IP proto {proto}")
        more = bool(flags & FLAG_MORE_FRAGMENTS)
        if offset == 0 and not more:
            yield from self._deliver_above(msg)
            return
        frags = self._partial.setdefault(ident, {})
        frags[offset] = msg
        self._totals[ident] = total
        have = sum(m.length for m in frags.values())
        if have < total:
            return
        whole = None
        for off in sorted(frags):
            if whole is None:
                whole = frags[off]
            else:
                whole.append(frags[off])
        del self._partial[ident]
        del self._totals[ident]
        if whole.length != total:
            raise SimulationError("IP reassembly length mismatch")
        self.ip.reassemblies_completed += 1
        yield from self._deliver_above(whole)


__all__ = ["IpProtocol", "IpSession", "HEADER_BYTES", "FLAG_MORE_FRAGMENTS"]
