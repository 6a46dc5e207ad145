"""ATM cells as they appear to the OSIRIS board.

The board strips the ATM and AAL headers in hardware and presents the
receive processor with (VCI, AAL info) pairs read from a FIFO (paper,
section 1).  We therefore model a cell as the information content that
survives that stripping:

* ``vci`` -- the virtual circuit identifier, the demultiplexing key.
* ``payload`` -- the 44-byte AAL payload (48-byte ATM payload minus
  AAL overhead, per the paper).
* ``eom`` -- the AAL5-style framing bit marking the last cell of a PDU.
* ``seq`` -- an optional per-cell sequence number carried in the AAL
  header; only used by the sequence-number skew strategy of
  section 2.6 (it is non-standard, as the paper notes).
* ``atm_last`` -- the optional extra framing bit in the ATM header
  that marks the very last cell of a PDU, proposed for the concurrent
  reassembly strategy when a PDU is shorter than the stripe width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hw.specs import AAL_PAYLOAD_BYTES


@dataclass(slots=True)
class Cell:
    """One ATM cell after header stripping."""

    vci: int
    payload: bytes
    eom: bool = False
    seq: Optional[int] = None
    atm_last: bool = False

    # Bookkeeping stamped by the transmission path (not protocol data).
    link_id: int = field(default=-1, compare=False)
    tx_index: int = field(default=-1, compare=False)
    # EFCI: the explicit forward congestion indication bit of the ATM
    # header, set by a congested switch port and read by the receiver
    # (the cheap alternative to credit flow control).
    efci: bool = field(default=False, compare=False)
    # Set by a fault site when it flips a payload bit; the receiver's
    # AAL5 CRC is what actually detects it -- this flag only feeds the
    # delivered-corrupted accounting in the conservation law.
    corrupted: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.payload) > AAL_PAYLOAD_BYTES:
            raise ValueError(
                f"cell payload {len(self.payload)} exceeds "
                f"{AAL_PAYLOAD_BYTES} bytes")
        if self.vci < 0 or self.vci > 0xFFFF:
            raise ValueError(f"VCI {self.vci} out of range")

    def rewrite(self, vci: int, link_id: int, efci: bool) -> "Cell":
        """A switch-rewritten copy: new VCI, output lane, EFCI state.

        Bypasses ``__init__`` -- the payload and framing bits were
        validated when this cell was created, and VCI rewriting is the
        per-cell hot path of both the drain loop and the fused train
        commit, which must stay cheap and *identical*.
        """
        c = Cell.__new__(Cell)
        c.vci = vci
        c.payload = self.payload
        c.eom = self.eom
        c.seq = self.seq
        c.atm_last = self.atm_last
        c.link_id = link_id
        c.tx_index = self.tx_index
        c.efci = efci
        c.corrupted = self.corrupted
        return c

    def __repr__(self) -> str:
        flags = "".join([
            "E" if self.eom else "",
            "L" if self.atm_last else "",
        ])
        seq = f" seq={self.seq}" if self.seq is not None else ""
        return (f"Cell(vci={self.vci}, {len(self.payload)}B"
                f"{seq} {flags} link={self.link_id})")


__all__ = ["Cell"]
