"""The OSIRIS adaptor: board, lock-free queues, i960 processor models."""

from .board import Channel, N_CHANNELS, OsirisBoard
from .descriptors import (
    Descriptor, FLAG_END_OF_PDU, FLAG_ERROR, WORDS_PER_DESCRIPTOR,
)
from .interrupts import InterruptKind, InterruptLine
from .locks import SpinLock
from .queues import AccessCounter, DescriptorQueue, queue_region_bytes
from .rx_processor import FramedPduSource, InterruptMode, RxProcessor
from .tx_processor import TxProcessor

__all__ = [
    "OsirisBoard", "Channel", "N_CHANNELS",
    "Descriptor", "FLAG_END_OF_PDU", "FLAG_ERROR", "WORDS_PER_DESCRIPTOR",
    "DescriptorQueue", "AccessCounter", "queue_region_bytes",
    "InterruptKind", "InterruptLine", "SpinLock",
    "TxProcessor", "RxProcessor", "InterruptMode", "FramedPduSource",
]
