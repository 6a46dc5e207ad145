"""Cell-level striping over four physical links (paper, section 2.6).

The OSIRIS interface reaches 622 Mbps by grouping four 155 Mbps
channels and striping at the cell level.  The paper names three causes
of the resulting skew:

1. different physical path lengths (eliminated in AURORA by wavelength
   multiplexing onto one fiber) -- modelled as fixed per-link offsets;
2. delays introduced by multiplexing equipment -- modelled as slowly
   varying per-link queueing delay;
3. different switch queueing per port -- modelled as random per-cell
   queueing delay (potentially unbounded).

A :class:`SkewModel` composes these; :class:`StripedLink` wires four
:class:`CellPipe` instances behind a round-robin striper that restarts
at link 0 for every PDU (so cell *i* of a PDU always rides link
``i mod 4`` -- the property both reassembly strategies rely on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..hw.specs import STRIPE_LINKS
from ..sim import Simulator
from .cell import Cell
from .link import OC3_MBPS, CellPipe

DeliverFn = Callable[[Cell], None]


@dataclass
class SkewModel:
    """Per-link delay generator composing the paper's three skew causes."""

    fixed_offsets_us: tuple[float, ...] = (0.0,) * STRIPE_LINKS
    mux_amplitude_us: float = 0.0       # slowly varying mux delay
    mux_period_cells: int = 64
    switch_jitter_us: float = 0.0       # random switch queueing, per cell
    seed: int = 0x0522
    _rngs: list[random.Random] = field(default_factory=list, repr=False)
    _mux_state: list[float] = field(default_factory=list, repr=False)
    _mux_count: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        n = len(self.fixed_offsets_us)
        self._rngs = [random.Random(self.seed + i) for i in range(n)]
        self._mux_state = [0.0] * n
        self._mux_count = [0] * n

    @staticmethod
    def none() -> "SkewModel":
        """An ideal network: no skew at all."""
        return SkewModel()

    @staticmethod
    def aurora_like(amplitude_us: float = 6.0,
                    seed: int = 0x0522) -> "SkewModel":
        """Mux-induced skew only (causes 1 and 3 absent, as in AURORA
        after single-fiber multiplexing)."""
        return SkewModel(mux_amplitude_us=amplitude_us, seed=seed)

    @staticmethod
    def severe(offset_step_us: float = 3.0, jitter_us: float = 10.0,
               seed: int = 0x0522) -> "SkewModel":
        """All three causes active -- a hostile wide-area path."""
        offsets = tuple(i * offset_step_us for i in range(STRIPE_LINKS))
        return SkewModel(fixed_offsets_us=offsets,
                         mux_amplitude_us=jitter_us / 2.0,
                         switch_jitter_us=jitter_us, seed=seed)

    def clone(self, seed_offset: int = 0) -> "SkewModel":
        """A fresh :class:`SkewModel` with the same parameters but its
        own RNG streams, offset by ``seed_offset``.

        Every link in a fabric needs statistically identical but
        independent skew; cloning with distinct offsets keeps the
        per-link streams uncorrelated and the whole run deterministic.
        """
        return SkewModel(fixed_offsets_us=self.fixed_offsets_us,
                         mux_amplitude_us=self.mux_amplitude_us,
                         mux_period_cells=self.mux_period_cells,
                         switch_jitter_us=self.switch_jitter_us,
                         seed=self.seed + seed_offset)

    def delay_fn(self, link_id: int) -> Callable[[], float]:
        """Per-cell extra queueing delay callable for one link."""

        def sample() -> float:
            extra = self.fixed_offsets_us[link_id]
            if self.mux_amplitude_us > 0.0:
                count = self._mux_count[link_id]
                if count % self.mux_period_cells == 0:
                    self._mux_state[link_id] = \
                        self._rngs[link_id].uniform(0.0,
                                                    self.mux_amplitude_us)
                self._mux_count[link_id] = count + 1
                extra += self._mux_state[link_id]
            if self.switch_jitter_us > 0.0:
                extra += self._rngs[link_id].expovariate(
                    1.0 / self.switch_jitter_us)
            return extra

        return sample

    @property
    def introduces_skew(self) -> bool:
        return (any(self.fixed_offsets_us)
                or self.mux_amplitude_us > 0.0
                or self.switch_jitter_us > 0.0)


class StripedLink:
    """Four cell pipes behind a per-PDU round-robin striper."""

    def __init__(self, sim: Simulator, deliver: Optional[DeliverFn],
                 skew: Optional[SkewModel] = None,
                 n_links: int = STRIPE_LINKS,
                 rate_mbps: float = OC3_MBPS,
                 prop_delay_us: float = 5.0,
                 name: str = "stripe"):
        self.sim = sim
        self.skew = skew or SkewModel.none()
        self.n_links = n_links
        self.name = name
        # A skew-free model's sampler always returns 0.0 and draws no
        # randomness; passing None lets the pipes skip the call on
        # their per-cell hot path.
        skewed = self.skew.introduces_skew
        self.pipes = [
            CellPipe(sim, i, deliver, rate_mbps=rate_mbps,
                     prop_delay_us=prop_delay_us,
                     queueing_delay=(self.skew.delay_fn(i) if skewed
                                     else None),
                     name=f"{name}.l{i}")
            for i in range(n_links)
        ]
        self._next_link = 0
        self.cells_sent = 0
        self.pdus_sent = 0
        self._dead_lanes: set[int] = set()
        self._alive_lanes: list[int] = list(range(n_links))
        self._respread_rr = 0

    def degrade(self, lane: int) -> None:
        """Remove a dead lane from the striping group.

        Subsequent cells are re-spread across the surviving lanes.  The
        re-spread breaks the ``i mod 4`` reassembly invariant, so the
        cells are un-stamped (``tx_index = -1``): receivers must place
        them by sequence number, which is exactly what the paper's
        sequence-number skew strategy provides.
        """
        if not 0 <= lane < self.n_links:
            raise ValueError(f"lane {lane} out of range")
        self._dead_lanes.add(lane)
        self._alive_lanes = [i for i in range(self.n_links)
                             if i not in self._dead_lanes]

    @property
    def degraded(self) -> bool:
        return bool(self._dead_lanes)

    def start_pdu(self) -> None:
        """Reset the striper so the next cell rides link 0."""
        self._next_link = 0
        self.pdus_sent += 1

    def submit(self, cell: Cell) -> None:
        """Send one cell on its stripe.

        Cells stamped with their PDU-local ``tx_index`` ride link
        ``tx_index mod n`` -- this keeps the reassembly invariant even
        when the transmit processor interleaves several PDUs at cell
        granularity.  Unstamped cells fall back to plain round-robin
        from the last :meth:`start_pdu`.
        """
        if cell.tx_index >= 0:
            link_id = cell.tx_index % self.n_links
        else:
            link_id = self._next_link
            self._next_link = (self._next_link + 1) % self.n_links
        if self._dead_lanes and self._alive_lanes:
            # Degraded group: re-spread round-robin over the survivors
            # so every alive lane carries an equal share (a modulo
            # remap would double-load some lanes, and the resulting
            # queue skew grows without bound).  Un-stamp the cell --
            # its lane is no longer derivable from tx_index, so
            # downstream width guards must not be applied to it.
            link_id = self._alive_lanes[
                self._respread_rr % len(self._alive_lanes)]
            self._respread_rr += 1
            cell.tx_index = -1
        self.cells_sent += 1
        self.pipes[link_id].submit(cell)

    @property
    def aggregate_payload_mbps(self) -> float:
        from ..hw.specs import AAL_PAYLOAD_BYTES, ATM_CELL_BYTES
        line = self.n_links * self.pipes[0].rate_mbps
        return line * AAL_PAYLOAD_BYTES / ATM_CELL_BYTES


__all__ = ["SkewModel", "StripedLink"]
