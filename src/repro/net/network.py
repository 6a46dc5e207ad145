"""Two hosts back-to-back -- the paper's measurement topology.

'Round-trip latencies achieved between a pair of workstations
connected by a pair of OSIRIS boards linked back-to-back' (section 4).
Each direction is an independent four-way striped link.

:class:`BackToBack` is the two-host, switchless special case of
:class:`repro.cluster.Fabric`; anything larger (N hosts, cell
switches, routed VCIs) lives in :mod:`repro.cluster`.
"""

from __future__ import annotations

from typing import Optional

from ..atm.aal5 import SegmentMode
from ..atm.striping import SkewModel
from ..cluster.fabric import DEFAULT_PROP_DELAY_US, Fabric
from ..hw.specs import MachineSpec


class BackToBack(Fabric):
    """Two hosts joined by striped links in both directions."""

    def __init__(self, machine_a: MachineSpec,
                 machine_b: Optional[MachineSpec] = None,
                 skew: Optional[SkewModel] = None,
                 segment_mode: SegmentMode = SegmentMode.IN_ORDER,
                 prop_delay_us: float = DEFAULT_PROP_DELAY_US,
                 **host_kw):
        # The reverse link gets a cloned skew model (seed offset 1) so
        # the two directions' per-link RNG streams stay independent.
        super().__init__([machine_a, machine_b or machine_a],
                         topology="direct", skew=skew,
                         segment_mode=segment_mode,
                         prop_delay_us=prop_delay_us, names=("a", "b"),
                         **host_kw)
        self.a, self.b = self.hosts
        self.link_ab, self.link_ba = self.uplinks

    def open_udp_pair(self, vci: int = 300, port_a: int = 1000,
                      port_b: int = 2000, echo_b: bool = True, **kw):
        """Matching UDP test programs on both hosts, same VCI."""
        app_a, _ = self.a.open_udp_path(port_a, port_b, vci=vci, **kw)
        app_b, _ = self.b.open_udp_path(port_b, port_a, vci=vci,
                                        echo=echo_b, **kw)
        return app_a, app_b

    def open_raw_pair(self, vci: int = 300, echo_b: bool = True, **kw):
        """Matching raw-ATM test programs on both hosts."""
        app_a, _ = self.a.open_raw_path(vci=vci, **kw)
        app_b, _ = self.b.open_raw_path(vci=vci, echo=echo_b, **kw)
        return app_a, app_b


__all__ = ["BackToBack"]
