#!/usr/bin/env python3
"""Incast onto a kernel-bypass server: the fabric meets the ADC.

Eight hosts share one cell switch.  Host 0 runs an NFS-style server
that receives through an *application device channel* (section 3.2 of
the paper) -- the OS grants it VCIs and mapped buffers once, then
every client PDU lands in user space with no system call.  Hosts 1-7
all transmit to it at once: the classic incast fan-in, seven striped
uplinks converging on the four output ports of one switch trunk.

Two runs show the regimes:

* paced clients stay under what the *server board* can absorb --
  everything arrives, the kernel driver touches nothing;
* unpaced clients oversubscribe both bottlenecks: the switch trunk's
  256-cell ports shed cells, and whatever squeezes through still
  overruns the board's 64-cell receive FIFO, so reassembled PDUs fail
  their AAL5 trailer check.  The fabric's cell-conservation identity
  balances exactly either way.

Run:  python examples/cluster_incast.py
"""

from repro.adc import AdcChannelDriver, AdcManager
from repro.cluster import Fabric, collect
from repro.hw import DS5000_200
from repro.sim import Delay, spawn
from repro.xkernel.protocols.testproto import TestProgram

N_HOSTS = 8
MESSAGE_BYTES = 4096
MESSAGES_PER_CLIENT = 8


def build_incast(rate_mbps: float):
    """An 8-host fabric, clients 1..7 aimed at host 0's ADC."""
    fabric = Fabric(DS5000_200, N_HOSTS)
    server = fabric.hosts[0]

    # The OS grants the server one device channel with a VCI per
    # client; after this, the kernel is off the receive data path.
    manager = AdcManager(server.kernel, server.board)
    domain = server.kernel.create_domain("nfs-server")
    grant = manager.open(domain, priority=1, n_vcis=N_HOSTS - 1,
                         n_rx_buffers=32)
    adc = AdcChannelDriver(fabric.sim, server.kernel, server.board,
                           grant, server.driver)

    sinks = []
    for i in range(1, N_HOSTS):
        # Bind the flow's server end to the ADC's granted VCI.
        flow = fabric.open_flow(i, 0, dst_vci=grant.vcis[i - 1])
        session = adc.open_path(flow.dst_vci)
        sinks.append(TestProgram(server.test, session))
        app, _ = fabric.hosts[i].open_raw_path(vci=flow.src_vci)

        def client(app=app, index=i):
            # Stagger starts one cell-time apart so the unpaced run
            # is not a degenerate single burst.
            yield Delay(index * 2.7)
            interval = (MESSAGE_BYTES * 8.0 / rate_mbps
                        if rate_mbps > 0 else 0.0)
            for _ in range(MESSAGES_PER_CLIENT):
                if interval:
                    yield Delay(interval)
                yield from app.send_length(MESSAGE_BYTES)

        spawn(fabric.sim, client(), f"client-{i}")
    return fabric, server, sinks


def run(label: str, rate_mbps: float) -> None:
    fabric, server, sinks = build_incast(rate_mbps)
    fabric.sim.run()

    expected = (N_HOSTS - 1) * MESSAGES_PER_CLIENT
    received = sum(len(s.receptions) for s in sinks)
    conservation = collect(fabric).conservation
    switch = fabric.switches[0]
    deepest = max(p.max_queue_seen for p in switch.port_stats()
                  if p.trunk_id == 0)

    print(f"{label}:")
    print(f"  messages delivered        : {received}/{expected}")
    print(f"  server kernel-driver PDUs : {server.driver.pdus_received}"
          " (ADC bypassed the kernel)")
    print(f"  deepest server port queue : {deepest} cells "
          f"(cap {switch.port_queue_cells})")
    print(f"  server board FIFO drops   : {server.board.rx_fifo_drops}")
    print(f"  cells: injected {conservation['injected']} = "
          f"delivered {conservation['delivered']} + "
          f"queued {conservation['queued']} + "
          f"dropped {conservation['dropped']}  -> conservation "
          f"{'holds' if conservation['holds'] else 'VIOLATED'}")
    assert conservation["holds"]


def main() -> None:
    # 7 clients x 25 Mbps = 175 Mbps offered, inside what the server's
    # receive path sustains: the fan-in is absorbed, nothing drops.
    run("Paced incast (25 Mbps per client)", 25.0)
    print()
    # Unpaced, every client blasts at link rate: 7 uplinks into one
    # 4-port trunk, and far past the server board -- cells shed at the
    # switch, then at the on-board FIFO.
    run("Unpaced incast (clients at link rate)", 0.0)


if __name__ == "__main__":
    main()
