"""Fabric tests: wiring, VCI routing, clone helper, conservation."""

import pytest

from repro.atm import SkewModel
from repro.cluster import FIRST_FLOW_VCI, Fabric, VciAllocator, collect
from repro.hw import DS5000_200
from repro.net import BackToBack
from repro.sim import SimulationError, spawn


def test_flow_routed_and_rewritten_through_switch():
    """Client and server each keep their own VCI; the switch rewrites
    in both directions, and an echo completes the round trip."""
    fab = Fabric(DS5000_200, 4)
    app_s, app_d, flow = fab.open_raw_flow(1, 0, echo_dst=True,
                                           keep_data=True)
    assert flow.src_vci != flow.dst_vci
    payload = b"across the fabric " * 30

    def go():
        yield from app_s.send_message(payload)

    spawn(fab.sim, go(), "g")
    fab.sim.run()
    assert app_d.receptions[0].data == payload
    assert len(app_s.receptions) == 1  # the echo came back
    assert fab.switches[0].cells_switched > 0
    assert fab.switches[0].cells_dropped == 0


def test_flow_crosses_two_switches():
    """Hosts land round-robin on switches, so 0->1 is inter-switch;
    the first hop keeps the VCI, the last hop rewrites."""
    fab = Fabric(DS5000_200, 4, n_switches=2)
    app_s, app_d, _ = fab.open_raw_flow(0, 1, keep_data=True)
    payload = b"two hops " * 40

    def go():
        yield from app_s.send_message(payload)

    spawn(fab.sim, go(), "g")
    fab.sim.run()
    assert app_d.receptions[0].data == payload
    assert fab.switches[0].cells_switched > 0
    assert fab.switches[1].cells_switched > 0
    conservation = collect(fab).conservation
    assert conservation["holds"]
    assert conservation["delivered"] == conservation["injected"]


def test_same_switch_flow_with_two_switches():
    """0 and 2 both sit on switch 0: single-hop route."""
    fab = Fabric(DS5000_200, 4, n_switches=2)
    app_s, app_d, _ = fab.open_raw_flow(0, 2, keep_data=True)

    def go():
        yield from app_s.send_message(b"one hop " * 25)

    spawn(fab.sim, go(), "g")
    fab.sim.run()
    assert app_d.receptions[0].data == b"one hop " * 25
    assert fab.switches[1].cells_switched == 0


def test_udp_flow_over_fabric():
    fab = Fabric(DS5000_200, 3)
    app_s, app_d, _ = fab.open_udp_flow(2, 0, keep_data=True)
    data = b"udp over the switch" * 100

    def go():
        yield from app_s.send_message(data)

    spawn(fab.sim, go(), "g")
    fab.sim.run()
    assert app_d.receptions[0].data == data


def test_vci_allocator_unique_and_bounded():
    alloc = VciAllocator(first=10, last=12)
    assert [alloc.alloc() for _ in range(3)] == [10, 11, 12]
    with pytest.raises(SimulationError):
        alloc.alloc()


def test_flow_vcis_fabric_unique():
    fab = Fabric(DS5000_200, 4)
    flows = [fab.open_flow(i, j)
             for i in range(4) for j in range(4) if i != j]
    vcis = [v for f in flows for v in (f.src_vci, f.dst_vci)]
    assert len(set(vcis)) == len(vcis)
    assert min(vcis) == FIRST_FLOW_VCI


def test_bad_flow_endpoints_rejected():
    fab = Fabric(DS5000_200, 2)
    with pytest.raises(SimulationError):
        fab.open_flow(0, 0)
    with pytest.raises(SimulationError):
        fab.open_flow(0, 5)


def _switched_incast():
    fab = Fabric(DS5000_200, 4)
    return fab, [fab.open_raw_flow(i, 0)[0] for i in range(1, 4)]


def _back_to_back():
    net = BackToBack(DS5000_200)
    app_a, _app_b = net.open_raw_pair(echo_b=False)
    return net, [app_a]


@pytest.mark.parametrize("build", [_switched_incast, _back_to_back],
                         ids=("switched", "direct"))
def test_conservation_mid_run_counts_queued_cells(build):
    """The invariant must hold while cells are still in flight, with
    the queued term measured from link/switch counters -- on the
    direct wiring too, where a cell leaving the link has arrived."""
    fab, apps = build()

    def sender(app):
        def go():
            for _ in range(4):
                yield from app.send_message(b"\x5A" * 8192)
        return go

    for k, app in enumerate(apps):
        spawn(fab.sim, sender(app)(), f"s{k}")
    fab.sim.run_until(400.0)
    conservation = collect(fab).conservation
    assert conservation["injected"] > 0
    assert conservation["queued"] > 0
    assert conservation["holds"]
    # Run to quiescence: everything must land somewhere final.
    fab.sim.run()
    conservation = collect(fab).conservation
    assert conservation["holds"]
    assert conservation["queued"] == 0


def test_backtoback_is_direct_fabric_special_case():
    net = BackToBack(DS5000_200)
    assert isinstance(net, Fabric)
    assert net.topology == "direct"
    assert net.switches == []
    app_a, app_b = net.open_raw_pair(echo_b=False)

    def go():
        yield from app_a.send_length(4096)

    spawn(net.sim, go(), "g")
    net.sim.run()
    assert len(app_b.receptions) == 1
    conservation = collect(net).conservation
    assert conservation["holds"]
    assert conservation["delivered"] == conservation["injected"]
    assert conservation["dropped"] == 0


@pytest.mark.parametrize("n_hosts", [0, -1, 1])
def test_fewer_than_two_hosts_rejected_naming_the_count(n_hosts):
    with pytest.raises(SimulationError,
                       match=rf"at least two hosts \(n_hosts={n_hosts}\)"):
        Fabric(DS5000_200, n_hosts)


def test_direct_topology_needs_exactly_two_hosts():
    with pytest.raises(SimulationError):
        Fabric(DS5000_200, 3, topology="direct")


def test_skew_clone_reproduces_hand_copied_model():
    """clone(seed_offset=1) is exactly the old hand-copied reverse-link
    construction of BackToBack."""
    base = SkewModel.severe(seed=0x1234)
    hand = SkewModel(fixed_offsets_us=base.fixed_offsets_us,
                     mux_amplitude_us=base.mux_amplitude_us,
                     mux_period_cells=base.mux_period_cells,
                     switch_jitter_us=base.switch_jitter_us,
                     seed=base.seed + 1)
    cloned = SkewModel.severe(seed=0x1234).clone(1)
    for link in range(4):
        hand_fn, clone_fn = hand.delay_fn(link), cloned.delay_fn(link)
        assert [hand_fn() for _ in range(64)] == \
               [clone_fn() for _ in range(64)]


def test_skew_clone_zero_offset_has_independent_state():
    base = SkewModel.severe()
    clone = base.clone(0)
    fn = base.delay_fn(0)
    samples_before = [fn() for _ in range(8)]
    # Drawing from the original must not perturb the clone's stream.
    clone_fn = clone.delay_fn(0)
    assert [clone_fn() for _ in range(8)] == samples_before
