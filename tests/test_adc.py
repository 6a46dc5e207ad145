"""Application device channel tests (section 3.2)."""

import dataclasses

from repro.adc import AdcChannelDriver, AdcManager, grants_overlap
from repro.atm.aal5 import Reassembler
from repro.hw import DS5000_200
from repro.net import Host
from repro.osiris import Descriptor, FLAG_END_OF_PDU
from repro.sim import Simulator, spawn
from repro.xkernel.protocols.testproto import TestProgram


def _host(machine=DS5000_200):
    sim = Simulator()
    host = Host(sim, machine, reserved_bytes=8 * 1024 * 1024)
    host.connect(link=None, deliver=lambda cell: None)
    return sim, host


def _loopback_host(deliver=None):
    """A host whose board's transmit feeds its own receive FIFO,
    through ``deliver(host, cell)`` when given."""
    sim = Simulator()
    host = Host(sim, DS5000_200, reserved_bytes=8 * 1024 * 1024)
    if deliver is None:
        host.connect(link=None, deliver=host.board.deliver_cell)
    else:
        host.connect(link=None, deliver=lambda cell: deliver(host, cell))
    return sim, host


def _adc(sim, host, **kw):
    manager = AdcManager(host.kernel, host.board)
    domain = host.kernel.create_domain("app")
    grant = manager.open(domain, **kw)
    driver = AdcChannelDriver(sim, host.kernel, host.board, grant,
                              host.driver)
    return manager, grant, driver


def test_open_assigns_channel_vcis_and_pages():
    sim, host = _host()
    manager, grant, driver = _adc(sim, host, n_vcis=2)
    assert grant.channel.channel_id == 1
    assert len(grant.vcis) == 2
    for vci in grant.vcis:
        assert host.board.vci_table[vci] == 1
    assert grant.channel.allowed_pages


def test_two_adcs_do_not_share_pages():
    sim, host = _host()
    manager = AdcManager(host.kernel, host.board)
    a = manager.open(host.kernel.create_domain("a"))
    b = manager.open(host.kernel.create_domain("b"))
    assert a.channel.channel_id != b.channel.channel_id
    assert not grants_overlap(a, b)


def test_close_releases_channel_and_vcis():
    sim, host = _host()
    manager, grant, driver = _adc(sim, host)
    vci = grant.vcis[0]
    manager.close(grant)
    assert vci not in host.board.vci_table
    assert not host.board.channels[1].open


def test_adc_send_bypasses_kernel_driver():
    sim, host = _host()
    manager, grant, driver = _adc(sim, host)
    session = driver.open_path()
    app = TestProgram(host.test, session)

    def go():
        msg = driver.new_message(b"direct to the wire" * 10)
        yield from session.send(msg)

    spawn(sim, go(), "app")
    sim.run()
    assert driver.pdus_sent == 1
    assert host.driver.pdus_sent == 0          # kernel driver idle
    assert grant.channel.pdus_sent == 1        # board saw it
    assert grant.domain.space.wired_pages() >= 1  # setup-time wiring only


def test_adc_loopback_roundtrip():
    """Loop the board's transmit onto its own receive FIFO: the app
    sends and receives entirely through its ADC."""
    sim = Simulator()
    host = Host(sim, DS5000_200, reserved_bytes=8 * 1024 * 1024)
    host.connect(link=None, deliver=host.board.deliver_cell)
    manager, grant, driver = _adc(sim, host)
    session = driver.open_path()
    app = TestProgram(host.test, session, keep_data=True)
    payload = b"kernel bypassed!" * 40

    def go():
        msg = driver.new_message(payload)
        yield from session.send(msg)

    spawn(sim, go(), "app")
    sim.run()
    assert driver.pdus_received == 1
    assert app.receptions[0].data == payload
    # The kernel fielded the interrupt but never touched the data path.
    assert host.kernel.interrupts_serviced >= 1
    assert host.driver.pdus_received == 0


def test_unauthorized_buffer_raises_violation():
    sim, host = _host()
    manager, grant, driver = _adc(sim, host)
    # The app forges a descriptor pointing at kernel memory.
    evil = Descriptor(addr=0x300000, length=100,
                      flags=FLAG_END_OF_PDU, vci=grant.vcis[0])
    grant.channel.tx_queue.push(evil, by_host=True)
    sim.run()
    assert driver.violations == 1
    assert grant.channel.pdus_sent == 0


def test_adc_priority_on_transmit():
    """A higher-priority ADC's queue is served first."""
    sim, host = _host()
    manager = AdcManager(host.kernel, host.board)
    fast = manager.open(host.kernel.create_domain("fast"), priority=0,
                        channel_id=1)
    slow = manager.open(host.kernel.create_domain("slow"), priority=5,
                        channel_id=2)
    order = []
    host.txp.deliver = lambda cell: order.append(cell.vci)
    for grant in (slow, fast):  # queue slow first
        addr = grant.tx_region_addr
        grant.channel.tx_queue.push(
            Descriptor(addr=addr, length=200, flags=FLAG_END_OF_PDU,
                       vci=grant.vcis[0]), by_host=True)
    sim.run()
    assert order[0] == fast.vcis[0]


def test_adc_latency_close_to_kernel_latency():
    """Section 4: ADC user-to-user results were 'within the error
    margins' of kernel-to-kernel.  Compare raw one-way delivery."""
    # Kernel path.
    simk = Simulator()
    hostk = Host(simk, DS5000_200, reserved_bytes=8 * 1024 * 1024)
    hostk.connect(link=None, deliver=hostk.board.deliver_cell)
    appk, pathk = hostk.open_raw_path()

    def send_kernel():
        yield from appk.send_length(1024)

    spawn(simk, send_kernel(), "k")
    simk.run()
    kernel_time = appk.receptions[0].time

    # ADC path.
    sima = Simulator()
    hosta = Host(sima, DS5000_200, reserved_bytes=8 * 1024 * 1024)
    hosta.connect(link=None, deliver=hosta.board.deliver_cell)
    manager, grant, driver = _adc(sima, hosta)
    session = driver.open_path()
    appa = TestProgram(hosta.test, session)

    def send_adc():
        msg = driver.new_message(b"\xA5" * 1024)
        yield from session.send(msg)

    spawn(sima, send_adc(), "a")
    sima.run()
    adc_time = appa.receptions[0].time

    # Within ~15% of each other (no domain crossing on either path;
    # the ADC saves the per-send wiring, the kernel path is otherwise
    # identical).
    assert adc_time < kernel_time
    assert abs(adc_time - kernel_time) / kernel_time < 0.15


def test_adc_burst_fills_the_transmit_queue_and_wraps_the_ring():
    """Sends that outrun the board fill the ADC's transmit queue (the
    driver spins until the board frees a slot) and wrap the transmit
    region; every PDU still reaches the board once, in order."""
    sim, host = _host()
    cells = []
    host.txp.deliver = cells.append
    manager, grant, driver = _adc(sim, host)
    session = driver.open_path()
    queue = grant.channel.tx_queue
    refused = []
    push = queue.push

    def spying_push(desc, by_host=None):
        ok = push(desc, by_host)
        if not ok:
            refused.append(desc)
        return ok

    queue.push = spying_push
    # 8 KB and up; the distinct lengths identify the PDUs on the wire.
    sizes = [8192 + i for i in range(100)]
    starts = []

    def go():
        for size in sizes:
            msg = driver.new_message(bytes(size))
            starts.append(msg.segments()[0][0])
            yield from session.send(msg)

    spawn(sim, go(), "app")
    sim.run()
    assert refused                                    # the queue filled
    assert starts.count(grant.tx_region_vaddr) > 1    # the ring wrapped
    reassembler = Reassembler(grant.vcis[0])
    pdus = [pdu for pdu in map(reassembler.push, cells) if pdu is not None]
    assert [len(pdu) for pdu in pdus] == sizes
    assert driver.pdus_sent == grant.channel.pdus_sent == len(sizes)


def test_pdu_on_an_unopened_vci_is_counted_and_its_buffer_recycled():
    sim, host = _loopback_host()
    manager, grant, driver = _adc(sim, host, n_vcis=2)
    session = driver.open_path(grant.vcis[0])
    app = TestProgram(host.test, session, keep_data=True)
    free = grant.channel.free_queue
    kernel_free = host.board.kernel_channel.free_queue
    stocked, kernel_stocked = free.pushes, kernel_free.pushes

    def stray():
        msg = driver.new_message(b"no path here" * 40)
        yield from driver.send_pdu(msg, grant.vcis[1])

    spawn(sim, stray(), "stray")
    sim.run()
    assert driver.rx_errors == 1
    assert driver.pdus_received == 0 and not app.receptions
    assert free.pushes == stocked      # held until the next receive

    def good():
        yield from session.send(driver.new_message(b"on the path" * 40))

    spawn(sim, good(), "good")
    sim.run()
    assert driver.pdus_received == 1
    assert app.receptions[0].data == b"on the path" * 40
    assert driver.rx_errors == 1
    # The stray PDU's buffer went back to the ADC, not to the kernel.
    assert free.pushes == stocked + 1
    assert free.peek(by_host=False).addr in grant.rx_buffers
    assert kernel_free.pushes == kernel_stocked


def test_errored_descriptor_is_counted_and_its_buffer_recycled():
    flipped = []

    def corrupt_first_cell(host, cell):
        if not flipped:
            flipped.append(cell)
            payload = bytes([cell.payload[0] ^ 0x01]) + cell.payload[1:]
            cell = dataclasses.replace(cell, payload=payload)
        host.board.deliver_cell(cell)

    sim, host = _loopback_host(corrupt_first_cell)
    manager, grant, driver = _adc(sim, host)
    session = driver.open_path()
    app = TestProgram(host.test, session, keep_data=True)
    free = grant.channel.free_queue
    stocked = free.pushes

    def send(data):
        yield from session.send(driver.new_message(data))

    spawn(sim, send(b"damaged" * 50), "bad")
    sim.run()
    assert flipped
    assert driver.rx_errors == 1
    assert driver.pdus_received == 0 and not app.receptions

    spawn(sim, send(b"intact" * 50), "good")
    sim.run()
    assert app.receptions[0].data == b"intact" * 50
    assert driver.rx_errors == 1
    assert free.pushes == stocked + 1
    assert free.peek(by_host=False).addr in grant.rx_buffers
