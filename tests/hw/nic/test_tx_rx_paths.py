"""Unit tests for the TX-path request table and NIC-level data paths."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.interconnect.ccip import make_interface
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.nic.tx_path import RequestTable
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.obs.trace import SpanTracer, attach_tracer
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


# ----------------------------------------------------------- RequestTable


def test_request_table_acquire_release_cycle():
    table = RequestTable(Simulator(), 2)
    pkt = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    slot = table.acquire(pkt)
    assert slot is not None
    assert table.occupancy == 1
    assert table.read_and_release(slot) is pkt
    assert table.occupancy == 0


def test_request_table_exhaustion():
    table = RequestTable(Simulator(), 2)
    pkt = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    slots = [table.acquire(pkt), table.acquire(pkt)]
    assert None not in slots
    assert table.acquire(pkt) is None  # full
    table.read_and_release(slots[0])
    assert table.acquire(pkt) is not None


def test_request_table_bad_size():
    with pytest.raises(ValueError):
        RequestTable(Simulator(), 0)


# ------------------------------------------------------- NIC-level paths


def build_pair(batch=1, auto=False, num_flows=1, flow_fifo_entries=64,
               rx_ring_entries=128):
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    nics = []
    for name in ("a", "b"):
        hard = NicHardConfig(num_flows=num_flows,
                             flow_fifo_entries=flow_fifo_entries,
                             rx_ring_entries=rx_ring_entries)
        soft = NicSoftConfig(batch_size=batch, auto_batch=auto)
        interface = make_interface("upi", sim, CAL, machine.fpga)
        nics.append(DaggerNic(sim, CAL, interface, switch, name,
                              hard=hard, soft=soft))
    return sim, nics[0], nics[1]


def send(sim, nic, packet, flow=0):
    def proc():
        yield from nic.send_from_host(flow, packet)

    sim.spawn(proc())


def test_request_travels_a_to_b():
    sim, a, b = build_pair()
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"hi", 48)
    send(sim, a, packet)
    sim.run()
    assert len(b.rx_ring(0)) == 1
    delivered = b.rx_ring(0).try_get()
    assert delivered is packet
    assert delivered.src_address == "a"
    assert delivered.dst_address == "b"
    assert a.monitor.tx_rpcs == 1
    assert b.monitor.rx_rpcs == 1
    assert b.monitor.delivered_rpcs == 1


def test_packet_timestamps_in_order():
    sim, a, b = build_pair()
    tracer = SpanTracer()
    attach_tracer(tracer, (a, b))
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, packet)
    sim.run()
    stamps = tracer.span(packet.rpc_id).events
    assert (stamps["req_sw_tx"] <= stamps["req_nic_fetched"]
            <= stamps["req_wire_tx"] <= stamps["req_nic_rx"]
            <= stamps["req_host_delivered"])


def test_response_steered_to_request_flow():
    sim, a, b = build_pair(num_flows=2)
    a.open_connection(1, 1, "b")
    b.open_connection(1, 0, "a")
    request = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, request, flow=1)
    sim.run()
    arrived = b.rx_ring(0).try_get() or b.rx_ring(1).try_get()
    response = arrived.make_response(b"", 48)
    send(sim, b, response)
    sim.run()
    # The response lands on flow 1, where the request originated.
    assert len(a.rx_ring(1)) == 1
    assert len(a.rx_ring(0)) == 0


def test_fixed_batch_waits_then_times_out():
    sim, a, b = build_pair(batch=4)
    tracer = SpanTracer()
    attach_tracer(tracer, (a,))
    a.soft.batch_timeout_ns = 2000
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, packet)
    sim.run()
    # Sent alone after the batch timeout, not stuck forever.
    assert b.monitor.delivered_rpcs == 1
    assert tracer.span(packet.rpc_id).events["req_nic_fetched"] >= 2000


def test_auto_batch_takes_whats_available():
    sim, a, b = build_pair(batch=4, auto=True)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    for _ in range(3):
        send(sim, a, RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64))
    sim.run()
    assert b.monitor.delivered_rpcs == 3
    # No batch waited for a fourth member.
    assert a.monitor.batches >= 1


def test_rx_ring_overflow_drops():
    sim, a, b = build_pair(rx_ring_entries=2)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    for _ in range(8):
        send(sim, a, RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64))
    sim.run()  # nobody drains b's rx ring
    assert b.monitor.dropped_rx_ring == 6
    assert b.monitor.delivered_rpcs == 2
    assert b.monitor.drop_rate > 0


def test_multi_line_rpc_consumes_more_lines():
    sim, a, b = build_pair()
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    big = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 600)  # ~10 lines
    send(sim, a, big)
    sim.run()
    assert a.interface.lines_transferred >= 10


def test_send_to_invalid_flow_rejected():
    sim, a, _ = build_pair()

    def proc():
        yield from a.send_from_host(5, RpcPacket(RpcKind.REQUEST, 1, "m",
                                                 b"", 64))

    with pytest.raises(ValueError):
        sim.run_until_done(sim.spawn(proc()))


def test_mmio_push_mode_skips_fetch_fsm():
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    hard = NicHardConfig(num_flows=1, interface="pcie-mmio")
    a = DaggerNic(sim, CAL, make_interface("pcie-mmio", sim, CAL,
                                           machine.fpga),
                  switch, "a", hard=hard)
    b = DaggerNic(sim, CAL, make_interface("pcie-mmio", sim, CAL,
                                           machine.fpga),
                  switch, "b", hard=hard)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    packet = RpcPacket(RpcKind.REQUEST, 1, "echo", b"", 64)
    send(sim, a, packet)
    sim.run()
    assert b.monitor.delivered_rpcs == 1
    # Push mode: the TX ring was never used.
    assert a.flow_rings[0].tx_occupancy == 0
