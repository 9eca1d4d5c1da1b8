"""Tests for credit-based flow control (§4.5 extension).

With credits capped at the receiver's ring capacity, ring overflow becomes
impossible: a slow consumer throttles the sender instead of causing drops.
"""

from types import SimpleNamespace

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.cluster import Cluster
from repro.hw.interconnect.ccip import make_interface
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.nic.resources import estimate_resources
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.obs.trace import SpanTracer, attach_tracer
from repro.rpc.congestion import CREDIT_METHOD, CreditFlowControl
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim import Simulator
from repro.stacks import DaggerStack, connect

CAL = DEFAULT_CALIBRATION


def build_pair(rx_entries=8, credits=8, drain_delay_ns=500):
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    hard = NicHardConfig(num_flows=1, rx_ring_entries=rx_entries,
                         flow_control=True, flow_control_credits=credits,
                         credit_batch=4)
    nics = []
    for name in ("a", "b"):
        interface = make_interface("upi", sim, CAL, machine.fpga)
        nics.append(DaggerNic(sim, CAL, interface, switch, name, hard=hard,
                              soft=NicSoftConfig()))
    a, b = nics
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    drained = []

    def drainer():
        while True:
            pkt = yield b.rx_ring(0).get()
            drained.append(pkt)
            yield sim.timeout(drain_delay_ns)

    sim.spawn(drainer())
    return sim, a, b, drained


def send_all(sim, nic, count):
    packets = [RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48)
               for _ in range(count)]

    def sender():
        for packet in packets:
            yield from nic.send_from_host(0, packet)

    sim.spawn(sender())
    return packets


def test_config_validation():
    with pytest.raises(ValueError, match="credit window"):
        NicHardConfig(flow_control=True, flow_control_credits=512,
                      rx_ring_entries=128)
    with pytest.raises(ValueError):
        NicHardConfig(credit_batch=0)


def test_engine_validation():
    sim, a, _, _ = build_pair()
    with pytest.raises(ValueError):
        CreditFlowControl(a, initial_credits=0, credit_batch=4)
    with pytest.raises(ValueError):
        CreditFlowControl(a, initial_credits=4, credit_batch=0)
    bogus = RpcPacket(RpcKind.CONTROL, 1, "__mystery__", 1, 16)
    with pytest.raises(ValueError, match="unknown control"):
        a.flow_control.on_control(bogus)


def test_no_drops_under_pressure():
    # 60 packets, 8-entry ring, slow consumer: without flow control this
    # overflows; with credits <= ring size it cannot.
    sim, a, b, drained = build_pair(rx_entries=8, credits=8)
    send_all(sim, a, 60)
    sim.run()
    assert b.monitor.drops == 0
    assert len(drained) == 60
    assert a.flow_control.stats.stalls > 0  # the sender actually throttled
    assert b.flow_control.stats.grants_sent > 0


def test_sender_tracks_consumer_rate():
    sim, a, b, drained = build_pair(rx_entries=8, credits=8,
                                    drain_delay_ns=2000)
    tracer = SpanTracer()
    attach_tracer(tracer, (b,))
    send_all(sim, a, 30)
    sim.run()
    assert len(drained) == 30
    # Delivery pace is set by the consumer (~2 us per packet), not the NIC.
    delivered = [tracer.span(pkt.rpc_id).events["req_host_delivered"]
                 for pkt in drained]
    spacing = [delivered[i + 1] - delivered[i] for i in range(10, 25)]
    assert sum(spacing) / len(spacing) > 1500


def test_credits_do_not_gate_control_packets():
    sim, a, b, drained = build_pair()
    send_all(sim, a, 40)
    sim.run()
    # CREDIT grants flowed even while data was parked.
    assert b.flow_control.stats.credits_granted >= 32
    assert all(p.kind is RpcKind.REQUEST for p in drained)


def test_without_flow_control_same_pressure_drops():
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    hard = NicHardConfig(num_flows=1, rx_ring_entries=8)
    a = DaggerNic(sim, CAL, make_interface("upi", sim, CAL, machine.fpga),
                  switch, "a", hard=hard)
    b = DaggerNic(sim, CAL, make_interface("upi", sim, CAL, machine.fpga),
                  switch, "b", hard=hard)
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")
    drained = []

    def drainer():
        while True:
            pkt = yield b.rx_ring(0).get()
            drained.append(pkt)
            yield sim.timeout(500)

    sim.spawn(drainer())
    send_all(sim, a, 60)
    sim.run()
    assert b.monitor.drops > 0
    assert len(drained) < 60


def test_flow_control_costs_fpga_area():
    base = estimate_resources(NicHardConfig())
    with_fc = estimate_resources(NicHardConfig(flow_control=True))
    assert with_fc.luts > base.luts
    assert with_fc.m20k_blocks > base.m20k_blocks


def test_available_credits_api():
    sim, a, _, _ = build_pair(credits=8)
    assert a.flow_control.available_credits(99) == 8  # fresh connection


def test_incast_watchdog_repairs_only_stalls_that_outlive_the_timeout():
    # 6-to-1 incast on 2 credits: senders stall constantly, but every stall
    # ends within the grant timeout because no grant is lost. A watchdog
    # that injects a token into whatever stall is current when its timer
    # expires overfills the 16-entry ring and drops packets.
    sim = Simulator()
    cluster = Cluster(sim, 7)
    hard = dict(num_flows=1, rx_ring_entries=16, flow_control=True,
                flow_control_credits=2, credit_batch=2)

    def stack(index, address):
        return DaggerStack(cluster.machine(index), cluster.switch, address,
                           hard=NicHardConfig(**hard),
                           soft=NicSoftConfig(batch_size=4, auto_batch=True))

    server = stack(0, "server")
    drained = []

    def drainer():
        ring = server.nic.rx_ring(0)
        while True:
            drained.append((yield ring.get()))
            yield sim.timeout(600)

    sim.spawn(drainer())
    clients = [stack(1 + index, f"c{index}") for index in range(6)]
    for client in clients:
        conn = connect(client, 0, server, 0)

        def burst(nic=client.nic, conn=conn):
            for _ in range(100):
                packet = RpcPacket(RpcKind.REQUEST, conn, "put", b"", 48)
                yield from nic.send_from_host(0, packet)

        sim.spawn(burst())
    sim.run()
    stats = [client.nic.flow_control.stats for client in clients]
    assert sum(s.stalls for s in stats) > 0
    assert server.nic.monitor.drops == 0
    assert len(drained) == 600
    assert sum(s.credit_repairs for s in stats) == 0


def test_watchdog_repairs_a_stall_parked_behind_another():
    # Two packets of one connection park on an empty bank. A grant frees
    # the first; the grant for the second is lost. Only the second stall
    # lasts the full timeout, so exactly one token is injected, for it.
    sim = Simulator()
    nic = SimpleNamespace(sim=sim, address="a",
                          enqueue_egress=lambda flow, packet: None)
    engine = CreditFlowControl(nic, initial_credits=1, credit_batch=1,
                               grant_timeout_ns=1000)
    sent = []

    def sender():
        packet = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48)
        if not engine.try_acquire(packet):
            yield from engine.acquire(packet)
        sent.append(sim.now)

    def grant():
        yield 100
        engine.on_control(RpcPacket(RpcKind.CONTROL, 1, CREDIT_METHOD, 1, 16))

    for _ in range(3):
        sim.spawn(sender())
    sim.spawn(grant())
    sim.run()
    assert sent == [0, 100, 1000]
    assert engine.stats.stalls == 2
    assert engine.stats.credit_repairs == 1
