"""The NIC's hand-inlined copies agree with their canonical versions.

The egress sequencer runs inlined copies of ``EthernetPort.transmit`` and
of the hit path of ``ConnectionManager.lookup``; ``_ingress_steer`` runs
the same hit path. Nothing in ``src/`` calls the canonical versions, so a
drift between a copy and its original would show only as a moved digest.
Each case sends one packet through the inlined copy and compares it with
the same stages run through the canonical generators on a fresh simulator.
"""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.interconnect.ccip import make_interface
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.obs.trace import SpanTracer, attach_tracer
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION
CONNECTION = 1


def build_nic(miss):
    """A NIC with one open connection; ``miss`` empties its cache."""
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL)
    switch.register("b", lambda packet: None)
    nic = DaggerNic(sim, CAL, make_interface("upi", sim, CAL, machine.fpga),
                    switch, "a")
    nic.open_connection(CONNECTION, 0, "b")
    if miss:
        nic.connection_manager.cache.flush()
    return sim, nic


def request():
    return RpcPacket(RpcKind.REQUEST, CONNECTION, "echo", b"", 64,
                     src_address="a")


def cache_counts(nic):
    cache = nic.connection_manager.cache
    return cache.hits, cache.misses


@pytest.mark.parametrize("miss", [False, True], ids=["hit", "miss"])
def test_egress_sequencer_matches_lookup_and_transmit(miss):
    sim, nic = build_nic(miss)
    tracer = SpanTracer()
    attach_tracer(tracer, (nic,))
    packet = request()
    nic.enqueue_egress(0, packet)
    sim.run()
    inlined = (tracer.span(packet.rpc_id).events["req_wire_tx"],
               nic.eth.frames, nic.eth.bytes, cache_counts(nic))
    assert nic.monitor.connection_misses == int(miss)

    sim, nic = build_nic(miss)
    packet = request()

    def canonical():
        # The sequencer's stages, with the canonical lookup and transmit.
        yield nic._cycle_ns
        yield nic._rpc_unit_ns
        yield from nic.connection_manager.lookup(packet.connection_id)
        yield nic._transport_ns
        yield from nic.eth.transmit(packet.wire_bytes)
        return sim.now

    wire_ns = sim.run_until_done(sim.spawn(canonical()))
    assert inlined == (wire_ns, nic.eth.frames, nic.eth.bytes,
                       cache_counts(nic))


def test_ingress_steer_hit_path_matches_lookup():
    sim, nic = build_nic(miss=False)
    steered = []
    nic.tx_path.enqueue = lambda packet, flow_id: steered.append(sim.now)
    sim.run_until_done(sim.spawn(nic._ingress_steer(request())))
    inlined = (steered, cache_counts(nic))

    sim, nic = build_nic(miss=False)

    def canonical():
        # The steering stages, with the canonical lookup.
        yield nic._rpc_unit_ns
        yield from nic.connection_manager.lookup(CONNECTION)
        yield nic._lb_ns
        return sim.now

    steer_ns = sim.run_until_done(sim.spawn(canonical()))
    assert inlined == ([steer_ns], cache_counts(nic))
