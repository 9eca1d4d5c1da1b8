"""Unit tests for the Ethernet port and ToR switch models."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.ethernet import ETHERNET_OVERHEAD_BYTES, MIN_FRAME_BYTES, EthernetPort
from repro.hw.switch import ShardBoundary, ToRSwitch, UnknownDestinationError
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


# -------------------------------------------------------------- Ethernet


def test_frame_bytes_min_size():
    port = EthernetPort(Simulator(), CAL)
    assert port.frame_bytes(1) == MIN_FRAME_BYTES + ETHERNET_OVERHEAD_BYTES
    assert port.frame_bytes(64) == 64 + ETHERNET_OVERHEAD_BYTES
    assert port.frame_bytes(1500) == 1500 + ETHERNET_OVERHEAD_BYTES


def test_serialization_time_scales():
    port = EthernetPort(Simulator(), CAL)
    assert port.serialization_ns(64) < port.serialization_ns(1500)
    # 100 GbE: a minimum frame serializes in a handful of ns.
    assert port.serialization_ns(64) <= 10


def test_transmit_occupies_port_serially():
    sim = Simulator()
    port = EthernetPort(sim, CAL)
    finishes = []

    def sender():
        yield from port.transmit(1500)
        finishes.append(sim.now)

    sim.spawn(sender())
    sim.spawn(sender())
    sim.run()
    assert finishes[1] == 2 * finishes[0]
    assert port.frames == 2
    assert port.bytes == 2 * port.frame_bytes(1500)


def test_transmit_rejects_negative():
    sim = Simulator()
    port = EthernetPort(sim, CAL)

    def sender():
        yield from port.transmit(-1)

    with pytest.raises(ValueError):
        sim.run_until_done(sim.spawn(sender()))


# ------------------------------------------------------------------ Switch


def test_switch_delivers_after_delay():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL, loopback=False)
    received = []
    switch.register("dst", lambda pkt: received.append((pkt, sim.now)))
    switch.send("dst", "hello")
    sim.run()
    assert received == [("hello", CAL.tor_delay_ns)]


def test_switch_loopback_delay():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL, loopback=True)
    assert switch.delay_ns == CAL.loopback_delay_ns


def test_switch_explicit_delay_wins():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL, loopback=True, delay_ns=5)
    assert switch.delay_ns == 5


def test_switch_unknown_destination():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL)
    with pytest.raises(UnknownDestinationError):
        switch.send("nowhere", "pkt")


def test_switch_duplicate_registration():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL)
    switch.register("a", lambda pkt: None)
    with pytest.raises(ValueError):
        switch.register("a", lambda pkt: None)


def test_switch_counts_and_addresses():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL)
    switch.register("b", lambda pkt: None)
    switch.register("a", lambda pkt: None)
    switch.send("a", 1)
    switch.send("b", 2)
    sim.run()
    assert switch.packets_forwarded == 2
    assert switch.addresses() == ["a", "b"]


# ------------------------------------------------------- Fault-path schedule


class _StubFaults:
    """Chaos stand-in returning a fixed delivery verdict per crossing."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def on_wire(self, dst_address, packet):
        return self.verdicts.pop(0)


def test_switch_fault_and_fast_paths_share_delay():
    # Both paths schedule through call_after: a fault verdict with zero
    # extra delay must land at exactly the same time as the perfect wire.
    sim = Simulator()
    switch = ToRSwitch(sim, CAL)
    received = []
    switch.register("dst", lambda pkt: received.append((pkt, sim.now)))
    switch.wire_faults = _StubFaults([[("faulted", 0)], [("delayed", 7)]])
    switch.send("dst", "faulted")
    switch.send("dst", "delayed")
    switch.wire_faults = None
    switch.send("dst", "clean")
    sim.run()
    assert sorted(received) == [
        ("clean", CAL.tor_delay_ns),
        ("delayed", CAL.tor_delay_ns + 7),
        ("faulted", CAL.tor_delay_ns),
    ]
    assert switch.packets_forwarded == 3
    assert switch.packets_dropped == 0


def test_switch_fault_loss_accounting():
    sim = Simulator()
    switch = ToRSwitch(sim, CAL)
    received = []
    switch.register("dst", received.append)
    switch.wire_faults = _StubFaults([[], [("dup", 0), ("dup", 3)]])
    switch.send("dst", "lost")
    switch.send("dst", "dup")
    sim.run()
    assert received == ["dup", "dup"]
    assert switch.packets_forwarded == 2
    assert switch.packets_dropped == 1


# ----------------------------------------------------------- ShardBoundary


def test_boundary_local_delivery_uses_switch_path():
    sim = Simulator()
    boundary = ShardBoundary(sim, CAL, host_id=3)
    received = []
    boundary.register("local", lambda pkt: received.append((pkt, sim.now)))
    boundary.send("local", "pkt")
    sim.run()
    assert received == [("pkt", CAL.tor_delay_ns)]
    assert boundary.drain_egress() == []


def test_boundary_captures_remote_egress():
    sim = Simulator()
    boundary = ShardBoundary(sim, CAL, host_id=1, delay_ns=300)
    boundary.register("local", lambda pkt: None)
    boundary.set_remote_addresses(["local", "far", "farther"])
    boundary.send("far", "a")
    boundary.send("farther", "b")
    assert boundary.packets_forwarded == 2
    egress = boundary.drain_egress()
    # (arrival = now + delay, src host, monotonically increasing seq).
    assert egress == [(300, 1, 0, "far", "a"), (300, 1, 1, "farther", "b")]
    assert boundary.drain_egress() == []  # drain clears


def test_boundary_remote_set_excludes_local_table():
    sim = Simulator()
    boundary = ShardBoundary(sim, CAL)
    boundary.register("local", lambda pkt: None)
    boundary.set_remote_addresses(["local", "far"])
    received = []
    boundary._table["local"] = received.append
    boundary.send("local", "pkt")  # local wins, never captured
    sim.run()
    assert received == ["pkt"]
    assert boundary.drain_egress() == []


def test_boundary_unknown_destination():
    sim = Simulator()
    boundary = ShardBoundary(sim, CAL)
    boundary.set_remote_addresses(["far"])
    with pytest.raises(UnknownDestinationError):
        boundary.send("nowhere", "pkt")


def test_boundary_deliver_is_immediate():
    sim = Simulator()
    boundary = ShardBoundary(sim, CAL)
    received = []
    boundary.register("local", lambda pkt: received.append((pkt, sim.now)))
    boundary.deliver("local", "injected")
    assert received == [("injected", 0)]
