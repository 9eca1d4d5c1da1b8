"""Unit tests for multi-NIC virtualization on one FPGA (Fig 14)."""

import pytest

from repro.hw.nic.config import NicHardConfig
from repro.hw.nic.virtualization import VirtualizedFpga
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim import Simulator


def make_vfpga():
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, machine.calibration, loopback=True)
    return sim, machine, VirtualizedFpga(machine, switch)


def test_instantiates_eight_nics():
    _, machine, vfpga = make_vfpga()
    for i in range(8):
        vfpga.add_nic(f"tier{i}", hard=NicHardConfig(num_flows=2))
    assert len(vfpga) == 8
    assert len(machine.fpga.nics) == 8


def test_duplicate_address_rejected():
    _, _, vfpga = make_vfpga()
    vfpga.add_nic("a")
    with pytest.raises(ValueError):
        vfpga.add_nic("a")


def test_capacity_limit_enforced():
    _, _, vfpga = make_vfpga()
    huge = NicHardConfig(num_flows=512, connection_cache_entries=65_536)
    vfpga.add_nic("big0", hard=huge)
    with pytest.raises(ValueError, match="utilization"):
        for i in range(8):
            vfpga.add_nic(f"big{i + 1}", hard=huge)


def test_instances_share_endpoints():
    _, machine, vfpga = make_vfpga()
    a = vfpga.add_nic("a")
    b = vfpga.add_nic("b")
    assert a.interface.endpoint is b.interface.endpoint
    assert a.interface.endpoint is machine.fpga.upi_endpoint


def test_tenant_defaults_to_address_and_can_group():
    _, _, vfpga = make_vfpga()
    vfpga.add_nic("a")
    vfpga.add_nic("t0-c", tenant="t0")
    vfpga.add_nic("t0-s", tenant="t0")
    assert vfpga.tenant_names() == ["a", "t0"]
    assert [n.address for n in vfpga.tenant_nics("t0")] == ["t0-c", "t0-s"]
    assert [n.address for n in vfpga.tenant_nics("a")] == ["a"]


def test_timeline_probes_yield_one_namespace_per_tenant():
    _, _, vfpga = make_vfpga()
    vfpga.add_nic("t0-c", tenant="t0")
    vfpga.add_nic("t0-s", tenant="t0")
    vfpga.add_nic("t1-c", tenant="t1")
    probes = vfpga.timeline_probes()
    assert all(len(entry) == 4 for entry in probes)
    by_tenant = {}
    for tenant, name, mode, fn in probes:
        by_tenant.setdefault(tenant, []).append(name)
        assert mode in ("gauge", "counter")
        assert fn() == 0  # idle rig: every probe reads zero
    assert set(by_tenant) == {"t0", "t1"}
    for names in by_tenant.values():
        assert {"fetch_busy_ns", "sched_busy_ns", "pipeline_busy_ns",
                "eth_busy_ns"} <= set(names)


def test_probes_attribute_traffic_to_the_right_tenant():
    sim, _, vfpga = make_vfpga()
    a = vfpga.add_nic("a", hard=NicHardConfig(num_flows=1), tenant="busy")
    b = vfpga.add_nic("b", hard=NicHardConfig(num_flows=1), tenant="idle")
    vfpga.enable_usage()
    probes = {(tenant, name): fn
              for tenant, name, _, fn in vfpga.timeline_probes()}
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")

    def proc():
        yield from a.send_from_host(
            0, RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
        )

    sim.spawn(proc())
    sim.run()
    assert probes[("busy", "fetch_busy_ns")]() > 0
    assert probes[("busy", "tx_rpcs")]() == 1
    # The idle tenant's fetch FSM never ran: its integral must stay zero.
    assert probes[("idle", "fetch_busy_ns")]() == 0
    assert probes[("idle", "tx_rpcs")]() == 0
    assert probes[("idle", "delivered_rpcs")]() == 1  # it received, only


def test_cross_nic_traffic_through_switch():
    sim, _, vfpga = make_vfpga()
    a = vfpga.add_nic("a", hard=NicHardConfig(num_flows=1))
    b = vfpga.add_nic("b", hard=NicHardConfig(num_flows=1))
    a.open_connection(1, 0, "b")
    b.open_connection(1, 0, "a")

    def proc():
        yield from a.send_from_host(
            0, RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
        )

    sim.spawn(proc())
    sim.run()
    assert b.monitor.delivered_rpcs == 1
    # Fetch at a + delivery at b.
    assert a.interface.lines_transferred + b.interface.lines_transferred >= 2
