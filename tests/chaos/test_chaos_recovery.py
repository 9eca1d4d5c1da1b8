"""End-to-end recovery properties under seeded fault schedules.

The invariants the chaos harness exists to enforce, checked on a real
NIC pair over a faulty switch:

- **no crash**: every schedule runs to completion;
- **exactly-once at the host**: whatever the wire does (loss, bursts,
  reordering, duplication), each packet reaches the receiving host once;
- **no permanent stall**: the simulation terminates — recovery never
  livelocks;
- **exact accounting**: delivered + unrecoverable == sent.

Plus the measurement rig's own contract: ``run_chaos_point`` is
bit-identical across two runs of the same seed; and the fast-retransmit
contract: a fault-free run sends no NACK and no retransmission, and a
lossy run recovers in about one round trip instead of the RTO.
"""

import json
from types import SimpleNamespace

import pytest

from repro.chaos import ChaosConfig, ChaosInjector, WireFaults
from repro.chaos.rig import run_chaos_point
from repro.harness import EchoRig
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.interconnect.ccip import make_interface
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION
NPKT = 60


def faulty_pair(wire, seed=3):
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, CAL, loopback=True)
    injector = ChaosInjector(sim, ChaosConfig(seed=seed, wire=wire))
    injector.attach(switch)
    hard = NicHardConfig(num_flows=1, rx_ring_entries=64,
                         reliable_transport=True)
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

    sim.spawn(drainer())

    def sender():
        for _ in range(NPKT):
            yield from a.send_from_host(
                0, RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48))

    sim.spawn(sender())
    return sim, injector, a, b, drained


def assert_exactly_once(a, drained):
    lost = a.transport.stats.lost_unrecoverable
    seqs = sorted(p.seq for p in drained)
    assert len(seqs) == len(set(seqs)), "a seq reached the host twice"
    assert len(drained) + lost == NPKT, "delivered + lost != sent"
    assert lost == 0, "these schedules stay far from the give-up horizon"
    assert seqs == list(range(NPKT))


def test_exactly_once_under_wire_loss():
    sim, injector, a, b, drained = faulty_pair(WireFaults(loss=0.05))
    sim.run()  # no crash, no permanent stall
    assert injector.stats.wire_losses > 0
    assert a.transport.stats.retransmissions > 0
    assert_exactly_once(a, drained)


def test_exactly_once_under_correlated_bursts():
    sim, injector, a, b, drained = faulty_pair(
        WireFaults(burst_enter=0.03, burst_exit=0.3))
    sim.run()
    assert injector.stats.wire_burst_losses > 0
    assert_exactly_once(a, drained)


def test_exactly_once_under_duplication():
    sim, injector, a, b, drained = faulty_pair(WireFaults(duplicate=0.2))
    sim.run()
    assert injector.stats.wire_duplicates > 0
    # The NIC suppressed every wire duplicate before the host ring.
    assert b.transport.stats.duplicates_dropped > 0
    assert_exactly_once(a, drained)


def test_exactly_once_under_reordering():
    sim, injector, a, b, drained = faulty_pair(
        WireFaults(reorder=0.3, reorder_delay_ns=5_000))
    sim.run()
    assert injector.stats.wire_reorders > 0
    assert_exactly_once(a, drained)


def test_exactly_once_under_combined_faults():
    sim, injector, a, b, drained = faulty_pair(
        WireFaults(loss=0.03, duplicate=0.1, reorder=0.1,
                   reorder_delay_ns=4_000), seed=17)
    sim.run()
    assert_exactly_once(a, drained)


def test_straggler_windows_restore_core_speed():
    sim = Simulator()
    config = ChaosConfig.from_dict(
        {"seed": 2, "straggler": {"core_id": 3, "slowdown": 5.0,
                                  "period_ns": 1_000, "duration_ns": 500,
                                  "windows": 4}})
    injector = ChaosInjector(sim, config)
    switch = ToRSwitch(sim, CAL, loopback=True)
    core = SimpleNamespace(core_id=3, slowdown=1.0)
    other = SimpleNamespace(core_id=0, slowdown=1.0)
    injector.attach(switch, cores=[other, core])
    sim.run()
    assert injector.stats.straggler_windows == 4
    assert core.slowdown == 1.0  # restored after every window
    assert other.slowdown == 1.0  # never touched


def test_cache_thrash_flushes_connection_caches():
    sim = Simulator()
    config = ChaosConfig.from_dict(
        {"seed": 2, "cache_thrash": {"period_ns": 1_000, "flushes": 3}})
    injector = ChaosInjector(sim, config)
    switch = ToRSwitch(sim, CAL, loopback=True)
    cache = SimpleNamespace(flush=lambda: 2)
    nic = SimpleNamespace(connection_manager=SimpleNamespace(cache=cache))
    injector.attach(switch, nics=[nic])
    sim.run()
    assert injector.stats.cache_flushes == 3
    assert injector.stats.cache_entries_flushed == 6


# -- the measurement rig -----------------------------------------------------


def canonical(result):
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def test_run_chaos_point_is_bit_identical_for_a_seed():
    first = run_chaos_point(fault_class="loss", nreq=300, seed=21)
    second = run_chaos_point(fault_class="loss", nreq=300, seed=21)
    assert canonical(first) == canonical(second)
    assert canonical(first) != canonical(
        run_chaos_point(fault_class="loss", nreq=300, seed=22))


def test_run_chaos_point_recovers_under_loss():
    result = run_chaos_point(fault_class="loss", nreq=300, seed=21)
    assert result["completed"] + result["lost_rpcs"] == 300
    assert result["duplicate_host_deliveries"] == 0
    assert result["chaos"]["wire_losses"] > 0
    assert result["lost_rpcs"] <= 3  # bounded: at most 1%


def useful_ratio(result):
    """First transmissions over all transmissions, both NICs."""
    stats = result["transport"].values()
    data = sum(s["data_packets"] for s in stats)
    return data / (data + sum(s["retransmissions"] for s in stats))


def test_fault_free_chaos_point_sends_no_nack_or_retransmission():
    result = run_chaos_point("none", nreq=800)
    for stats in result["transport"].values():
        assert stats["nacks_sent"] == 0
        assert stats["retransmissions"] == 0


def test_fault_free_two_thread_echo_sends_no_nack_or_retransmission():
    """Two flows and batched delivery reorder one connection's packets
    inside the NIC; a gap check at host delivery would NACK that."""
    rig = EchoRig(batch_size=4, num_threads=2,
                  hard_overrides={"reliable_transport": True,
                                  "flow_control": True})
    result = rig.open_loop(2.0, nreq=3000)
    assert result.count > 0
    for nic in (rig.client_stack.nic, rig.server_stack.nic):
        assert nic.transport.stats.data_packets == 3000
        assert nic.transport.stats.nacks_sent == 0
        assert nic.transport.stats.retransmissions == 0


def test_wire_loss_recovers_in_a_round_trip_not_the_rto():
    result = run_chaos_point("loss", nreq=800)
    assert result["chaos"]["wire_losses"] > 0
    assert result["lost_rpcs"] == 0
    assert result["duplicate_host_deliveries"] == 0
    assert result["p99_us"] < 20.0  # the 50 us RTO would show here
    assert useful_ratio(result) >= 0.9


def test_run_chaos_point_validates_inputs():
    with pytest.raises(ValueError, match="unknown fault class"):
        run_chaos_point(fault_class="gremlins")
    with pytest.raises(ValueError, match="nreq"):
        run_chaos_point(nreq=0)
    with pytest.raises(ValueError, match="load"):
        run_chaos_point(load_mrps=0)
