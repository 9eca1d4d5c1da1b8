"""Stack names, the baseline calibration table and the stack factory.

The harness selects stacks by name ("dagger", "linux-tcp", ...) and
describes every stack in the NIC's terms: a :class:`NicHardConfig` and a
:class:`NicSoftConfig`. Dagger owns real NIC hardware and takes both as
they are. Every other stack is a baseline the paper compares against
using the numbers *its* paper reports, so each one is a row of
:data:`BASELINES` that :func:`make_stack` hands to the one
:class:`~repro.stacks.modeled.ModeledStack` class, which maps the two
configs onto its model. That class's module is imported the first time a
baseline is built, so a Dagger-only run never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.stacks.base import RpcStack
from repro.stacks.dagger import DaggerStack


@dataclass(frozen=True)
class ModeledStackParams:
    """Calibration of one baseline stack."""

    name: str
    cpu_tx_ns: int  # per-request CPU cost, transmit side
    cpu_rx_ns: int  # per-request CPU cost, receive side
    oneway_ns: int  # fixed stack+fabric latency, one direction
    per_byte_ns: float = 0.08  # wire + copy cost per payload byte
    rx_ring_entries: int = 256
    irq_cost_ns: int = 0  # kernel interrupt-side work per received packet
                          # (runs on IRQ threads when the stack has them)

    def __post_init__(self):
        for field_name in ("cpu_tx_ns", "cpu_rx_ns", "oneway_ns"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")


#: Baseline name -> its calibration (Table 3 and section 5.6).
BASELINES: Dict[str, ModeledStackParams] = {row.name: row for row in (
    # Linux kernel TCP/IP, memcached's native transport. Calibrated so
    # that memcached served over it shows the ~11.4x higher KVS access
    # latency the paper reports relative to memcached over Dagger
    # (section 5.6): syscall + kernel TCP/IP + interrupt costs on both CPU
    # paths, and a long in-kernel queueing/wakeup latency.
    ModeledStackParams(
        name="linux-tcp",
        cpu_tx_ns=1600,  # send syscall, TCP/IP, skb management
        cpu_rx_ns=900,  # softirq + epoll wakeup + recv copy
        oneway_ns=15450,  # kernel queueing + interrupt latency
        per_byte_ns=0.25,  # copies in and out of kernel space
        irq_cost_ns=800,  # softirq receive work, when IRQ threads are attached
    ),
    # MICA's native DPDK transport: kernel-bypass polling with heavy RX/TX
    # burst batching; good per-core throughput but tens-of-microseconds
    # access latency (the 4.4-5.2x gap of section 5.6).
    ModeledStackParams(
        name="dpdk",
        cpu_tx_ns=300,  # mbuf alloc + TX burst amortized
        cpu_rx_ns=200,  # RX burst poll amortized
        oneway_ns=7200,  # burst-batching queueing delay
        per_byte_ns=0.1,
    ),
    # eRPC, raw-NIC-driver user-space RPCs (Kalia et al., NSDI'19), as
    # reported in Table 3: 4.96 Mrps per core and 2.3 us RTT for 32 B RPCs
    # over a 0.3 us TOR.
    ModeledStackParams(
        name="erpc",
        cpu_tx_ns=125,
        cpu_rx_ns=76,
        oneway_ns=649,
        per_byte_ns=0.08,
    ),
    # FaSST-style two-sided RDMA (UD send/recv) datagram RPCs (Table 3).
    # RDMA offloads transport to the adapter but keeps RPC processing on
    # the host CPU, and the adapter sits across PCIe; both costs show up
    # in the calibration: 4.8 Mrps per core (208 ns CPU per RPC) and a
    # 2.8 us RTT for 48 B RPCs.
    ModeledStackParams(
        name="fasst-rdma",
        cpu_tx_ns=130,  # WQE build + doorbell
        cpu_rx_ns=78,  # CQE poll + RPC layer
        oneway_ns=892,  # PCIe crossing + adapter processing
        per_byte_ns=0.08,
    ),
    # IX, the protected dataplane OS (Table 3). It batches adaptively,
    # which costs latency: 11.4 us RTT and ~1.5 Mrps per core for 64 B
    # messages.
    ModeledStackParams(
        name="ix",
        cpu_tx_ns=420,  # dataplane TX half of the 666 ns/req budget
        cpu_rx_ns=246,
        oneway_ns=4734,  # adaptive batching delay
        per_byte_ns=0.1,
    ),
    # NetDIMM (Table 3), an ASIC NIC integrated into DIMM memory. It
    # transfers raw 64 B *messages* (it "does not focus on RPC stacks"),
    # so Table 3 reports no RPC throughput for it; only the 2.2 us RTT row
    # is reproduced. CPU costs are tiny because delivery happens inside
    # the memory subsystem.
    ModeledStackParams(
        name="netdimm",
        cpu_tx_ns=60,
        cpu_rx_ns=40,
        oneway_ns=700,
        per_byte_ns=0.05,
    ),
)}

#: Every stack name :func:`make_stack` accepts.
STACKS = ("dagger",) + tuple(BASELINES)


def _check_stack(name: str) -> None:
    if name not in STACKS:
        raise ValueError(
            f"unknown stack {name!r}; choose from {sorted(STACKS)}"
        )


def make_stack(
    name: str,
    machine: Machine,
    switch: ToRSwitch,
    address: str,
    hard: Optional[NicHardConfig] = None,
    soft: Optional[NicSoftConfig] = None,
) -> RpcStack:
    """Build a stack instance by name on the given machine.

    A modeled stack gets one port per NIC flow (``hard.num_flows``),
    steers requests with ``soft.load_balancer`` across its first
    ``soft.active_flows`` ports (all opened ports when 0), keeps its
    calibrated ring depth and ignores batching. Omitted configs take
    their defaults.
    """
    _check_stack(name)
    hard = hard or NicHardConfig()
    soft = soft or NicSoftConfig()
    if name == "dagger":
        return DaggerStack(machine, switch, address, hard=hard, soft=soft)
    from repro.stacks.modeled import ModeledStack

    stack = ModeledStack(machine.sim, machine.calibration, switch, address,
                         BASELINES[name], num_ports=hard.num_flows,
                         load_balancer=soft.load_balancer)
    stack.server_ports = list(range(soft.active_flows))
    return stack
