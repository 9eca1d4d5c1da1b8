"""The Dagger stack: thin software shim over the hardware NIC.

This is the paper's design point: the host software only provides the RPC
API and zero-copy ring access; everything else happens on the NIC. The
port's CPU costs are therefore tiny — the calibrated ring-store /
completion-poll costs plus whatever the chosen CPU-NIC interface adds
(nothing for UPI, doorbells/MMIO stores for PCIe), plus the software
reassembly cost for RPCs larger than one cache line (section 4.7).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.rpc.messages import RpcPacket
from repro.sim.resources import Store
from repro.stacks.base import RpcStack, StackPort


class DaggerPort(StackPort):
    """One NIC flow exposed as a stack port."""

    def __init__(self, stack: "DaggerStack", flow_id: int):
        self.stack = stack
        self.flow_id = flow_id
        self.address = stack.address

    @property
    def rx_ring(self) -> Store:
        return self.stack.nic.rx_ring(self.flow_id)

    def send(self, packet: RpcPacket):
        # Returns the NIC generator directly instead of delegating with
        # ``yield from`` — one less generator frame per packet sent.
        return self.stack.nic.send_from_host(self.flow_id, packet)

    def _reassembly_ns(self, packet: RpcPacket) -> int:
        if self.stack.nic.hard.hw_reassembly:
            # §4.7 extension: CAM-based on-chip reassembly; no CPU cost.
            return 0
        calibration = self.stack.calibration
        lines = packet.lines(calibration.cache_line_bytes)
        return (lines - 1) * calibration.cpu_reassembly_per_line_ns

    def cpu_tx_ns(self, packet: RpcPacket) -> int:
        calibration = self.stack.calibration
        return (calibration.cpu_tx_ns
                + self.stack.nic.tx_cpu_cost_ns(packet)
                + self._reassembly_ns(packet))

    def cpu_rx_ns(self, packet: RpcPacket) -> int:
        calibration = self.stack.calibration
        return calibration.cpu_rx_ns + self._reassembly_ns(packet)


class DaggerStack(RpcStack):
    """Machine-side Dagger stack owning one NIC instance."""

    name = "dagger"

    def __init__(
        self,
        machine: Machine,
        switch: ToRSwitch,
        address: str,
        hard: Optional[NicHardConfig] = None,
        soft: Optional[NicSoftConfig] = None,
    ):
        self.machine = machine
        self.calibration = machine.calibration
        self.address = address
        self.nic = DaggerNic.on_machine(machine, switch, address, hard, soft)
        self._ports: Dict[int, DaggerPort] = {}

    @classmethod
    def from_nic(cls, machine: Machine, nic: DaggerNic) -> "DaggerStack":
        """Wrap an existing NIC (e.g. one built by VirtualizedFpga)."""
        stack = cls.__new__(cls)
        stack.machine = machine
        stack.calibration = machine.calibration
        stack.address = nic.address
        stack.nic = nic
        stack._ports = {}
        return stack

    def port(self, index: int) -> DaggerPort:
        if index not in self._ports:
            if not 0 <= index < self.nic.hard.num_flows:
                raise ValueError(
                    f"flow {index} out of range "
                    f"(num_flows={self.nic.hard.num_flows})"
                )
            self._ports[index] = DaggerPort(self, index)
        return self._ports[index]

    @property
    def num_ports(self) -> int:
        return self.nic.hard.num_flows

    def register_connection(self, connection_id, local_flow, remote_address,
                            load_balancer=None) -> None:
        self.nic.open_connection(
            connection_id, local_flow, remote_address, load_balancer
        )

    @property
    def drops(self) -> int:
        return self.nic.monitor.drops
