"""Calibrated models of baseline networking stacks.

The baselines of Table 3 (and the native transports of section 5.6) are
software or fixed-function systems the paper compares against using the
numbers *their* papers report. Re-implementing each of them gate-for-gate
is neither possible nor useful here; instead each baseline is a queueing
model with three calibrated knobs:

- per-request CPU TX/RX cost (sets the per-core throughput ceiling),
- a fixed one-way stack latency (sets the unloaded RTT),
- a per-byte wire cost (matters only for large RPCs).

Each baseline's knobs are one row of
:data:`~repro.stacks.registry.BASELINES`, which this one class runs.
Requests still flow through the same :class:`ToRSwitch` and the same RPC
runtime as Dagger, so queueing, load balancing across server threads, and
drops behave consistently across stacks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hw.calibration import Calibration
from repro.hw.nic.load_balancer import make_balancer
from repro.hw.switch import ToRSwitch
from repro.rpc.errors import ConnectionError_
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim.kernel import Simulator
from repro.sim.resources import Store
from repro.stacks.base import RpcStack, StackPort
from repro.stacks.registry import ModeledStackParams


class ModeledPort(StackPort):
    """One channel endpoint of a modeled stack."""

    def __init__(self, stack: "ModeledStack", flow_id: int):
        self.stack = stack
        self.flow_id = flow_id
        self.address = stack.address
        self._rx_ring = Store(
            stack.sim,
            capacity=stack.params.rx_ring_entries,
            name=f"{stack.address}-rx{flow_id}",
            reject_when_full=True,
        )

    @property
    def rx_ring(self) -> Store:
        return self._rx_ring

    def send(self, packet: RpcPacket):
        # Returns the stack generator directly instead of delegating with
        # ``yield from`` — one less generator frame per packet sent.
        return self.stack.transmit(self.flow_id, packet)

    def cpu_tx_ns(self, packet: RpcPacket) -> int:
        return (self.stack.params.cpu_tx_ns
                + int(packet.payload_bytes * self.stack.params.per_byte_ns))

    def cpu_rx_ns(self, packet: RpcPacket) -> int:
        return (self.stack.params.cpu_rx_ns
                + int(packet.payload_bytes * self.stack.params.per_byte_ns))


class ModeledStack(RpcStack):
    """Machine-side instance of a calibrated baseline stack."""

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        switch: ToRSwitch,
        address: str,
        params: Optional[ModeledStackParams] = None,
        num_ports: int = 64,
        load_balancer: str = "round-robin",
    ):
        if params is None:
            raise ValueError("ModeledStack requires params")
        self.params = params
        self.sim = sim
        self.calibration = calibration
        self.switch = switch
        self.address = address
        self.name = params.name
        self._num_ports = num_ports
        self._ports: Dict[int, ModeledPort] = {}
        self._connections: Dict[int, str] = {}  # conn id -> remote address
        self._balancer = make_balancer(load_balancer)
        #: When set, requests are steered only across these port indices
        #: (the ports server threads actually poll).
        self.server_ports: List[int] = []
        #: Threads running the interrupt-side receive work (section 3.3's
        #: experiment binds these to a fixed set of cores). Empty -> IRQ
        #: work is skipped (the cost is folded into cpu_rx_ns).
        self.irq_threads: List = []
        self._next_irq = 0
        self.dropped = 0
        switch.register(address, self._ingress)

    # -- ports -----------------------------------------------------------------

    def port(self, index: int) -> ModeledPort:
        if not 0 <= index < self._num_ports:
            raise ValueError(
                f"port {index} out of range (num_ports={self._num_ports})"
            )
        if index not in self._ports:
            self._ports[index] = ModeledPort(self, index)
        return self._ports[index]

    @property
    def num_ports(self) -> int:
        return self._num_ports

    # -- connections ------------------------------------------------------------

    def register_connection(self, connection_id, local_flow, remote_address,
                            load_balancer=None) -> None:
        del local_flow, load_balancer
        self._connections[connection_id] = remote_address

    # -- data path ----------------------------------------------------------------

    def transmit(self, flow_id: int, packet: RpcPacket):
        """Send one packet: fixed latency + switch forwarding."""
        packet.src_address = self.address
        if packet.kind is RpcKind.REQUEST:
            packet.src_flow = flow_id
            remote = self._connections.get(packet.connection_id)
            if remote is None:
                raise ConnectionError_(
                    f"connection {packet.connection_id} not registered on "
                    f"{self.address}"
                )
            packet.dst_address = remote
        wire_ns = self.params.oneway_ns + int(
            packet.payload_bytes * self.params.per_byte_ns
        )
        self.sim.call_after(wire_ns, self._propagate, packet)
        yield 0

    def _propagate(self, packet: RpcPacket) -> None:
        self.switch.send(packet.dst_address, packet)

    def _ingress(self, packet: RpcPacket) -> None:
        if self.irq_threads and self.params.irq_cost_ns > 0:
            thread = self.irq_threads[self._next_irq % len(self.irq_threads)]
            self._next_irq += 1

            def _softirq():
                yield from thread.exec(self.params.irq_cost_ns)
                self._deliver(packet)

            self.sim.spawn(_softirq())
            return
        self._deliver(packet)

    def _deliver(self, packet: RpcPacket) -> None:
        if packet.kind is RpcKind.RESPONSE:
            flow_id = packet.src_flow
        else:
            # Steer requests only across server ports (or, failing that,
            # ports software actually opened).
            port_ids = self.server_ports or sorted(self._ports) or [0]
            pick = self._balancer.pick_flow(packet, len(port_ids))
            flow_id = port_ids[pick]
        port = self.port(flow_id)
        if not port.rx_ring.try_put(packet):
            self.dropped += 1

    @property
    def drops(self) -> int:
        # self.dropped already counts every failed ring put; the ring's own
        # drop counter tracks the same events, so don't double count.
        return self.dropped
