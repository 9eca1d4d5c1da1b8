"""Top-level Dagger NIC (Fig 6).

Wires the per-RTL-block models together:

- egress: software TX ring -> RX FSM (fetch over the interconnect) -> RPC
  unit (serializer) -> connection lookup -> transport -> Ethernet -> switch;
- ingress: switch -> RPC unit (de-serializer) -> connection lookup + load
  balancer -> flow FIFOs -> flow scheduler -> interconnect -> software RX
  ring.

The green-region pipeline runs at 200 MHz and processes one RPC per cycle
once full, modelled by a serial 5 ns pipeline resource (the "NIC itself is
capable of processing up to 200 Mrps", section 5.5).
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.hw.calibration import Calibration
from repro.hw.ethernet import (
    ETHERNET_OVERHEAD_BYTES,
    MIN_FRAME_BYTES,
    EthernetPort,
)
from repro.hw.interconnect.base import CpuNicInterface, TransferMode
from repro.hw.interconnect.ccip import make_interface
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.connection_manager import ConnectionManager, ConnectionTuple
from repro.hw.nic.load_balancer import make_balancer
from repro.hw.nic.packet_monitor import PacketMonitor
from repro.hw.nic.rings import FlowRings
from repro.hw.nic.rx_path import RxPath
from repro.hw.nic.tx_path import TxPath
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.rpc.messages import HEADER_BYTES, RpcKind, RpcPacket
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource, Store

_connection_ids = itertools.count(1)


def next_connection_id() -> int:
    """Process-wide unique connection ids (as the CM would hand out)."""
    return next(_connection_ids)


class DaggerNic:
    """One NIC instance (one tenant's "virtual but physical" NIC, Fig 14)."""

    #: Optional repro.obs.SpanTracer; None keeps the data paths hook-free.
    tracer = None

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        interface: CpuNicInterface,
        switch: ToRSwitch,
        address: str,
        hard: Optional[NicHardConfig] = None,
        soft: Optional[NicSoftConfig] = None,
    ):
        self.sim = sim
        self.calibration = calibration
        self.interface = interface
        self.switch = switch
        self.address = address
        self.hard = hard or NicHardConfig()
        self.soft = soft or NicSoftConfig()
        self.soft.validate(self.hard)

        self.monitor = PacketMonitor()
        self.connection_manager = ConnectionManager(
            sim,
            calibration,
            self.hard.connection_cache_entries,
            dram_backed=self.hard.dram_backed_connections,
        )
        self.balancer = make_balancer(self.soft.load_balancer)
        self._conn_balancers = {}  # per-connection balancer overrides
        self.flow_rings = [
            FlowRings(
                sim, i, self.hard.tx_ring_entries, self.hard.rx_ring_entries
            )
            for i in range(self.hard.num_flows)
        ]
        self.pipeline = Resource(sim, capacity=1, name=f"{address}-pipeline")
        # Constant per-stage latencies, precomputed off the per-packet path.
        self._cycle_ns = calibration.nic_cycle_ns
        self._rpc_unit_ns = (calibration.nic_rpc_unit_cycles
                             * calibration.nic_cycle_ns)
        self._transport_ns = (calibration.nic_transport_cycles
                              * calibration.nic_cycle_ns)
        self._lb_ns = calibration.nic_lb_cycles * calibration.nic_cycle_ns
        self.eth = EthernetPort(sim, calibration, name=f"{address}-eth")
        self._ingress_queue = Store(sim, name=f"{address}-ingress")
        # Per-flow egress sequencers: fetched RPCs enter here in issue order
        # and are pushed through the RPC pipeline strictly FIFO per flow
        # (a connection-cache miss stalls the flow, it does not reorder it).
        self._egress_queues = [
            Store(sim, name=f"{address}-egress{i}")
            for i in range(self.hard.num_flows)
        ]
        # Control packets (ACK/NACK/CREDIT) use their own sequencer so a
        # data flow parked on credits can never block the protocol itself.
        self._control_queue = Store(sim, name=f"{address}-control")
        for queue in self._egress_queues + [self._control_queue]:
            sim.spawn(self._egress_sequencer(queue))

        # §4.5 extensions: a hardware reliable transport and/or a
        # credit-based flow-control engine in the Protocol unit (both None
        # when the NIC runs the paper's idle/UDP-like protocol).
        self.transport = None
        if self.hard.reliable_transport:
            from repro.rpc.transport import ReliableTransport

            self.transport = ReliableTransport(self)
        self.flow_control = None
        if self.hard.flow_control:
            from repro.rpc.congestion import CreditFlowControl

            self.flow_control = CreditFlowControl(
                self, self.hard.flow_control_credits, self.hard.credit_batch
            )
            for rings in self.flow_rings:
                rings.rx_ring.on_get = self.flow_control.on_host_dequeue

        self.rx_path = RxPath(self)
        self.tx_path = TxPath(self)
        self.rx_path.start()
        self.tx_path.start()
        sim.spawn(self._ingress_unit())
        switch.register(address, self.ingress)

    @classmethod
    def on_machine(cls, machine: Machine, switch: ToRSwitch, address: str,
                   hard: Optional[NicHardConfig] = None,
                   soft: Optional[NicSoftConfig] = None) -> "DaggerNic":
        """Build a NIC on ``machine``'s FPGA and attach it there.

        The one construction path of a machine's NIC: ``DaggerStack`` and
        ``VirtualizedFpga.add_nic`` both call it.
        """
        hard = hard or NicHardConfig()
        interface = make_interface(hard.interface, machine.sim,
                                   machine.calibration, machine.fpga)
        nic = cls(machine.sim, machine.calibration, interface, switch,
                  address, hard=hard, soft=soft)
        machine.fpga.attach_nic(nic)
        return nic

    # -- telemetry -------------------------------------------------------------

    def enable_usage(self) -> None:
        """Exact occupancy accounting on every queueing station (idempotent)."""
        self.pipeline.enable_usage()
        self.eth.enable_usage()
        self.interface.enable_usage()
        for rings in self.flow_rings:
            rings.enable_usage()

    def timeline_probes(self):
        """Aggregate timeline probe set for this NIC.

        Covers the green-region pipeline (exact busy integral), the
        ethernet port, the fetch FSM and flow scheduler occupancies, ring
        depths, the connection cache, the packet monitor counters and —
        when the §4.5 units are enabled — the transport in-flight window.
        Register with ``collector.add_source("nic.<role>", nic)``.
        """
        sim = self.sim
        pipeline = self.pipeline
        usage = pipeline.enable_usage()
        monitor = self.monitor
        cache = self.connection_manager.cache
        probes = [
            ("pipeline_busy_ns", "counter",
             lambda: usage.busy_integral(sim.now, pipeline._in_use)),
            ("tx_ring_depth", "gauge",
             lambda: sum(len(r.tx_ring) for r in self.flow_rings)),
            ("rx_ring_depth", "gauge",
             lambda: sum(len(r.rx_ring) for r in self.flow_rings)),
            ("rx_ring_drops", "counter",
             lambda: sum(r.rx_ring.drops for r in self.flow_rings)),
            ("conn_cache_hit_rate", "gauge", lambda: cache.hit_rate),
            ("conn_cache_misses", "counter", lambda: cache.misses),
            ("tx_rpcs", "counter", lambda: monitor.tx_rpcs),
            ("rx_rpcs", "counter", lambda: monitor.rx_rpcs),
            ("delivered_rpcs", "counter", lambda: monitor.delivered_rpcs),
        ]
        probes.extend(self.rx_path.timeline_probes())
        probes.extend(self.tx_path.timeline_probes())
        for name, mode, fn in self.eth.timeline_probes():
            probes.append((f"eth_{name}", mode, fn))
        if self.transport is not None:
            for name, mode, fn in self.transport.timeline_probes():
                probes.append((f"transport_{name}", mode, fn))
        if self.flow_control is not None:
            stats = self.flow_control.stats
            probes.append(("fc_stalls", "counter", lambda: stats.stalls))
        return probes

    # -- software-facing API ---------------------------------------------------

    def open_connection(
        self,
        connection_id: int,
        src_flow: int,
        dest_address: str,
        load_balancer: Optional[str] = None,
    ) -> ConnectionTuple:
        """Register a connection in the NIC's connection manager."""
        if not 0 <= src_flow < self.hard.num_flows:
            raise ValueError(
                f"flow {src_flow} out of range (num_flows={self.hard.num_flows})"
            )
        entry = ConnectionTuple(
            connection_id=connection_id,
            src_flow=src_flow,
            dest_address=dest_address,
            load_balancer=load_balancer,
        )
        self.connection_manager.open_connection(entry)
        return entry

    def close_connection(self, connection_id: int) -> None:
        self.connection_manager.close_connection(connection_id)

    def soft_reconfigure(self, thread, **changes) -> Generator:
        """Runtime soft reconfiguration (§4.1's Soft-Reconfiguration Unit).

        Writes the NIC's soft register file over PCIe MMIO from the given
        software thread — one MMIO per changed register — validates the
        result against the hard configuration, and applies it atomically.
        This is how the paper tunes batch size, balancer, and active flows
        on a live NIC without re-synthesizing.
        """
        if not changes:
            raise ValueError("soft_reconfigure needs at least one change")
        candidate = NicSoftConfig(
            batch_size=changes.get("batch_size", self.soft.batch_size),
            auto_batch=changes.get("auto_batch", self.soft.auto_batch),
            batch_timeout_ns=changes.get("batch_timeout_ns",
                                         self.soft.batch_timeout_ns),
            load_balancer=changes.get("load_balancer",
                                      self.soft.load_balancer),
            active_flows=changes.get("active_flows",
                                     self.soft.active_flows),
        )
        unknown = set(changes) - {"batch_size", "auto_batch",
                                  "batch_timeout_ns", "load_balancer",
                                  "active_flows"}
        if unknown:
            raise ValueError(f"unknown soft registers: {sorted(unknown)}")
        candidate.validate(self.hard)
        # One non-cacheable MMIO write per touched soft register.
        yield from thread.exec(
            len(changes) * self.calibration.mmio_doorbell_ns
        )
        if candidate.load_balancer != self.soft.load_balancer:
            self.balancer = make_balancer(candidate.load_balancer)
        self.soft = candidate

    def tx_cpu_cost_ns(self, packet: RpcPacket) -> int:
        """Interface-specific CPU cost the sender pays for this packet."""
        lines = packet.lines(self.calibration.cache_line_bytes)
        batch = (self.hard.max_batch if self.soft.auto_batch
                 else self.soft.batch_size)
        return self.interface.tx_cpu_cost_ns(lines, batch)

    def send_from_host(self, flow_id: int, packet: RpcPacket) -> Generator:
        """Hand a packet to the NIC (yields; may block on a full TX ring)."""
        if not 0 <= flow_id < self.hard.num_flows:
            raise ValueError(
                f"flow {flow_id} out of range (num_flows={self.hard.num_flows})"
            )
        packet.src_address = self.address
        if packet.kind is RpcKind.REQUEST:
            packet.src_flow = flow_id
        if self.tracer is not None:
            self.tracer.record_packet(packet, "sw_tx", self.sim.now)
        if self.interface.mode is TransferMode.PUSH:
            # WQE-by-MMIO: payload crosses as CPU-issued MMIO writes; no
            # ring, no fetch FSM.
            lines = packet.lines(self.calibration.cache_line_bytes)
            self.sim.spawn(self._push_transfer(packet, lines, flow_id))
            return
        tx_ring = self.flow_rings[flow_id].tx_ring
        if not tx_ring.try_put(packet):
            # Full ring: fall back to the blocking put (flow blocking, §4.4).
            yield tx_ring.put(packet)

    def rx_ring(self, flow_id: int) -> Store:
        """The software RX ring for a flow (what a dispatch thread polls)."""
        return self.flow_rings[flow_id].rx_ring

    # -- egress data path --------------------------------------------------------

    def _push_transfer(self, packet: RpcPacket, lines: int,
                       flow_id: int = 0) -> Generator:
        yield from self.interface.host_to_nic(lines)
        self.monitor.fetched_rpcs += 1
        if self.tracer is not None:
            self.tracer.record_packet(packet, "nic_fetched", self.sim.now)
        self.enqueue_egress(flow_id, packet)

    def enqueue_egress(self, flow_id: int, packet: RpcPacket) -> None:
        """Hand a fetched packet to its flow's in-order egress sequencer."""
        if packet.kind is RpcKind.CONTROL:
            self._control_queue.try_put(packet)
        else:
            self._egress_queues[flow_id].try_put(packet)

    def _egress_sequencer(self, queue: Store) -> Generator:
        """RPC unit (serializer) -> connection lookup -> transport -> wire,
        for each packet of ``queue`` in order.

        One sequencer per data flow and one for control packets, which
        credit flow control lets through for free. Every queueing station
        takes the zero-yield try_* fast path when uncontended and falls
        back to the evented wait otherwise.
        """
        get = queue.get
        try_get = queue.try_get
        pipeline = self.pipeline
        pipeline_try_acquire = pipeline.try_acquire
        connection_manager = self.connection_manager
        cache_lookup = connection_manager.cache.lookup
        lookup_hit_ns = connection_manager._hit_ns
        lookup_miss = connection_manager.lookup_miss
        monitor = self.monitor
        eth = self.eth
        eth_port_request = eth._port.request
        eth_port_try_acquire = eth._port.try_acquire
        eth_port_release = eth._port.release
        eth_bytes_per_ns = eth.calibration.eth_bytes_per_ns
        switch_send = self.switch.send
        sim = self.sim
        while True:
            packet = try_get()
            if packet is None:
                packet = yield get()
            flow_control = self.flow_control
            if (flow_control is not None
                    and not flow_control.try_acquire(packet)):
                yield from flow_control.acquire(packet)
            if not pipeline_try_acquire():
                yield pipeline.request()
            try:
                yield self._cycle_ns
            finally:
                pipeline.release()
            yield self._rpc_unit_ns
            if self.hard.inline_crypto and packet.kind is not RpcKind.CONTROL:
                yield self._crypto_ns(packet)
            # connection_manager.lookup inlined on the hit path (a generator
            # per packet otherwise); misses take the full path.
            hit, entry = cache_lookup(packet.connection_id)
            if hit:
                yield lookup_hit_ns
            else:
                monitor.connection_misses += 1
                entry = yield from lookup_miss(packet.connection_id)
            if packet.kind is RpcKind.REQUEST:
                packet.dst_address = entry.dest_address
            if self.transport is not None:
                self.transport.on_egress(packet)
            yield self._transport_ns
            # eth.transmit(packet.wire_bytes) inlined (same grant / delay /
            # release events, no delegated generator per frame); keep in
            # sync with EthernetPort.transmit.
            if not eth_port_try_acquire():
                yield eth_port_request()
            try:
                wire_bytes = HEADER_BYTES + packet.payload_bytes
                if wire_bytes < MIN_FRAME_BYTES:
                    wire_bytes = MIN_FRAME_BYTES
                wire_bytes += ETHERNET_OVERHEAD_BYTES
                delay = int(wire_bytes / eth_bytes_per_ns)
                eth.frames += 1
                eth.bytes += wire_bytes
                yield delay if delay > 1 else 1
            finally:
                eth_port_release()
            if self.tracer is not None:
                self.tracer.record_packet(packet, "wire_tx", sim.now)
            monitor.tx_rpcs += 1
            switch_send(packet.dst_address, packet)

    # -- ingress data path ---------------------------------------------------------

    def ingress(self, packet: RpcPacket) -> None:
        """Switch-facing entry point (runs at packet arrival time)."""
        self.monitor.rx_rpcs += 1
        if self.tracer is not None:
            self.tracer.record_packet(packet, "nic_rx", self.sim.now)
        if self.transport is not None:
            self.transport.on_arrival(packet)
        self._ingress_queue.try_put(packet)

    def _ingress_unit(self) -> Generator:
        # The ingress pipeline accepts one packet per cycle; the remaining
        # stage latency is paid per packet in a spawned continuation so the
        # unit pipelines like the RTL instead of serializing ~7 cycles.
        sim = self.sim
        pipeline = self.pipeline
        pipeline_try_acquire = pipeline.try_acquire
        cycle_ns = self._cycle_ns
        queue = self._ingress_queue
        get = queue.get
        try_get = queue.try_get
        spawn = sim.spawn
        steer = self._ingress_steer
        while True:
            packet = try_get()
            if packet is None:
                packet = yield get()
            if not pipeline_try_acquire():
                yield pipeline.request()
            try:
                yield cycle_ns
            finally:
                pipeline.release()
            spawn(steer(packet))

    def _crypto_ns(self, packet: RpcPacket) -> int:
        """Latency of the optional inline encryption stage (§4.5)."""
        cal = self.calibration
        lines = packet.lines(cal.cache_line_bytes)
        return lines * cal.nic_crypto_cycles_per_line * cal.nic_cycle_ns

    def _ingress_steer(self, packet: RpcPacket) -> Generator:
        sim = self.sim
        yield self._rpc_unit_ns
        if self.hard.inline_crypto and packet.kind is not RpcKind.CONTROL:
            yield self._crypto_ns(packet)
        connection_manager = self.connection_manager
        hit, entry = connection_manager.cache.lookup(packet.connection_id)
        if hit:
            yield connection_manager._hit_ns
        else:
            entry = yield from connection_manager.lookup_miss(
                packet.connection_id
            )
        yield self._lb_ns
        if packet.kind is RpcKind.CONTROL:
            # NIC-terminated protocol packet: never reaches a host ring.
            from repro.rpc.congestion import CREDIT_METHOD

            if (packet.method == CREDIT_METHOD
                    and self.flow_control is not None):
                self.flow_control.on_control(packet)
            elif self.transport is not None:
                self.transport.on_control(packet)
            return
        if packet.kind is RpcKind.RESPONSE:
            # Responses are steered back to the flow their request used.
            flow_id = packet.src_flow
        else:
            balancer = self.balancer
            if entry.load_balancer is not None:
                key = (entry.connection_id, entry.load_balancer)
                balancer = self._conn_balancers.get(key)
                if balancer is None:
                    balancer = make_balancer(entry.load_balancer)
                    self._conn_balancers[key] = balancer
            flow_id = balancer.pick_flow(
                packet,
                self.soft.effective_flows(self.hard),
                preferred_flow=entry.src_flow,
            )
        self.tx_path.enqueue(packet, flow_id)
