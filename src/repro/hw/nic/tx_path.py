"""NIC TX path: delivering received RPCs into software RX rings (Fig 9).

Architecture (Fig 9B): incoming RPCs are written into a *request table*
(lookup table indexed by slot_id, sized B x N_flows); the *free-slot FIFO*
tracks empty entries; per-flow *flow FIFOs* carry only slot references; the
*flow scheduler* picks a flow FIFO with enough entries to form a
transmission batch and instructs the *CCI-P transmitter* to write the batch
into the corresponding software RX ring.

When the free-slot FIFO is empty the packet is dropped (on-NIC buffering is
finite); when a software RX ring is full the delivery drops there instead.
Both drop classes are visible in the packet monitor.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.rpc.messages import RpcPacket
from repro.sim.resources import Store


class RequestTable:
    """Slot-indexed packet storage + free-slot FIFO (Fig 9B, green table)."""

    def __init__(self, sim, num_slots: int):
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        self.num_slots = num_slots
        self._slots: Dict[int, RpcPacket] = {}
        self.free_slots = Store(sim, capacity=num_slots, name="free-slot-fifo")
        for slot_id in range(num_slots):
            assert self.free_slots.try_put(slot_id)

    def acquire(self, packet: RpcPacket) -> Optional[int]:
        """Store a packet in a free slot; None when the table is full."""
        slot_id = self.free_slots.try_get()
        if slot_id is None:
            return None
        self._slots[slot_id] = packet
        return slot_id

    def read_and_release(self, slot_id: int) -> RpcPacket:
        packet = self._slots.pop(slot_id)
        assert self.free_slots.try_put(slot_id)
        return packet

    @property
    def occupancy(self) -> int:
        return len(self._slots)


class TxPath:
    """Steering + per-flow delivery schedulers of one NIC."""

    def __init__(self, nic):
        self.nic = nic
        hard = nic.hard
        self.request_table = RequestTable(
            nic.sim, hard.max_batch * hard.num_flows
        )
        self.flow_fifos: List[Store] = [
            Store(
                nic.sim,
                capacity=hard.flow_fifo_entries,
                name=f"flow-fifo{i}",
                reject_when_full=True,
            )
            for i in range(hard.num_flows)
        ]
        # Exact serial busy time of the flow schedulers' CCI-P issue slots
        # (summed across flows; one int add per delivered batch).
        self.issue_busy_ns = 0

    def timeline_probes(self):
        """Timeline probe set: exact flow-scheduler occupancy + queue depths.

        ``sched_busy_ns`` is the summed issue-slot busy integral normalized
        by the flow count, so its windowed derivative is the mean flow
        scheduler occupancy — the §4.4 serial pacing bound.
        """
        num_flows = max(1, len(self.flow_fifos))
        return [
            ("sched_busy_ns", "counter",
             lambda: self.issue_busy_ns / num_flows),
            ("flow_fifo_depth", "gauge",
             lambda: sum(len(f) for f in self.flow_fifos)),
            ("request_table", "gauge",
             lambda: self.request_table.occupancy),
        ]

    def start(self) -> None:
        for flow_id in range(self.nic.hard.num_flows):
            self.nic.sim.spawn(self._flow_scheduler(flow_id))

    # -- steering (fed by the ingress pipeline) ------------------------------

    def enqueue(self, packet: RpcPacket, flow_id: int) -> None:
        """Place a packet into a flow FIFO via the request table."""
        nic = self.nic
        if not 0 <= flow_id < nic.hard.num_flows:
            raise ValueError(
                f"flow {flow_id} out of range (num_flows={nic.hard.num_flows})"
            )
        slot_id = self.request_table.acquire(packet)
        if slot_id is None:
            nic.monitor.dropped_flow_fifo += 1
            self._notify_drop(packet)
            return
        if not self.flow_fifos[flow_id].try_put(slot_id):
            self.request_table.read_and_release(slot_id)
            nic.monitor.dropped_flow_fifo += 1
            self._notify_drop(packet)

    def _notify_drop(self, packet: RpcPacket) -> None:
        if self.nic.transport is not None:
            self.nic.transport.on_receiver_drop(packet)

    # -- delivery -------------------------------------------------------------

    def _flow_scheduler(self, flow_id: int) -> Generator:
        # Delivery always batches greedily: take whatever already queued, up
        # to the configured batch width (the RX rings "accumulate a batch of
        # requests before sending them to the completion queue", §4.4). The
        # batch collection is written inline — a delegated generator per
        # batch is measurable on this path.
        nic = self.nic
        fifo = self.flow_fifos[flow_id]
        get = fifo.get
        try_get = fifo.try_get
        read_and_release = self.request_table.read_and_release
        line_bytes = nic.calibration.cache_line_bytes
        issue_occupancy_ns = nic.interface.issue_occupancy_ns
        spawn = nic.sim.spawn
        while True:
            # Zero-yield fast path: a non-empty FIFO hands the batch head
            # over synchronously; only an empty FIFO parks the scheduler.
            first = try_get()
            if first is None:
                first = yield get()
            slot_ids = [first]
            soft = nic.soft
            target = (nic.hard.max_batch if soft.auto_batch
                      else soft.batch_size)
            while len(slot_ids) < target:
                more = try_get()
                if more is None:
                    break
                slot_ids.append(more)
            batch = [read_and_release(s) for s in slot_ids]
            lines = sum(pkt.lines(line_bytes) for pkt in batch)
            # The CCI-P write pipelines like the fetch path: the delivery is
            # issued immediately, the scheduler is paced by the issue slot.
            spawn(self._complete_delivery(flow_id, batch, lines))
            occupancy = issue_occupancy_ns(lines)
            self.issue_busy_ns += occupancy
            yield occupancy

    def _complete_delivery(self, flow_id: int, batch: List[RpcPacket],
                           lines: int) -> Generator:
        nic = self.nic
        rings = nic.flow_rings[flow_id]
        yield from nic.interface.nic_to_host(lines)
        tracer = nic.tracer
        transport = nic.transport
        if transport is None:
            for pkt in batch:
                if rings.rx_ring.try_put(pkt):
                    nic.monitor.delivered_rpcs += 1
                    if tracer is not None:
                        tracer.record_packet(pkt, "host_delivered",
                                             nic.sim.now)
                else:
                    nic.monitor.dropped_rx_ring += 1
            return
        rx_ring = rings.rx_ring
        for pkt in batch:
            # Ring-full is checked *before* committing delivery to the
            # transport, and duplicates are suppressed *before* the ring:
            # the host must never execute one RPC twice, and the receiver
            # state must never record a packet the ring then rejects.
            if not rx_ring.can_accept:
                nic.monitor.dropped_rx_ring += 1
                self._notify_drop(pkt)
                continue
            if not transport.on_delivered(pkt):
                continue  # duplicate: counted in TransportStats
            assert rx_ring.try_put(pkt)
            nic.monitor.delivered_rpcs += 1
            if tracer is not None:
                tracer.record_packet(pkt, "host_delivered", nic.sim.now)
