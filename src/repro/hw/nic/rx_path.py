"""NIC RX path: fetching RPCs from software TX rings (Fig 8, left half).

One FSM per flow. For *fetch*-mode interfaces (UPI, PCIe doorbell) the FSM
collects a CCI-P batch from the flow's TX ring, pays the serial issue
occupancy (the per-flow throughput bound), and hands the in-flight transfer
to an asynchronous completion process so reads pipeline across the bus's
outstanding-request window, exactly like the RTL keeps 128 CCI-P requests
in flight while bookkeeping is pending.

Batching semantics mirror the soft-config modes of Fig 11 (left):

- fixed batch B: the FSM *waits* for B requests (low-load latency suffers);
- auto batch: the FSM takes what is already in the ring, up to the
  hard-config maximum (low latency at low load, full batches at high load).
"""

from __future__ import annotations

from typing import Generator, List

from repro.hw.interconnect.base import TransferMode
from repro.rpc.messages import RpcPacket


class RxPath:
    """All per-flow fetch FSMs of one NIC."""

    def __init__(self, nic):
        self.nic = nic
        # Exact serial busy time of the fetch FSMs' issue slots (summed
        # across flows; one int add per fetched batch). At batch 1 on UPI
        # this is *the* per-flow throughput bound (123 ns -> 8.1 Mrps), so
        # its utilization names the bottleneck of Fig 11's knee.
        self.issue_busy_ns = 0

    def timeline_probes(self):
        """Timeline probe set: exact fetch-FSM occupancy (see above)."""
        num_flows = max(1, self.nic.hard.num_flows)
        return [
            ("fetch_busy_ns", "counter",
             lambda: self.issue_busy_ns / num_flows),
        ]

    def start(self) -> None:
        if self.nic.interface.mode is not TransferMode.FETCH:
            return  # push-mode interfaces have no fetch FSMs
        for flow_id in range(self.nic.hard.num_flows):
            self.nic.sim.spawn(self._flow_fsm(flow_id))

    _POLL_NS = 100  # fixed-B mode polls the ring at this granularity

    def _collect_batch(self, flow_id: int) -> Generator:
        """Wait for the first request, then fill the batch per soft config."""
        ring = self.nic.flow_rings[flow_id].tx_ring
        sim = self.nic.sim
        # Zero-yield fast path: a non-empty ring yields the batch head
        # synchronously; only an empty ring parks the FSM on the evented get.
        first = ring.try_get()
        if first is None:
            first = yield ring.get()
        batch: List[RpcPacket] = [first]
        soft = self.nic.soft
        if soft.auto_batch:
            target = self.nic.hard.max_batch
            while len(batch) < target:
                more = ring.try_get()
                if more is None:
                    break
                batch.append(more)
        else:
            # Fixed B: wait for a full batch, but give up after the soft
            # batch timeout so a trickle of requests still makes progress.
            deadline = sim.now + soft.batch_timeout_ns
            while len(batch) < soft.batch_size:
                more = ring.try_get()
                if more is not None:
                    batch.append(more)
                    continue
                if sim.now >= deadline:
                    break
                yield min(self._POLL_NS, deadline - sim.now)
        return batch

    def _flow_fsm(self, flow_id: int) -> Generator:
        nic = self.nic
        while True:
            batch = yield from self._collect_batch(flow_id)
            lines = sum(pkt.lines(nic.calibration.cache_line_bytes)
                        for pkt in batch)
            nic.monitor.batches += 1
            nic.monitor.batched_rpcs += len(batch)
            # The transfer completes asynchronously (CCI-P keeps up to 128
            # requests in flight), so the read is issued immediately...
            nic.sim.spawn(self._complete_fetch(flow_id, batch, lines))
            # ...but the FSM cannot issue the *next* read until this one's
            # issue slot drains (123 ns + 20 ns/extra line on UPI): serial
            # pacing bounds per-flow throughput without inflating the
            # latency of an idle flow.
            occupancy = nic.interface.issue_occupancy_ns(lines)
            self.issue_busy_ns += occupancy
            yield occupancy

    def _complete_fetch(self, flow_id: int, batch: List[RpcPacket],
                        lines: int) -> Generator:
        nic = self.nic
        yield from nic.interface.host_to_nic(lines)
        tracer = nic.tracer
        for pkt in batch:
            nic.monitor.fetched_rpcs += 1
            if tracer is not None:
                tracer.record_packet(pkt, "nic_fetched", nic.sim.now)
            nic.enqueue_egress(flow_id, pkt)
