"""Reliable transport for the NIC's Protocol unit (§4.5 future work).

The paper ships with the Protocol unit idle (UDP-like, drops are lost) and
names "reliable transports and RPC-specific congestion control" as
follow-up work. This module implements that extension *in the NIC*, so
reliability costs no host CPU — the property section 6 argues hardware
RPC stacks enable.

Design (gap NACKs, cumulative ACKs, timeout backstop):

- the egress Protocol unit stamps each data packet with a per-connection
  sequence number and keeps it in a retransmit buffer;
- **gap NACK (fast retransmit)**: at wire arrival, before the ingress
  pipeline, the receiving unit keeps a per-(connection, peer) watermark of
  the highest data sequence seen; a packet above ``watermark + 1`` makes
  it NACK every sequence the wire skipped, once each. Late, retransmitted
  and duplicate packets (``seq <= watermark``) send nothing. The check
  sits at the wire because later NIC stages reorder one connection's
  packets across flows and batches;
- **receiver-drop NACK**: when the NIC must drop a packet that did arrive
  (flow FIFO or host RX ring full) it NACKs that sequence at once. The
  two NACK kinds cover disjoint sequences, so each hole is NACKed once;
- the ingress unit tracks, per (connection, peer), the highest
  contiguously delivered sequence and emits a cumulative **ACK** every
  ``ack_interval`` deliveries; a delayed flush ACK covers tails shorter
  than the interval;
- NACKs trigger retransmission from the buffer; ACKs free it;
- a sender-side **retransmission timeout** still re-sends *every* packet
  unACKed for ``rto_ns``, so recovery never depends on NACK/ACK delivery:
  a lost NACK or a lost retransmission costs the RTO, not liveness;
- the ingress unit suppresses duplicates (``seq <= highest`` or already
  pending) *before* host-ring delivery, so retransmission races, spurious
  gap NACKs after wire reordering, and wire duplication can never execute
  an RPC twice;
- when the sender gives up on a packet (``max_retries``), it emits a
  **SKIP** so the receiver closes the sequence hole and cumulative
  ACKing resumes past the abandoned seq.

Retransmissions always send a *copy* of the buffered packet: the egress
sequencer writes a request's destination in place from the connection
table, and the copy keeps that write off the buffered original, which a
later re-send or SKIP reads.

Control packets are NIC-terminated: they traverse the wire and the ingress
pipeline but never touch host rings — the host never sees the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.rpc.messages import RpcKind, RpcPacket

ACK_METHOD = "__ack__"
NACK_METHOD = "__nack__"
SKIP_METHOD = "__skip__"
CONTROL_BYTES = 16

#: Default retransmission timeout. Several wire RTTs (~3 us loopback) plus
#: headroom for the delayed flush ACK, so the timer only fires when an ACK
#: or the data really went missing.
DEFAULT_RTO_NS = 50_000
#: Receiver-side delayed-ACK flush: tails shorter than ``ack_interval``
#: get ACKed after this quiet period instead of waiting for the sender's
#: RTO to probe them. Must stay well under ``DEFAULT_RTO_NS``.
DEFAULT_ACK_FLUSH_NS = 20_000


@dataclass
class TransportStats:
    data_packets: int = 0
    retransmissions: int = 0
    timeout_retransmissions: int = 0  # subset triggered by the RTO timer
    acks_sent: int = 0
    nacks_sent: int = 0
    skips_sent: int = 0
    buffered_peak: int = 0
    lost_unrecoverable: int = 0  # sender gave up after max_retries
    duplicates_dropped: int = 0  # receiver-side suppression before the host
    stale_nacks: int = 0  # NACKs for packets already ACKed or given up


class ReliableTransport:
    """Per-NIC reliable Protocol unit."""

    def __init__(self, nic, ack_interval: int = 32, max_retries: int = 64,
                 rto_ns: Optional[int] = DEFAULT_RTO_NS,
                 ack_flush_ns: Optional[int] = DEFAULT_ACK_FLUSH_NS):
        if ack_interval < 1:
            raise ValueError(f"ack_interval must be >= 1, got {ack_interval}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if rto_ns is not None and rto_ns < 1:
            raise ValueError(f"rto_ns must be >= 1 or None, got {rto_ns}")
        self.nic = nic
        self.ack_interval = ack_interval
        self.max_retries = max_retries
        self.rto_ns = rto_ns
        self.ack_flush_ns = ack_flush_ns
        # Timers need the kernel; unit tests drive the transport with bare
        # fake NICs, where both timeout mechanisms simply stay off.
        self._sim = getattr(nic, "sim", None)
        self.stats = TransportStats()
        self._retries: Dict[Tuple[int, int], int] = {}
        # sender side: connection -> next seq; connection -> {seq: packet}.
        # Each per-connection buffer holds seqs in ascending insertion order
        # (first transmissions assign increasing seqs; retransmissions send
        # copies and never re-buffer), so a cumulative ACK frees a prefix
        # without scanning the rest.
        self._next_seq: Dict[int, int] = {}
        self._unacked: Dict[int, Dict[int, RpcPacket]] = {}
        self._sent_at: Dict[Tuple[int, int], int] = {}
        self._acked_upto: Dict[int, int] = {}
        self._rto_running = False
        # receiver side: (connection, peer) -> highest seq seen on the wire;
        # (connection, peer) -> highest contiguous seq delivered
        self._arrived: Dict[Tuple[int, str], int] = {}
        self._delivered: Dict[Tuple[int, str], int] = {}
        self._out_of_order: Dict[Tuple[int, str], set] = {}
        self._since_ack: Dict[Tuple[int, str], int] = {}
        self._flush_armed: set = set()

    # -- egress (sender) -------------------------------------------------------

    def on_egress(self, packet: RpcPacket) -> None:
        """Stamp a sequence number and buffer the packet for retransmit."""
        if packet.kind is RpcKind.CONTROL:
            return
        if packet.seq is None:
            seq = self._next_seq.get(packet.connection_id, 0)
            self._next_seq[packet.connection_id] = seq + 1
            packet.seq = seq
            self.stats.data_packets += 1
            buffer = self._unacked.get(packet.connection_id)
            if buffer is None:
                buffer = self._unacked[packet.connection_id] = {}
            buffer[seq] = packet
            self.stats.buffered_peak = max(self.stats.buffered_peak,
                                           self.unacked)
            if self._sim is not None:
                self._sent_at[(packet.connection_id, seq)] = self._sim.now
                self._arm_rto()
        elif self._sim is not None:
            # A retransmitted copy passing back through the pipeline: the
            # buffer still holds the original; just restart its RTO clock.
            key = (packet.connection_id, packet.seq)
            if key in self._sent_at:
                self._sent_at[key] = self._sim.now

    @property
    def unacked(self) -> int:
        return sum(len(buffer) for buffer in self._unacked.values())

    def timeline_probes(self):
        """Timeline probe set: in-flight window + protocol counters."""
        stats = self.stats
        return [
            ("unacked", "gauge", lambda: self.unacked),
            ("retransmissions", "counter",
             lambda: stats.retransmissions),
            ("acks_sent", "counter", lambda: stats.acks_sent),
            ("duplicates_dropped", "counter",
             lambda: stats.duplicates_dropped),
            ("lost_unrecoverable", "counter",
             lambda: stats.lost_unrecoverable),
        ]

    # -- retransmission timeout ------------------------------------------------

    def _arm_rto(self) -> None:
        if self._rto_running or self.rto_ns is None or self._sim is None:
            return
        self._rto_running = True
        self._sim.spawn(self._rto_loop())

    def _rto_loop(self):
        """Scan the retransmit buffer while anything is outstanding.

        Exits once the buffer drains (re-armed by the next first
        transmission), so an idle NIC schedules no events. Termination is
        guaranteed even with a dead peer: every entry either gets ACKed or
        exhausts ``max_retries`` and is given up.
        """
        sim = self._sim
        interval = max(1, self.rto_ns // 4)
        while self._unacked:
            yield interval
            cutoff = sim.now - self.rto_ns
            expired = [key for key, at in self._sent_at.items()
                       if at <= cutoff]
            for connection_id, seq in expired:
                self._retransmit(connection_id, seq, on_timeout=True)
        self._rto_running = False

    def _retransmit(self, connection_id: int, seq: int, *,
                    on_timeout: bool = False) -> bool:
        """Re-send a buffered packet as a copy; give up past max_retries."""
        buffer = self._unacked.get(connection_id)
        packet = None if buffer is None else buffer.get(seq)
        key = (connection_id, seq)
        if packet is None:
            self._sent_at.pop(key, None)
            return False
        retries = self._retries.get(key, 0)
        if retries >= self.max_retries:
            # A receiver that never drains: give up like a real transport
            # (otherwise NACK/retransmit livelocks the fabric).
            del buffer[seq]
            if not buffer:
                del self._unacked[connection_id]
            self._retries.pop(key, None)
            self._sent_at.pop(key, None)
            self.stats.lost_unrecoverable += 1
            self._emit_skip(packet)
            return False
        self._retries[key] = retries + 1
        self.stats.retransmissions += 1
        if on_timeout:
            self.stats.timeout_retransmissions += 1
        if self._sim is not None:
            self._sent_at[key] = self._sim.now
        self.nic.enqueue_egress(packet.src_flow
                                if packet.src_flow < self.nic.hard.num_flows
                                else 0, packet.clone())
        return True

    # -- ingress (receiver) -------------------------------------------------------

    def on_arrival(self, packet: RpcPacket) -> None:
        """Wire arrival: NACK every sequence the wire skipped.

        Runs before the ingress pipeline, while one connection's packets
        are still in wire order. Only a packet above the watermark moves
        it; everything the wire skipped below that packet gets one NACK.
        """
        seq = packet.seq
        if seq is None:
            return
        key = (packet.connection_id, packet.src_address)
        watermark = self._arrived.get(key, -1)
        if seq <= watermark:
            return
        self._arrived[key] = seq
        for missing in range(watermark + 1, seq):
            self._emit_control(NACK_METHOD, packet, missing)
            self.stats.nacks_sent += 1

    def on_delivered(self, packet: RpcPacket) -> bool:
        """Track delivery; emit a cumulative ACK every ack_interval.

        Returns ``True`` when the packet is fresh (deliver it to the host)
        and ``False`` for a duplicate the NIC must suppress. Duplicates
        still trigger an immediate re-ACK so a sender retransmitting into
        an ACK gap frees its buffer instead of probing until give-up.
        """
        if packet.seq is None:
            return True
        key = (packet.connection_id, packet.src_address)
        highest = self._delivered.get(key, -1)
        pending = self._out_of_order.get(key)
        if pending is None:
            pending = self._out_of_order[key] = set()
        if packet.seq <= highest or packet.seq in pending:
            self.stats.duplicates_dropped += 1
            if highest >= 0:
                self._emit_control(ACK_METHOD, packet, highest)
                self.stats.acks_sent += 1
                self._since_ack[key] = 0
            return False
        if packet.seq == highest + 1:
            highest += 1
            while highest + 1 in pending:
                pending.discard(highest + 1)
                highest += 1
            self._delivered[key] = highest
        else:
            pending.add(packet.seq)
        self._since_ack[key] = self._since_ack.get(key, 0) + 1
        if self._since_ack[key] >= self.ack_interval:
            acked = self._delivered.get(key, -1)
            if acked >= 0:
                self._since_ack[key] = 0
                self._emit_control(ACK_METHOD, packet, acked)
                self.stats.acks_sent += 1
        elif self._sim is not None and self.ack_flush_ns is not None \
                and key not in self._flush_armed:
            self._flush_armed.add(key)
            self._sim.call_after(self.ack_flush_ns, self._ack_flush, key)
        return True

    def _ack_flush(self, key) -> None:
        """Delayed ACK for tails that never reach ``ack_interval``."""
        self._flush_armed.discard(key)
        if self._since_ack.get(key, 0) > 0:
            highest = self._delivered.get(key, -1)
            if highest >= 0:
                self._since_ack[key] = 0
                self._emit_control_to(key[0], key[1], ACK_METHOD, highest)
                self.stats.acks_sent += 1

    def on_receiver_drop(self, packet: RpcPacket) -> None:
        """The NIC had to drop this packet: ask the sender to resend it."""
        if packet.seq is None or packet.kind is RpcKind.CONTROL:
            return
        self._emit_control(NACK_METHOD, packet, packet.seq)
        self.stats.nacks_sent += 1

    def _emit_control(self, method: str, cause: RpcPacket, seq: int) -> None:
        self._emit_control_to(cause.connection_id, cause.src_address,
                              method, seq, src_flow=cause.src_flow)

    def _emit_control_to(self, connection_id: int, dst_address: str,
                         method: str, seq: int, src_flow: int = 0) -> None:
        control = RpcPacket(
            kind=RpcKind.CONTROL,
            connection_id=connection_id,
            method=method,
            payload=seq,
            payload_bytes=CONTROL_BYTES,
            src_address=self.nic.address,
            dst_address=dst_address,
            src_flow=src_flow,
        )
        self.nic.enqueue_egress(0, control)

    def _emit_skip(self, packet: RpcPacket) -> None:
        """Tell the receiver to close the hole left by a given-up packet."""
        if not packet.dst_address:
            return
        self._emit_control_to(packet.connection_id, packet.dst_address,
                              SKIP_METHOD, packet.seq,
                              src_flow=packet.src_flow)
        self.stats.skips_sent += 1

    # -- control handling (back at the sender) -------------------------------------

    def on_control(self, packet: RpcPacket) -> None:
        if packet.method == ACK_METHOD:
            self._handle_ack(packet.connection_id, packet.payload)
        elif packet.method == NACK_METHOD:
            self._handle_nack(packet.connection_id, packet.payload)
        elif packet.method == SKIP_METHOD:
            self._handle_skip(packet)
        else:
            raise ValueError(f"unknown control method {packet.method!r}")

    def _handle_ack(self, connection_id: int, upto_seq: int) -> None:
        if upto_seq > self._acked_upto.get(connection_id, -1):
            self._acked_upto[connection_id] = upto_seq
        buffer = self._unacked.get(connection_id)
        if buffer is None:
            return
        # Ascending-seq invariant: stop at the first seq beyond the ACK
        # instead of scanning every buffered packet of every connection.
        freed = []
        for seq in buffer:
            if seq > upto_seq:
                break
            freed.append(seq)
        retries = self._retries
        for seq in freed:
            del buffer[seq]
            retries.pop((connection_id, seq), None)
            self._sent_at.pop((connection_id, seq), None)
        if not buffer:
            del self._unacked[connection_id]

    def _handle_nack(self, connection_id: int, seq: int) -> None:
        if seq <= self._acked_upto.get(connection_id, -1):
            # The dropped copy was a stray duplicate: the data is already
            # cumulatively ACKed, so there is nothing to resend.
            self.stats.stale_nacks += 1
            return
        buffer = self._unacked.get(connection_id)
        if buffer is None or seq not in buffer:
            # Not buffered and not ACKed: we gave up on it earlier (already
            # counted as lost) or the ACK freeing it is still in flight.
            self.stats.stale_nacks += 1
            return
        self._retransmit(connection_id, seq)

    def _handle_skip(self, packet: RpcPacket) -> None:
        """Sender abandoned this seq: treat it as virtually delivered."""
        key = (packet.connection_id, packet.src_address)
        seq = packet.payload
        highest = self._delivered.get(key, -1)
        if seq <= highest:
            return
        pending = self._out_of_order.get(key)
        if pending is None:
            pending = self._out_of_order[key] = set()
        pending.add(seq)
        if seq == highest + 1:
            while highest + 1 in pending:
                pending.discard(highest + 1)
                highest += 1
            self._delivered[key] = highest
            # The gap just closed: ACK immediately so the sender's buffer
            # (stalled behind the hole) frees without waiting for its RTO.
            self._since_ack[key] = 0
            self._emit_control(ACK_METHOD, packet, highest)
            self.stats.acks_sent += 1
