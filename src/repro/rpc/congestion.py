"""Credit-based flow control for the Protocol unit (§4.5 extension).

The other half of the paper's "RPC-optimized protocol layers" follow-up:
instead of recovering drops after the fact (see
:mod:`repro.rpc.transport`), prevent them — a receiver-driven credit
scheme, the congestion-control style the paper's citations (Homa, NeBuLa)
argue fits datacenter RPCs.

Mechanism:

- the sender NIC may have at most ``flow_control_credits`` data packets
  per connection outstanding beyond what the *receiver's host software*
  has consumed;
- the receiver NIC watches its host RX rings drain (the hardware sees the
  free-buffer bookkeeping of Fig 8) and returns credits in batches of
  ``credit_batch`` as NIC-terminated CREDIT control packets;
- a sender without credits parks the packet at the flow's egress
  sequencer until credits return (head-of-line within the flow, like a
  paused hardware queue).

Loss tolerance (CONTROL packets are excluded from the reliable transport,
so a dropped grant must not deflate the window forever):

- grants carry the receiver's **cumulative** consumed count, not an
  increment — any later grant supersedes a lost one, and the sender
  reconciles its token bank to exactly ``initial + consumed - sent``;
- the receiver flushes a sub-batch remainder after a quiet period, so a
  lost grant is re-covered by the next flush instead of never;
- a packet stalled for the full ``grant_timeout_ns`` optimistically
  self-heals by injecting one token (worst case the receiver ring
  overflows by one and the reliable transport recovers the drop); the next
  cumulative grant drains any over-injection back out. A stall that ended
  sooner is left alone, whatever else is parked when its timer expires.

Retransmitted copies (``packet.seq`` already set) ride free: their credit
was charged on first transmission and the receiver's dedup means they
consume no extra ring slot.

Sized so the credit window never exceeds the receiver's ring capacity,
ring overflow becomes impossible — zero drops instead of
drop-and-retransmit, at the price of throughput tracking the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Tuple

from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim.resources import Store

CREDIT_METHOD = "__credit__"
CREDIT_BYTES = 16

#: Sender-side stall watchdog: how long a packet may wait for credits
#: before the engine assumes the grant was lost and self-heals.
DEFAULT_GRANT_TIMEOUT_NS = 100_000
#: Receiver-side flush of a sub-batch remainder after a quiet period.
DEFAULT_FLUSH_NS = 25_000


@dataclass
class FlowControlStats:
    grants_sent: int = 0
    credits_granted: int = 0
    stalls: int = 0  # times a packet had to wait for credits
    credit_repairs: int = 0  # tokens injected by the stall watchdog
    reconcile_grants: int = 0  # grants emitted by the receiver flush timer
    stale_grants: int = 0  # reordered/duplicate grants ignored


class CreditFlowControl:
    """Per-NIC credit engine (sender and receiver roles)."""

    def __init__(self, nic, initial_credits: int, credit_batch: int,
                 grant_timeout_ns: int = DEFAULT_GRANT_TIMEOUT_NS,
                 flush_ns: int = DEFAULT_FLUSH_NS):
        if initial_credits < 1:
            raise ValueError(
                f"initial_credits must be >= 1, got {initial_credits}"
            )
        if credit_batch < 1:
            raise ValueError(f"credit_batch must be >= 1, got {credit_batch}")
        self.nic = nic
        self.initial_credits = initial_credits
        self.credit_batch = credit_batch
        self.grant_timeout_ns = grant_timeout_ns
        self.flush_ns = flush_ns
        self._sim = getattr(nic, "sim", None)
        self.stats = FlowControlStats()
        # Sender: per-connection credit token stores + window accounting.
        self._credits: Dict[int, Store] = {}
        self._sent: Dict[int, int] = {}  # first transmissions charged
        self._granted_cum: Dict[int, int] = {}  # highest grant seen
        self._waiting: Dict[int, int] = {}  # packets parked on the bank
        # Receiver: cumulative consumed / last reported per (conn, peer).
        self._consumed: Dict[Tuple[int, str], int] = {}
        self._reported: Dict[Tuple[int, str], int] = {}
        self._flush_armed: set = set()

    # -- sender side ------------------------------------------------------------

    def _tokens(self, connection_id: int) -> Store:
        store = self._credits.get(connection_id)
        if store is None:
            store = Store(self.nic.sim, name=f"credits-{connection_id}")
            for _ in range(self.initial_credits):
                store.try_put(1)
            self._credits[connection_id] = store
        return store

    def available_credits(self, connection_id: int) -> int:
        return len(self._tokens(connection_id))

    def try_acquire(self, packet: RpcPacket) -> bool:
        """Zero-yield fast path of :meth:`acquire`.

        Takes a banked credit synchronously (no generator, no Event, no
        kernel dispatch) — the dominant case below saturation. Returns
        False when the connection is out of credits; the caller then falls
        back to ``yield from flow_control.acquire(packet)``, which counts
        the stall and parks on the evented token get.
        """
        if packet.kind is RpcKind.CONTROL or packet.seq is not None:
            return True  # control packets and retransmissions ride free
        if self._tokens(packet.connection_id).try_get() is not None:
            conn = packet.connection_id
            self._sent[conn] = self._sent.get(conn, 0) + 1
            return True
        return False

    def acquire(self, packet: RpcPacket) -> Generator:
        """Block (in the egress sequencer) until a credit is available."""
        if packet.kind is RpcKind.CONTROL or packet.seq is not None:
            return
        conn = packet.connection_id
        tokens = self._tokens(conn)
        if tokens.try_get() is None:
            self.stats.stalls += 1
            waiting = self._waiting.get(conn, 0)
            if self._sim is not None and self.grant_timeout_ns:
                # Parked acquirers take tokens in FIFO order, and only they
                # charge ``_sent`` while any is parked: this stall ends when
                # ``_sent`` passes its value now plus the acquirers ahead.
                ends_after = self._sent.get(conn, 0) + waiting
                self._sim.spawn(self._stall_watchdog(conn, tokens, ends_after))
            self._waiting[conn] = waiting + 1
            yield tokens.get()
            self._waiting[conn] -= 1
        self._sent[conn] = self._sent.get(conn, 0) + 1

    def _stall_watchdog(self, conn: int, tokens: Store, ends_after: int):
        """Self-heal a stall that outlives any plausible grant latency.

        Repairs only the stall it was spawned for, and only if that stall
        lasted the full ``grant_timeout_ns``; a later stall on the same
        connection has its own watchdog.
        """
        yield self.grant_timeout_ns
        if self._sent.get(conn, 0) > ends_after or len(tokens) > 0:
            return
        # The grant covering this window was presumably lost on the wire.
        # Inject one token optimistically: worst case the receiver ring
        # overflows by one packet and the reliable transport recovers it;
        # the next cumulative grant reconciles the bank back down.
        self.stats.credit_repairs += 1
        tokens.try_put(1)

    # -- receiver side -------------------------------------------------------------

    def on_host_dequeue(self, packet: RpcPacket) -> None:
        """Host software consumed a packet: bank a credit for its sender."""
        if packet.kind is RpcKind.CONTROL:
            return
        key = (packet.connection_id, packet.src_address)
        consumed = self._consumed.get(key, 0) + 1
        self._consumed[key] = consumed
        if consumed - self._reported.get(key, 0) >= self.credit_batch:
            self._emit_grant(key)
        elif self._sim is not None and self.flush_ns \
                and key not in self._flush_armed:
            self._flush_armed.add(key)
            self._sim.call_after(self.flush_ns, self._flush_timer, key)

    def _flush_timer(self, key) -> None:
        """Grant a sub-batch remainder the batching rule would sit on."""
        self._flush_armed.discard(key)
        if self._consumed.get(key, 0) > self._reported.get(key, 0):
            self.stats.reconcile_grants += 1
            self._emit_grant(key)

    def _emit_grant(self, key: Tuple[int, str]) -> None:
        consumed = self._consumed.get(key, 0)
        increment = consumed - self._reported.get(key, 0)
        if increment <= 0:
            return
        self._reported[key] = consumed
        self.stats.grants_sent += 1
        self.stats.credits_granted += increment
        grant = RpcPacket(
            kind=RpcKind.CONTROL,
            connection_id=key[0],
            method=CREDIT_METHOD,
            # Cumulative consumed count: any later grant supersedes a lost
            # one, so a dropped CREDIT packet costs latency, not window.
            payload=consumed,
            payload_bytes=CREDIT_BYTES,
            src_address=self.nic.address,
            dst_address=key[1],
        )
        self.nic.enqueue_egress(0, grant)

    # -- control handling (back at the sender) ---------------------------------------

    def on_control(self, packet: RpcPacket) -> None:
        if packet.method != CREDIT_METHOD:
            raise ValueError(f"unknown control method {packet.method!r}")
        conn = packet.connection_id
        consumed = packet.payload
        if consumed <= self._granted_cum.get(conn, 0):
            self.stats.stale_grants += 1
            return
        self._granted_cum[conn] = consumed
        tokens = self._tokens(conn)
        # Reconcile the bank to exactly the window the receiver's cumulative
        # count implies: top up what lost grants starved, drain what the
        # stall watchdog over-injected. Parked acquirers have not charged
        # ``_sent`` yet, so handing them tokens here keeps the sum exact.
        target = self.initial_credits + consumed - self._sent.get(conn, 0)
        delta = target - len(tokens)
        while delta > 0:
            tokens.try_put(1)
            delta -= 1
        while delta < 0 and tokens.try_get() is not None:
            delta += 1
