"""Per-RPC span tracing in simulated time.

A *span* is the full lifecycle of one RPC: client issue -> NIC egress ->
wire -> ingress pipeline -> host dequeue -> handler -> response complete.
Each traced component calls :meth:`SpanTracer.record` with the RPC id, a
named trace *point*, and the current simulated time; :func:`repro.obs.breakdown.breakdown`
later folds the points into per-stage durations.

Tracing is opt-in. Every hookable component (``RpcClient``,
``RpcServerThread``, ``DaggerNic``, ``CpuNicInterface``) carries a class
attribute ``tracer = None``; hook sites guard with a single ``is not None``
check, so the disabled path costs one attribute load per packet and no
allocation.

Trace points are first-wins: a retransmitted or duplicated packet keeps
its span's first time at every point it passes again.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.rpc.messages import RpcKind, RpcPacket

#: Every trace point a span can carry, in lifecycle order. Request-leg
#: points are prefixed ``req_``, response-leg points ``resp_``; the server
#: handler points carry no prefix (they belong to the request's id).
CANONICAL_POINTS: Tuple[str, ...] = (
    "req_issue",           # client: call constructed (rpc/client.py)
    "req_sw_tx",           # client host handed the packet to the stack
    "req_nic_fetched",     # client NIC pulled it over the interconnect
    "req_wire_tx",         # client NIC put it on the wire
    "req_nic_rx",          # server NIC received it from the wire
    "req_host_delivered",  # server NIC wrote it into a host RX ring
    "req_dispatch",        # server dispatch thread dequeued it
    "handler_start",       # handler began executing
    "handler_done",        # handler returned a response payload
    "resp_sw_tx",          # server host handed the response to the stack
    "resp_nic_fetched",    # server NIC pulled the response
    "resp_wire_tx",        # server NIC put it on the wire
    "resp_nic_rx",         # client NIC received it
    "resp_host_delivered", # client NIC wrote it into the host RX ring
    "resp_complete",       # client: call completed (callback fired)
)

_POINT_INDEX = {point: i for i, point in enumerate(CANONICAL_POINTS)}


def packet_point(packet: RpcPacket, point: str) -> str:
    """Qualify a NIC-side trace point with the packet's direction."""
    prefix = "req" if packet.kind is RpcKind.REQUEST else "resp"
    return f"{prefix}_{point}"


class RpcSpan:
    """The recorded lifecycle of one RPC (trace point -> timestamp, ns)."""

    __slots__ = ("rpc_id", "events")

    def __init__(self, rpc_id: int):
        self.rpc_id = rpc_id
        self.events: Dict[str, int] = {}

    @property
    def complete(self) -> bool:
        """True once both endpoints of the lifecycle were recorded."""
        return "req_issue" in self.events and "resp_complete" in self.events

    @property
    def e2e_ns(self) -> Optional[int]:
        if not self.complete:
            return None
        return self.events["resp_complete"] - self.events["req_issue"]

    def ordered_events(self) -> List[Tuple[str, int]]:
        """Events sorted by canonical lifecycle order (unknown points last)."""
        return sorted(
            self.events.items(),
            key=lambda kv: (_POINT_INDEX.get(kv[0], len(CANONICAL_POINTS)),
                            kv[1]),
        )

    def to_record(self) -> dict:
        """A JSON-serializable view (for sinks)."""
        return {"type": "span", "rpc_id": self.rpc_id,
                "events": dict(self.ordered_events())}

    def __repr__(self) -> str:
        return f"RpcSpan(#{self.rpc_id}, {len(self.events)} events)"


class SpanTracer:
    """Accumulates :class:`RpcSpan` objects for every traced RPC.

    Also accepts bulk interconnect *transfer* events (which have no RPC
    identity — a CCI-P read moves a batch of requests at once); those are
    aggregated per component rather than stored individually.

    By default every span is retained for the lifetime of the tracer
    (unbounded — fine for the 4k-request reference runs, and what
    ``breakdown()`` wants). For long sweeps pass ``max_spans=N`` to keep a
    FIFO ring of the most recent N spans (oldest evicted, counted in
    ``spans_evicted``), or stream with :meth:`drain` (evict-on-consume).
    """

    def __init__(self, max_spans: Optional[int] = None):
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1 or None, got {max_spans}")
        self._spans: Dict[int, RpcSpan] = {}
        self.transfers: Dict[str, Dict[str, int]] = {}
        self.max_spans = max_spans
        self.spans_evicted = 0

    # -- per-RPC lifecycle events ------------------------------------------

    def record(self, rpc_id: int, point: str, t_ns: int) -> None:
        """Record a trace point for an RPC (first occurrence wins)."""
        span = self._spans.get(rpc_id)
        if span is None:
            span = RpcSpan(rpc_id)
            self._spans[rpc_id] = span
            if (self.max_spans is not None
                    and len(self._spans) > self.max_spans):
                # Dict preserves insertion order: the first key is the
                # oldest span (spans are created in issue order).
                oldest = next(iter(self._spans))
                del self._spans[oldest]
                self.spans_evicted += 1
        span.events.setdefault(point, t_ns)

    def record_packet(self, packet: RpcPacket, point: str, t_ns: int) -> None:
        """Record a direction-qualified point for a data packet.

        Control packets (ACK/NACK/CREDIT) carry no RPC lifecycle and are
        skipped.
        """
        if packet.kind is RpcKind.CONTROL:
            return
        self.record(packet.rpc_id, packet_point(packet, point), t_ns)

    # -- bulk interconnect transfers ---------------------------------------

    def record_transfer(self, component: str, lines: int, t_ns: int) -> None:
        """Account one interconnect transaction (``lines`` cache lines)."""
        agg = self.transfers.get(component)
        if agg is None:
            agg = {"transactions": 0, "lines": 0, "first_ns": t_ns,
                   "last_ns": t_ns}
            self.transfers[component] = agg
        agg["transactions"] += 1
        agg["lines"] += lines
        agg["last_ns"] = t_ns

    # -- access -------------------------------------------------------------

    def span(self, rpc_id: int) -> Optional[RpcSpan]:
        return self._spans.get(rpc_id)

    def spans(self) -> List[RpcSpan]:
        """All spans, in rpc-id order (== issue order for a single client)."""
        return [self._spans[k] for k in sorted(self._spans)]

    def __len__(self) -> int:
        return len(self._spans)

    def drain(self) -> List[RpcSpan]:
        """Consume and return all stored spans (evict-on-consume mode).

        Clears only the span store — transfer aggregates and the eviction
        counter survive, so a caller can drain periodically and keep
        streaming spans to a sink without unbounded growth.
        """
        spans = self.spans()
        self._spans.clear()
        return spans

    def clear(self) -> None:
        self._spans.clear()
        self.transfers.clear()
        self.spans_evicted = 0


def attach_tracer(tracer: Optional[SpanTracer], components: Iterable) -> None:
    """Point every component's ``tracer`` attribute at one tracer.

    Components are duck-typed: anything with a ``tracer`` slot/attribute
    (clients, server threads, NICs, interconnect interfaces) qualifies.
    Passing ``tracer=None`` detaches.
    """
    for component in components:
        component.tracer = tracer
