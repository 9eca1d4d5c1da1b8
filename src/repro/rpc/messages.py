"""RPC wire format.

An :class:`RpcPacket` is the unit that moves through the whole system: the
client stub builds one, the NIC fetches it over the interconnect, the
transport sends it through the switch, and the server ring delivers it to a
dispatch thread. Request types are distinguished by the ``kind`` field that
"is a part of every RPC packet" (section 4.4), making the stack symmetric.

A packet carries no timestamps. The span tracer (:mod:`repro.obs.trace`)
records each named trace point per RPC id when tracing is on, and the Fig 3
latency breakdown is folded from its spans.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

HEADER_BYTES = 16  # rpc id, connection id, flow, kind, method id, length


class RpcKind(enum.Enum):
    REQUEST = "request"
    RESPONSE = "response"
    CONTROL = "control"  # NIC-terminated transport packets (ACK/NACK)


_packet_ids = itertools.count()


class RpcPacket:
    """One RPC message (request or response).

    A plain slotted class rather than a dataclass: tens of thousands are
    created per run (one per request plus one per response), and the
    dataclass-generated ``__init__``/``__post_init__`` hop costs real time
    on the issue path. Field order and defaults match the original
    dataclass signature exactly.
    """

    __slots__ = ("kind", "connection_id", "method", "payload",
                 "payload_bytes", "src_address", "dst_address", "src_flow",
                 "rpc_id", "lb_key", "seq")

    def __init__(
        self,
        kind: RpcKind,
        connection_id: int,
        method: str,
        payload: Any,
        payload_bytes: int,
        src_address: str = "",
        dst_address: str = "",
        src_flow: int = 0,
        rpc_id: Optional[int] = None,
        lb_key: Optional[int] = None,  # key hash for object-level LB
        seq: Optional[int] = None,  # per-connection seq (reliable transport)
    ):
        if payload_bytes < 0:
            raise ValueError(f"negative payload size {payload_bytes}")
        self.kind = kind
        self.connection_id = connection_id
        self.method = method
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.src_address = src_address
        self.dst_address = dst_address
        self.src_flow = src_flow
        self.rpc_id = next(_packet_ids) if rpc_id is None else rpc_id
        self.lb_key = lb_key
        self.seq = seq

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes

    def lines(self, line_bytes: int = 64) -> int:
        """Cache lines this packet occupies in host/NIC buffers."""
        # wire_bytes inlined: this runs several times per packet on the
        # TX/RX cost paths and the property descriptor hop is measurable.
        return max(1, -(-(HEADER_BYTES + self.payload_bytes) // line_bytes))

    def clone(self) -> "RpcPacket":
        """Independent copy with the same identity (rpc_id, seq).

        The send path writes a packet's addresses, flow and ``seq`` in
        place, so a packet sent again must be a *distinct object*: a hedged
        request clears its copy's ``seq`` to be numbered afresh while the
        original stays in the retransmit buffer under its own.
        """
        return RpcPacket(
            kind=self.kind,
            connection_id=self.connection_id,
            method=self.method,
            payload=self.payload,
            payload_bytes=self.payload_bytes,
            src_address=self.src_address,
            dst_address=self.dst_address,
            src_flow=self.src_flow,
            rpc_id=self.rpc_id,
            lb_key=self.lb_key,
            seq=self.seq,
        )

    def make_response(self, payload: Any, payload_bytes: int) -> "RpcPacket":
        """Build the response packet for this request (addresses swapped)."""
        if self.kind is not RpcKind.REQUEST:
            raise ValueError("responses can only be built from requests")
        return RpcPacket(
            kind=RpcKind.RESPONSE,
            connection_id=self.connection_id,
            method=self.method,
            payload=payload,
            payload_bytes=payload_bytes,
            src_address=self.dst_address,
            dst_address=self.src_address,
            src_flow=self.src_flow,
            rpc_id=self.rpc_id,  # responses carry the request's id
        )

    def __repr__(self) -> str:
        return (
            f"RpcPacket(#{self.rpc_id} {self.kind.value} {self.method} "
            f"conn={self.connection_id} {self.payload_bytes}B)"
        )
