"""Client-side RPC runtime: RpcClient, RpcClientPool, CompletionQueue.

Mirrors the paper's API (section 4.2): an ``RpcClientPool`` encapsulates a
pool of ``RpcClient`` objects that call remote procedures concurrently;
each client owns (a share of) one NIC flow and its RX/TX ring pair, and an
associated ``CompletionQueue`` that hands each completed call to a waiting
``pop()`` and counts every completion. Both asynchronous (non-blocking) and
synchronous (blocking) calls are supported, and the completion queue can
invoke continuation callbacks on responses.

A *port* is the stack-provided endpoint object (see
:class:`repro.stacks.base.StackPort`): it exposes ``send``/``rx_ring`` and
the CPU costs of the stack's TX/RX paths. The client's CQ poller runs as
its own simulation process but executes its CPU work on the same
``SoftwareThread``'s core, so receive processing naturally steals issue
capacity — that is what makes single-core throughput come out right.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from repro.hw.cpu import SoftwareThread
from repro.rpc.errors import RpcDroppedError, RpcError
from repro.rpc.messages import RpcKind, RpcPacket
from repro.sim.kernel import Event, Simulator


class RpcCall:
    """Future for one in-flight RPC."""

    __slots__ = ("packet", "event", "callback", "issued_at",
                 "completed_at", "response")

    def __init__(self, sim: Simulator, packet: RpcPacket,
                 callback: Optional[Callable[["RpcCall"], None]] = None):
        self.packet = packet
        self.event = Event(sim)
        self.callback = callback
        self.issued_at = sim.now
        self.completed_at: Optional[int] = None
        self.response: Optional[RpcPacket] = None

    @property
    def rpc_id(self) -> int:
        return self.packet.rpc_id

    @property
    def done(self) -> bool:
        return self.event.triggered

    @property
    def latency_ns(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def _complete(self, response: RpcPacket, now: int) -> None:
        self.response = response
        self.completed_at = now
        self.event.succeed(response)
        if self.callback is not None:
            self.callback(self)


class CompletionQueue:
    """Hands each completed call to a waiting ``pop()``; counts every
    completion (section 4.2's CompletionQueue object).

    A call that completes while no ``pop()`` waits is counted in
    ``completed_count`` and not kept: the caller already holds its
    ``RpcCall``, and keeping it here would grow memory with every request.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.completed_count = 0
        self._waiters: Deque[Event] = deque()

    def push(self, call: RpcCall) -> None:
        self.completed_count += 1
        if self._waiters:
            self._waiters.popleft().succeed(call)

    def pop(self) -> Event:
        """Event yielding the next RpcCall to complete (blocking get)."""
        event = Event(self.sim)
        self._waiters.append(event)
        return event


class RpcClient:
    """One RPC client bound to a stack port and a software thread.

    A client may carry several *connections* over its single ring pair —
    the Shared Receive Queue model of section 4.2 ("connections on a
    certain RpcClient share the same RX/TX ring"). ``connection_id`` is
    the default; per-call override via the ``connection_id`` argument.
    """

    #: Optional repro.obs.SpanTracer; None keeps the issue path hook-free.
    tracer = None

    def __init__(
        self,
        port,
        thread: SoftwareThread,
        connection_id: int,
        name: str = "",
        hedge_ns: Optional[int] = None,
        max_hedges: int = 1,
        hedge_budget: float = 0.05,
    ):
        self.port = port
        self.thread = thread
        self.connection_id = connection_id
        self.connections = {connection_id}
        self.name = name or f"client-conn{connection_id}"
        self.sim = thread.sim
        self.completion_queue = CompletionQueue(self.sim)
        self._pending: Dict[int, RpcCall] = {}
        self.calls_issued = 0
        self.calls_completed = 0
        # Request hedging (tail-tolerance): a call still pending after
        # ``hedge_ns`` is re-sent (up to ``max_hedges`` copies), but total
        # hedges are budgeted to ``1 + hedge_budget * calls_issued`` so a
        # systemic outage cannot stampede the fabric. None disables — the
        # issue path then schedules nothing extra. Duplicate responses are
        # already tolerated by the poller (late pop returns None).
        self.hedge_ns = hedge_ns
        self.max_hedges = max_hedges
        self.hedge_budget = hedge_budget
        self.hedges_sent = 0
        self.hedges_denied = 0
        self._poller = self.sim.spawn(self._poll_responses())

    # -- issue path -----------------------------------------------------------

    def add_connection(self, connection_id: int) -> None:
        """Register an additional connection sharing this client's rings
        (SRQ model); the stack-side registration happens via connect()."""
        self.connections.add(connection_id)

    def call_async(
        self,
        method: str,
        payload: Any,
        payload_bytes: int,
        lb_key: Optional[int] = None,
        connection_id: Optional[int] = None,
        callback: Optional[Callable[[RpcCall], None]] = None,
    ) -> Generator:
        """Issue a non-blocking call; returns the RpcCall future.

        Must be driven from the owning thread's process::

            call = yield from client.call_async("get", req, 64)
            ...
            response = yield call.event
        """
        if connection_id is None:
            connection_id = self.connection_id
        elif connection_id not in self.connections:
            raise RpcError(
                f"{self.name}: connection {connection_id} not registered "
                "on this client (add_connection first)"
            )
        packet = RpcPacket(
            kind=RpcKind.REQUEST,
            connection_id=connection_id,
            method=method,
            payload=payload,
            payload_bytes=payload_bytes,
            lb_key=lb_key,
        )
        call = RpcCall(self.sim, packet, callback=callback)
        self._pending[packet.rpc_id] = call
        self.calls_issued += 1
        if self.tracer is not None:
            self.tracer.record(packet.rpc_id, "req_issue", self.sim.now)
        # thread.exec(port.cpu_tx_ns(packet)) inlined via begin/end_exec
        # (issue path runs once per RPC).
        thread = self.thread
        slots = thread.core.slots
        if not slots.try_acquire():
            yield slots.request()
        scaled = thread.begin_exec(self.port.cpu_tx_ns(packet))
        try:
            yield scaled
        finally:
            thread.end_exec()
        yield from self.port.send(packet)
        if self.hedge_ns is not None:
            self.sim.spawn(self._hedge_call(call))
        return call

    def _hedge_call(self, call: RpcCall) -> Generator:
        """Re-send a straggling call after ``hedge_ns`` (tail tolerance).

        The hedge is a fresh wire-level packet (new transport seq) carrying
        the same ``rpc_id``, so whichever copy's response arrives first
        completes the call and the loser is ignored by the poller. Hedging
        trades duplicate *execution* for latency — only safe for
        idempotent methods, hence opt-in per client.
        """
        budget = self.max_hedges
        while budget > 0:
            yield self.hedge_ns
            if call.done or call.packet.rpc_id not in self._pending:
                return
            allowance = 1 + int(self.hedge_budget * self.calls_issued)
            if self.hedges_sent >= allowance:
                self.hedges_denied += 1
                return
            budget -= 1
            self.hedges_sent += 1
            copy = call.packet.clone()
            copy.seq = None  # a brand-new packet to the transport
            yield from self.thread.exec(self.port.cpu_tx_ns(copy))
            yield from self.port.send(copy)

    def call(self, method: str, payload: Any, payload_bytes: int,
             lb_key: Optional[int] = None,
             connection_id: Optional[int] = None) -> Generator:
        """Blocking call: returns the response packet."""
        call = yield from self.call_async(method, payload, payload_bytes,
                                          lb_key=lb_key,
                                          connection_id=connection_id)
        response = yield call.event
        return response

    # -- receive path ----------------------------------------------------------

    def _poll_responses(self) -> Generator:
        port = self.port
        rx_ring = port.rx_ring
        get = rx_ring.get
        try_get = rx_ring.try_get
        cpu_rx_ns = port.cpu_rx_ns
        thread = self.thread
        slots = thread.core.slots
        request = slots.request
        try_acquire = slots.try_acquire
        begin_exec = thread.begin_exec
        end_exec = thread.end_exec
        while True:
            packet = try_get()
            if packet is None:
                packet = yield get()
            if not try_acquire():
                yield request()
            scaled = begin_exec(cpu_rx_ns(packet))
            try:
                yield scaled
            finally:
                end_exec()
            if packet.kind is not RpcKind.RESPONSE:
                raise RpcError(
                    f"{self.name} received a non-response packet: {packet!r}"
                )
            call = self._pending.pop(packet.rpc_id, None)
            if call is None:
                continue  # late duplicate or cancelled call
            self.calls_completed += 1
            if self.tracer is not None:
                self.tracer.record(packet.rpc_id, "resp_complete",
                                   self.sim.now)
            call._complete(packet, self.sim.now)
            self.completion_queue.push(call)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def timeline_probes(self):
        """Timeline probe set: in-flight calls + completion counter."""
        return [
            ("outstanding", "gauge", lambda: len(self._pending)),
            ("calls_completed", "counter", lambda: self.calls_completed),
            ("hedges_sent", "counter", lambda: self.hedges_sent),
        ]

    def fail_pending(self, reason: str = "connection torn down") -> None:
        """Fail every in-flight call (used by tests and shutdown paths)."""
        pending, self._pending = self._pending, {}
        for call in pending.values():
            call.event.fail(RpcDroppedError(reason))


class RpcClientPool:
    """A pool of RpcClients for one client-server pair (section 4.2).

    ``make_client`` is a stack-provided factory; the pool hands out clients
    round-robin so multiple application threads can share it.
    """

    def __init__(self, make_client: Callable[[int], RpcClient], size: int):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.clients: List[RpcClient] = [make_client(i) for i in range(size)]
        self._next = 0

    def get_client(self) -> RpcClient:
        client = self.clients[self._next % len(self.clients)]
        self._next += 1
        return client

    def __len__(self) -> int:
        return len(self.clients)

    @property
    def total_completed(self) -> int:
        return sum(client.calls_completed for client in self.clients)
