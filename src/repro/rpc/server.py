"""Server-side RPC runtime: RpcThreadedServer and its threading models.

The paper's server API registers remote procedures as ``RpcServerThread``
objects wrapping server event loops and dispatch threads (section 4.2).
Two threading models, as in section 5.7:

- **dispatch** (the "Simple" model): RPC handlers run directly in the
  dispatch thread that polls the flow's RX ring — lowest latency, but a
  long-running handler blocks the flow (this is what limits the Flight
  service to 2.7 Krps in Table 4);
- **worker**: the dispatch thread only moves requests to a worker queue;
  a pool of worker threads runs the handlers and sends the responses —
  higher throughput for long handlers at the cost of the inter-thread
  hand-off latency.

Handlers are generator functions ``handler(ctx, payload)`` returning
``(response_payload, response_bytes)``; they do CPU work through
``ctx.exec(ns)`` (and may issue nested RPCs through clients bound to
``ctx.thread``, which is how the multi-tier applications are built).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Generator, List, Optional

from repro.hw.cpu import SoftwareThread
from repro.rpc.errors import MethodNotFoundError
from repro.rpc.messages import RpcPacket
from repro.sim.kernel import Simulator
from repro.sim.resources import Store


class ThreadingModel(enum.Enum):
    DISPATCH = "dispatch"  # handlers run in the dispatch thread
    WORKER = "worker"  # handlers run in separate worker threads


class HandlerContext:
    """What a handler sees while it runs."""

    def __init__(self, server: "RpcThreadedServer", thread: SoftwareThread,
                 packet: RpcPacket):
        self.server = server
        self.thread = thread
        self.packet = packet
        self.deferred_ns = 0

    @property
    def sim(self) -> Simulator:
        return self.thread.sim

    def exec(self, cost_ns: int) -> Generator:
        """Spend CPU time on the thread currently running the handler."""
        return self.thread.exec(cost_ns)

    def defer(self, cost_ns: int) -> None:
        """Schedule post-response work on the handling thread.

        The response goes out first; the thread then stays busy for
        ``cost_ns`` before taking its next request. In the dispatch model
        this blocks the whole flow (the Table 4 "Simple" bottleneck); in the
        worker model it only occupies one worker.
        """
        if cost_ns < 0:
            raise ValueError(f"negative deferred cost {cost_ns}")
        self.deferred_ns += cost_ns


class RpcServerThread:
    """One server event loop: a flow's RX ring + its dispatch thread."""

    #: Optional repro.obs.SpanTracer; None keeps the dispatch path hook-free.
    tracer = None

    def __init__(
        self,
        server: "RpcThreadedServer",
        port,
        thread: SoftwareThread,
        model: ThreadingModel = ThreadingModel.DISPATCH,
        workers: Optional[List[SoftwareThread]] = None,
        worker_queue_capacity: int = 256,
    ):
        self.server = server
        self.port = port
        self.thread = thread
        self.model = model
        self.workers = workers or []
        if model is ThreadingModel.WORKER and not self.workers:
            raise ValueError("worker threading model requires worker threads")
        self.sim = thread.sim
        self.requests_handled = 0
        self._worker_queue: Optional[Store] = None
        if model is ThreadingModel.WORKER:
            self._worker_queue = Store(
                self.sim,
                capacity=worker_queue_capacity,
                name="worker-queue",
                reject_when_full=True,
            )

    @property
    def worker_queue_drops(self) -> int:
        return self._worker_queue.drops if self._worker_queue else 0

    def start(self) -> None:
        self.sim.spawn(self._dispatch_loop())
        if self.model is ThreadingModel.WORKER:
            for worker in self.workers:
                self.sim.spawn(self._worker_loop(worker))

    # -- event loops ----------------------------------------------------------

    def _dispatch_loop(self) -> Generator:
        calibration = self.server.calibration
        dispatch_ns = calibration.cpu_dispatch_ns
        sim = self.sim
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
            if self.tracer is not None:
                self.tracer.record(packet.rpc_id, "req_dispatch",
                                   sim.now)
            if not try_acquire():
                yield request()
            scaled = begin_exec(cpu_rx_ns(packet) + dispatch_ns)
            try:
                yield scaled
            finally:
                end_exec()
            if self.model is ThreadingModel.DISPATCH:
                yield from self._handle(self.thread, packet)
            else:
                yield from self.thread.exec(calibration.cpu_worker_handoff_ns)
                self._worker_queue.try_put(packet)  # overflow counts as drop

    def _worker_loop(self, worker: SoftwareThread) -> Generator:
        wakeup_ns = self.server.calibration.cpu_worker_wakeup_ns
        queue = self._worker_queue
        while True:
            packet = queue.try_get()
            if packet is None:
                packet = yield queue.get()
            yield from worker.exec(wakeup_ns)
            yield from self._handle(worker, packet)

    def _handle(self, thread: SoftwareThread, packet: RpcPacket) -> Generator:
        handler = self.server.handler_for(packet.method)
        context = HandlerContext(self.server, thread, packet)
        tracer = self.tracer
        if tracer is not None:
            tracer.record(packet.rpc_id, "handler_start", self.sim.now)
        result = yield from handler(context, packet.payload)
        if tracer is not None:
            tracer.record(packet.rpc_id, "handler_done", self.sim.now)
        response_payload, response_bytes = result
        response = packet.make_response(response_payload, response_bytes)
        slots = thread.core.slots
        if not slots.try_acquire():
            yield slots.request()
        scaled = thread.begin_exec(self.port.cpu_tx_ns(response))
        try:
            yield scaled
        finally:
            thread.end_exec()
        yield from self.port.send(response)
        self.requests_handled += 1
        self.server.requests_handled += 1
        if context.deferred_ns:
            yield from thread.exec(context.deferred_ns)


class RpcThreadedServer:
    """A server process: handler registry + a set of server threads."""

    def __init__(self, sim: Simulator, calibration, name: str = "server"):
        self.sim = sim
        self.calibration = calibration
        self.name = name
        self._handlers: Dict[str, Callable] = {}
        self.server_threads: List[RpcServerThread] = []
        self.requests_handled = 0
        self._started = False

    def register_handler(self, method: str, handler: Callable) -> None:
        """Register ``handler(ctx, payload) -> (payload, bytes)`` generator."""
        if method in self._handlers:
            raise ValueError(f"handler for {method!r} already registered")
        self._handlers[method] = handler

    def handler_for(self, method: str) -> Callable:
        try:
            return self._handlers[method]
        except KeyError:
            raise MethodNotFoundError(
                f"{self.name} has no handler for {method!r} "
                f"(registered: {sorted(self._handlers)})"
            ) from None

    def add_server_thread(self, port, thread: SoftwareThread,
                          model: ThreadingModel = ThreadingModel.DISPATCH,
                          workers: Optional[List[SoftwareThread]] = None,
                          worker_queue_capacity: int = 256) -> RpcServerThread:
        server_thread = RpcServerThread(
            self, port, thread, model=model, workers=workers,
            worker_queue_capacity=worker_queue_capacity,
        )
        self.server_threads.append(server_thread)
        if self._started:
            server_thread.start()
        return server_thread

    def start(self) -> None:
        """Start all event loops (idempotent)."""
        if self._started:
            return
        self._started = True
        for server_thread in self.server_threads:
            server_thread.start()

    def timeline_probes(self):
        """Timeline probe set: aggregate service counter + worker backlog."""
        return [
            ("requests_handled", "counter", lambda: self.requests_handled),
            ("worker_backlog", "gauge",
             lambda: sum(len(t._worker_queue) if t._worker_queue is not None
                         else 0 for t in self.server_threads)),
        ]
