"""Shared resources: counted resources and FIFO stores.

These are the queueing building blocks of the hardware models: a
:class:`Resource` models a station with ``capacity`` parallel servers (a CPU
core, a bus with N outstanding slots, a DMA engine); a :class:`Store` models
a FIFO queue of items (a ring buffer, a flow FIFO, a completion queue).

Hot-path design (see docs/performance.md): grant/hand-off events are
single-shot and immediately yielded by every caller (``yield
resource.request()`` / ``yield store.get()``), so they are drawn from the
kernel's pooled-event free list instead of freshly allocated, and are
triggered with a single inlined heap push instead of the checked
:meth:`Event.succeed` path. The pooling contract this relies on: an event
returned by :meth:`Resource.request`, :meth:`Store.put` or :meth:`Store.get`
must be yielded before the process yields anything else, and must not be
kept after the yield resumes — the kernel recycles it as soon as its
callbacks have run.

Zero-yield fast paths: below saturation the dominant case is an *idle*
resource or a *non-empty* store, where the evented path above still pays a
pooled-event allocation, a now-queue append, and a full kernel dispatch
bounce per operation. :meth:`Resource.try_acquire`, :meth:`Store.try_get`
and :meth:`Store.try_put` resolve that case synchronously — no Event, no
now-queue entry, no kernel round-trip — and report failure so the caller
can fall back to the evented slow path::

    if not resource.try_acquire():
        yield resource.request()
    ...
    item = store.try_get()
    if item is None:
        item = yield store.get()
    ...
    if not store.try_put(item):
        yield store.put(item)          # only for non-rejecting stores

The fast paths never jump the FIFO queue (a Resource has waiters only at
capacity, where ``try_acquire`` fails; a Store has getters only when empty,
where ``try_get`` returns None and ``try_put`` hands off directly like
``put`` would), :meth:`Resource.release` pairs identically with both paths,
and :class:`Usage` integrals stay exact because every *mutating* fast path
advances the accounting exactly like its evented twin. The pooling rules
above are unchanged on the slow path. Note that a successful ``try_*``
resolves *before* events already queued at the current timestamp, so
converting a call site changes grant interleaving at equal timestamps —
such a conversion requires a determinism re-baseline (see
docs/performance.md §1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.kernel import _CONTROL_POOL, Event, SimulationError, Simulator


def _trigger_now(sim: Simulator, event: Event, value: Any = None) -> None:
    """Trigger an untriggered event at the current time (hot-path inline)."""
    event.triggered = True
    event.value = value
    sim._nowq.append(event)


class QueueFullError(SimulationError):
    """Raised when putting into a bounded Store configured to reject."""


class Usage:
    """Exact busy-time / queue-length accounting for a Resource or Store.

    ``busy_ns`` is the integral of the occupancy value over simulated time
    (server·ns for a :class:`Resource`, item·ns for a :class:`Store`);
    ``queue_ns`` is the integral of the wait-queue length. Mutation sites
    call :meth:`advance` *before* each state transition, passing the value
    that held since the previous advance — so the integrals are exact
    accounting, not sampling. Disabled cost is one attribute load and a
    ``is not None`` check per mutation (the PR-1 tracer pattern).
    """

    __slots__ = ("start_ns", "last_ns", "busy_ns", "queue_ns", "peak",
                 "queue_peak")

    def __init__(self, now: int = 0):
        self.start_ns = now
        self.last_ns = now
        self.busy_ns = 0
        self.queue_ns = 0
        self.peak = 0
        self.queue_peak = 0

    def advance(self, now: int, value: int, queue: int = 0) -> None:
        """Integrate the interval [last_ns, now) at the *pre-mutation* state."""
        dt = now - self.last_ns
        if dt:
            self.busy_ns += dt * value
            self.queue_ns += dt * queue
            self.last_ns = now
        if value > self.peak:
            self.peak = value
        if queue > self.queue_peak:
            self.queue_peak = queue

    def busy_integral(self, now: int, value: int) -> int:
        """``busy_ns`` including the still-open interval at ``value``."""
        return self.busy_ns + (now - self.last_ns) * value

    def queue_integral(self, now: int, queue: int) -> int:
        """``queue_ns`` including the still-open interval at ``queue``."""
        return self.queue_ns + (now - self.last_ns) * queue

    def utilization(self, now: int, value: int, capacity: int = 1) -> float:
        """Mean occupancy fraction since accounting was enabled."""
        span = now - self.start_ns
        if span <= 0:
            return 0.0
        return self.busy_integral(now, value) / (span * capacity)


class Resource:
    """A resource with ``capacity`` servers and a FIFO wait queue.

    Usage inside a process::

        grant = yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters", "usage")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Optional :class:`Usage` accounting (None = zero-cost disabled).
        self.usage: Optional[Usage] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def enable_usage(self) -> Usage:
        """Attach exact busy/queue-time accounting (idempotent)."""
        if self.usage is None:
            self.usage = Usage(self.sim.now)
        return self.usage

    def utilization(self, now: Optional[int] = None) -> float:
        """Mean busy fraction since :meth:`enable_usage` (0.0 if disabled)."""
        if self.usage is None:
            return 0.0
        if now is None:
            now = self.sim.now
        return self.usage.utilization(now, self._in_use, self.capacity)

    def request(self) -> Event:
        """Return an event that triggers when a server is granted.

        The event is pooled: yield it immediately, don't hold it.
        """
        sim = self.sim
        if self.usage is not None:
            self.usage.advance(sim.now, self._in_use, len(self._waiters))
        free = sim._control_free
        if free:
            event = free.pop()
        else:
            event = Event(sim)
            event._recyclable = _CONTROL_POOL
        if self._in_use < self.capacity:
            self._in_use += 1
            event.triggered = True
            sim._nowq.append(event)
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Zero-yield fast path: take a server now if one is idle.

        Returns True and occupies a server synchronously — no Event, no
        now-queue entry, no kernel dispatch — when ``in_use < capacity``;
        returns False otherwise (the caller then falls back to ``yield
        resource.request()``, queueing FIFO behind existing waiters).
        Never jumps the queue: waiters exist only while the resource is at
        capacity, where this fails. :meth:`release` pairs identically with
        both acquisition paths, and :class:`Usage` stays exact.
        """
        if self._in_use < self.capacity:
            if self.usage is not None:
                self.usage.advance(self.sim.now, self._in_use,
                                   len(self._waiters))
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Release one server; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self.usage is not None:
            self.usage.advance(self.sim.now, self._in_use, len(self._waiters))
        if self._waiters:
            waiter = self._waiters.popleft()
            _trigger_now(self.sim, waiter)
        else:
            self._in_use -= 1

    def use(self, service_time: int):
        """Process helper: acquire, hold for ``service_time`` ns, release."""
        grant = yield self.request()
        del grant
        try:
            yield service_time
        finally:
            self.release()


class Store:
    """A FIFO store of items with optional capacity.

    ``put`` blocks when the store is full (unless ``reject_when_full``, in
    which case it fails the put event with :class:`QueueFullError` — used to
    model packet drops). ``get`` blocks when the store is empty.

    Events returned by ``put``/``get`` are pooled: yield them immediately,
    don't hold them (see module docstring).
    """

    __slots__ = ("sim", "capacity", "name", "reject_when_full", "_items",
                 "_getters", "_putters", "drops", "on_get", "usage")

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "",
        reject_when_full: bool = False,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.reject_when_full = reject_when_full
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying .value = item
        self.drops = 0
        #: Optional observer invoked with each item handed to a consumer
        #: (used e.g. by credit-based flow control to watch ring drains).
        self.on_get = None
        #: Optional :class:`Usage` accounting (None = zero-cost disabled).
        #: ``busy_ns`` integrates the queue depth, ``queue_ns`` the number
        #: of blocked putters (backpressure).
        self.usage: Optional[Usage] = None

    def __len__(self) -> int:
        return len(self._items)

    def enable_usage(self) -> Usage:
        """Attach exact depth/backpressure accounting (idempotent)."""
        if self.usage is None:
            self.usage = Usage(self.sim.now)
        return self.usage

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def can_accept(self) -> bool:
        """Would ``try_put`` succeed right now?

        True when a getter is parked (direct hand-off) or there is spare
        capacity. Lets callers make an accept/reject decision *before*
        committing side effects that a failed put could not roll back.
        """
        if self._getters:
            return True
        return self.capacity is None or len(self._items) < self.capacity

    def put(self, item: Any) -> Event:
        """Return an event that triggers once the item is enqueued."""
        sim = self.sim
        if self.usage is not None:
            self.usage.advance(sim.now, len(self._items), len(self._putters))
        free = sim._control_free
        if free:
            event = free.pop()
        else:
            event = Event(sim)
            event._recyclable = _CONTROL_POOL
        capacity = self.capacity
        if self._getters:
            # Direct hand-off to the oldest waiting getter.
            getter = self._getters.popleft()
            _trigger_now(sim, getter, item)
            if self.on_get is not None:
                self.on_get(item)
            event.triggered = True
            sim._nowq.append(event)
        elif capacity is None or len(self._items) < capacity:
            self._items.append(item)
            event.triggered = True
            sim._nowq.append(event)
        elif self.reject_when_full:
            self.drops += 1
            event.fail(QueueFullError(f"store {self.name!r} full"))
        else:
            event.value = item
            self._putters.append(event)
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when full.

        Mirrors the evented :meth:`put` exactly short of the Event: a full
        ``reject_when_full`` store counts a drop (as ``put`` would when
        failing with :class:`QueueFullError`); a full *blocking* store
        counts nothing — the caller falls back to ``yield store.put(item)``
        and blocks, so nothing was dropped.
        """
        if self.usage is not None:
            self.usage.advance(self.sim.now, len(self._items),
                               len(self._putters))
        if self._getters:
            _trigger_now(self.sim, self._getters.popleft(), item)
            if self.on_get is not None:
                self.on_get(item)
            return True
        capacity = self.capacity
        if capacity is None or len(self._items) < capacity:
            self._items.append(item)
            return True
        if self.reject_when_full:
            self.drops += 1
        return False

    def get(self) -> Event:
        """Return an event that triggers with the oldest item."""
        sim = self.sim
        if self.usage is not None:
            self.usage.advance(sim.now, len(self._items), len(self._putters))
        free = sim._control_free
        if free:
            event = free.pop()
        else:
            event = Event(sim)
            event._recyclable = _CONTROL_POOL
        if self._items:
            item = self._items.popleft()
            event.triggered = True
            event.value = item
            sim._nowq.append(event)
            if self.on_get is not None:
                self.on_get(item)
            if self._putters and not self.is_full:
                putter = self._putters.popleft()
                self._items.append(putter.value)
                _trigger_now(sim, putter)
        elif self._putters:
            putter = self._putters.popleft()
            item = putter.value
            _trigger_now(sim, event, item)
            if self.on_get is not None:
                self.on_get(item)
            _trigger_now(sim, putter)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty.

        Zero-yield fast path of :meth:`get`: same FIFO order, same
        ``on_get`` notification, same blocked-putter admission — minus the
        Event and the kernel dispatch. Callers fall back to ``item = yield
        store.get()`` on None (which requires items to never be None; every
        in-tree store holds packets, slot ids, or credit tokens).
        """
        if self.usage is not None:
            self.usage.advance(self.sim.now, len(self._items),
                               len(self._putters))
        if self._items:
            item = self._items.popleft()
            if self.on_get is not None:
                self.on_get(item)
            if self._putters:
                capacity = self.capacity
                if capacity is None or len(self._items) < capacity:
                    putter = self._putters.popleft()
                    self._items.append(putter.value)
                    _trigger_now(self.sim, putter)
            return item
        return None
