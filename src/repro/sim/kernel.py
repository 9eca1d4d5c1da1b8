"""Event loop and primitive events for the discrete-event simulator.

The kernel keeps a binary heap of ``(time, sequence, event)`` triples. Each
:class:`Event` carries a list of callbacks; triggering an event schedules it
on the heap, and when the loop pops it the callbacks run at that simulated
time. Processes (see :mod:`repro.sim.process`) are generator coroutines that
suspend by yielding events and are resumed by a callback installed on the
yielded event.

Time is an integer number of nanoseconds. Determinism is guaranteed: events
scheduled for the same timestamp fire in scheduling order.

Hot-path design (see docs/performance.md): a simulated RPC is dominated by
the timeout/resume cycle, so the kernel avoids per-event overhead there.
``triggered``/``processed`` are plain slot attributes (no property
indirection), scheduling is inlined into the trigger paths (one ``heappush``
instead of a scheduling helper), one dispatch loop (``_dispatch``, behind
``run``, ``run_horizon`` and ``run_until_done``) caches heap/bound-method
lookups in locals, and short-lived kernel-owned events are recycled through
free lists instead of being reallocated:

- :class:`Timeout` objects created via :meth:`Simulator.timeout` are
  returned to a pool once the dispatch loop has fired their callbacks. This
  is safe because a timeout is single-shot and kernel-owned: every in-tree
  use is ``yield sim.timeout(...)``, which drops the reference on resume.
- Internal process-control events (spawn kick-off, post-processed wakeups,
  interrupt carriers) and the two events of each
  :meth:`Simulator.call_after` are pooled the same way via
  :meth:`Simulator._control_event`.

Events created with :meth:`Simulator.event` are *never* pooled — callers
hold those handles and may inspect ``triggered``/``value`` long after the
callbacks ran (e.g. completion gates).

Run-ahead: a process's int wait or a :meth:`Simulator.call_after` whose
event would be the next one the dispatch loop pops fires in place, with
no heap push or pop, when four conditions hold: the heap head is strictly
later (an entry at the same time has a smaller sequence number and fires
first), the now-queue is empty, the time is before the running entry's
exclusive horizon, and the callback is the only one of the event being
dispatched. ``step()`` never runs ahead. Events fired in place are
counted like popped ones, so no result or event count moves.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional

#: Upper bound on each free list; beyond this, recycled events are simply
#: dropped for the garbage collector (prevents pathological workloads from
#: pinning unbounded memory in the pools).
_POOL_CAP = 4096

#: ``Event._recyclable`` values: not pooled / Timeout pool / control pool.
_NO_POOL, _TIMEOUT_POOL, _CONTROL_POOL = 0, 1, 2

#: Horizon of a run with no stop time. An int, so that the dispatch loop's
#: test of each heap head compares int with int (``float('inf')`` would
#: make it an int-to-float comparison); simulated time never reaches it.
_NO_HORIZON = 1 << 62

#: Lazily bound Process class (avoids a circular import; resolved once by
#: the first ``spawn`` instead of re-importing per call).
_Process = None


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. re-triggering)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (which schedules it on the event loop), and is
    *processed* once its callbacks have run. Processes yield events to wait
    for them; the value passed to :meth:`succeed` becomes the result of the
    ``yield`` expression.

    ``triggered`` and ``processed`` are plain attributes, written only by
    the kernel; treat them as read-only flags.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "triggered",
        "processed",
        "value",
        "_exception",
        "_recyclable",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.processed = False
        self.value: Any = None
        self._exception: Optional[BaseException] = None
        self._recyclable = _NO_POOL

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self.triggered and self._exception is None

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully ``delay`` ns from now."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.triggered = True
        self.value = value
        sim = self.sim
        if delay:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            sim._nowq.append(self)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.triggered = True
        self._exception = exception
        sim = self.sim
        if delay:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            sim._nowq.append(self)
        return self

    def _run_callbacks(self) -> None:
        self.processed = True
        callbacks = self.callbacks
        if len(callbacks) == 1:
            # The dominant case: exactly one waiter (a process resume).
            # Dispatch it directly instead of snapshotting the list.
            callback = callbacks[0]
            callbacks.clear()
            callback(self)
        elif callbacks:
            snapshot = tuple(callbacks)
            callbacks.clear()
            for callback in snapshot:
                callback(self)


class Timeout(Event):
    """An event that triggers itself ``delay`` ns after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + succeed(): a timeout is born triggered
        # and scheduled, so skip the pending state entirely.
        self.sim = sim
        self.callbacks = []
        self.triggered = True
        self.processed = False
        self.value = value
        self._exception = None
        self._recyclable = _TIMEOUT_POOL
        if delay:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            sim._nowq.append(self)


#: Gate of a run that stops only at its horizon or when nothing is
#: scheduled: an event that never triggers.
_NEVER = Event(None)


def _arm_call(arm: Event) -> None:
    """First half of :meth:`Simulator.call_after`: schedule the call, or
    run it ahead (see the module docstring) by calling ``fn(arg)`` now."""
    sim = arm.sim
    call = arm.value
    delay = call[0]
    when = sim.now + delay
    heap = sim._heap
    if ((not heap or heap[0][0] > when) and not sim._nowq
            and when < sim._ahead_limit):
        sim.now = when
        sim._ahead_count += 1
        call[1](call[2])
        return
    fire = sim._control_event()
    fire.callbacks.append(_fire_call)
    fire.triggered = True
    fire.value = call
    if delay:
        heappush(heap, (when, sim._seq, fire))
        sim._seq += 1
    else:
        sim._nowq.append(fire)


def _fire_call(fire: Event) -> None:
    """Second half of :meth:`Simulator.call_after`: make the call."""
    _, fn, arg = fire.value
    fn(arg)


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        def proc(sim):
            yield sim.timeout(10)
            return 42
        handle = sim.spawn(proc(sim))
        sim.run()
        assert handle.value == 42
    """

    __slots__ = ("now", "_heap", "_nowq", "_seq", "_timeout_free",
                 "_control_free", "_ahead_limit", "_ahead_count")

    def __init__(self):
        self.now: int = 0
        self._heap: list = []
        # Zero-delay events (grants, hand-offs, process control — the
        # majority) bypass the heap through this FIFO: a deque append/
        # popleft is much cheaper than a heap siftdown/siftup, and the
        # smaller heap makes the remaining timed pushes cheaper too.
        # Firing order stays exact: time only advances when this queue
        # is empty, so every heap entry due at the current time was
        # scheduled before everything queued here and fires first (see
        # the pop logic in _pop_next); within the queue, FIFO == scheduling
        # order. Heap entries keep a seq tie-break for equal times.
        self._nowq: deque = deque()
        self._seq: int = 0
        self._timeout_free: list = []
        self._control_free: list = []
        # Run-ahead (see _dispatch): the horizon during a single-callback
        # dispatch, else 0; and the count of events fired in place.
        self._ahead_limit = 0
        self._ahead_count = 0

    # -- scheduling ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event (never pooled; safe to hold)."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` ns from now."""
        free = self._timeout_free
        if free:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            timeout = free.pop()
            timeout.triggered = True
            timeout.value = value
            if delay:
                heappush(self._heap, (self.now + delay, self._seq, timeout))
                self._seq += 1
            else:
                self._nowq.append(timeout)
            return timeout
        return Timeout(self, delay, value)

    def _control_event(self) -> Event:
        """A pooled kernel-internal event (process control, ``call_after``).

        The caller must fully configure it (callbacks, trigger state) and
        must not expose it outside the kernel: it is recycled as soon as the
        dispatch loop has fired its callbacks.
        """
        free = self._control_free
        if free:
            return free.pop()
        event = Event(self)
        event._recyclable = _CONTROL_POOL
        return event

    def spawn(self, generator: Generator, name: str = "") -> "Process":
        """Start a new process from a generator coroutine."""
        global _Process
        if _Process is None:
            from repro.sim.process import Process as _Process  # noqa: F811
        return _Process(self, generator, name)

    def call_after(self, delay: int, fn: Callable[[Any], None],
                   arg: Any) -> None:
        """Call ``fn(arg)`` ``delay`` ns from now, without a process.

        Fires in exactly the order a process spawned now as ``yield delay;
        fn(arg)`` would run: a pooled zero-delay event queued behind
        everything due now arms a second pooled event, which draws its
        heap sequence number at the moment that process's timer would.
        An exception raised by ``fn`` propagates out of the run.
        """
        if delay < 0:
            raise SimulationError(f"negative call_after delay: {delay}")
        arm = self._control_event()
        arm.callbacks.append(_arm_call)
        arm.triggered = True
        arm.value = (delay, fn, arg)
        self._nowq.append(arm)

    # -- execution ----------------------------------------------------------

    def _pop_next(self) -> Event:
        """Pop the next event in exact (time, seq) order, advancing ``now``.

        Zero-delay events live in ``_nowq`` (all scheduled at the current
        time, FIFO); timed events live in the heap. A heap entry due at the
        current time always predates the queued events (time only advances
        when the queue is empty), so it fires first.
        """
        nowq = self._nowq
        if nowq:
            heap = self._heap
            if heap and heap[0][0] <= self.now:
                when, _, event = heappop(heap)
                self.now = when
                return event
            return nowq.popleft()
        when, _, event = heappop(self._heap)
        self.now = when
        return event

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`SimulationError` when nothing is scheduled, like the
        kernel's other misuse paths (rather than leaking a bare
        ``IndexError`` from the heap). Events fired through ``step`` are
        not recycled — only the dispatch loop feeds the pools — and never
        run ahead: the run-ahead limit is 0 outside the dispatch loop.
        """
        if not self._heap and not self._nowq:
            raise SimulationError("no scheduled events")
        self._pop_next()._run_callbacks()

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if nothing is scheduled."""
        if self._nowq:
            return self.now
        return self._heap[0][0] if self._heap else None

    def has_pending(self) -> bool:
        """True when any event is scheduled (a run would continue).

        Used by self-terminating background processes (e.g. the telemetry
        sampler) to avoid keeping an otherwise-finished simulation alive.
        """
        return bool(self._nowq or self._heap)

    def _dispatch(self, horizon, gate) -> int:
        """Fire events in exact order until one of three stops; count them.

        The one pop/dispatch/recycle loop: :meth:`run`, :meth:`run_horizon`
        and :meth:`run_until_done` are entries over it. It stops before the
        first event at or after the exclusive ``horizon``, as soon as
        ``gate.triggered`` is set (tested before each event), or when
        nothing is scheduled, and leaves the clock at the last event fired.
        The horizon is tested on heap heads only: a now-queue event is due
        at ``now``, which every entry keeps below the horizon.

        The body inlines the dual-queue pop of :meth:`_pop_next`, the
        single-callback dispatch of :meth:`Event._run_callbacks` and the
        pool recycling: at one pooled event per timeout/resume cycle, the
        method-call overhead of the factored versions is the single
        largest kernel cost.

        Run-ahead (see the module docstring): ``_ahead_limit`` is the
        horizon while a single callback runs, and 0 around a
        multi-callback dispatch and after every exit. The count includes
        the events run ahead. The cached ``now`` may then lag the clock,
        which is safe: it is compared only with heap heads, and every heap
        entry is later than the clock after run-ahead (``inject`` runs
        between runs).
        """
        heap = self._heap
        nowq = self._nowq
        pop = heappop
        popleft = nowq.popleft
        tfree = self._timeout_free
        cfree = self._control_free
        now = self.now
        count = 0
        ahead = self._ahead_count
        self._ahead_limit = horizon
        # ``while True`` with the gate tested inside, not ``while not
        # gate.triggered``: CPython 3.11 specializes a function's bytecode
        # only once its calls plus unconditional back-edges reach a
        # warm-up count, and this function is called once per run. With
        # a conditional back-edge, a million-event pump in a fresh
        # interpreter ran unspecialized, about 1.5x slower.
        try:
            while True:
                if gate.triggered:
                    break
                if nowq:
                    if heap and heap[0][0] <= now:
                        head = pop(heap)
                        now = self.now = head[0]
                        event = head[2]
                    else:
                        event = popleft()
                elif heap:
                    when = heap[0][0]
                    if when >= horizon:
                        break
                    event = pop(heap)[2]
                    now = self.now = when
                else:
                    break
                count += 1
                callbacks = event.callbacks
                recyclable = event._recyclable
                if recyclable:
                    # Pooled single-shot event: dispatch without touching
                    # the ``processed`` flag (it is reset here anyway) and
                    # refile.
                    try:
                        [callback] = callbacks
                    except ValueError:
                        self._ahead_limit = 0
                        event._run_callbacks()
                        self._ahead_limit = horizon
                        event.processed = False
                    else:
                        callbacks.clear()
                        callback(event)
                        if callbacks:
                            callbacks.clear()
                    event.triggered = False
                    event.value = None
                    event._exception = None
                    free = tfree if recyclable == _TIMEOUT_POOL else cfree
                    if len(free) < _POOL_CAP:
                        free.append(event)
                elif not callbacks:
                    # No waiter, e.g. the exit of a process nobody joins.
                    # Test before the unpack, which would raise and catch
                    # here; _run_callbacks re-raises an unobserved process
                    # failure.
                    event._run_callbacks()
                else:
                    try:
                        [callback] = callbacks
                    except ValueError:
                        self._ahead_limit = 0
                        event._run_callbacks()
                        self._ahead_limit = horizon
                    else:
                        event.processed = True
                        callbacks.clear()
                        callback(event)
        finally:
            self._ahead_limit = 0
        return count + self._ahead_count - ahead

    def run(self, until: Optional[int] = None) -> None:
        """Run until the heap drains or simulated time passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` and
        any events scheduled later stay on the heap (the simulator can be
        resumed with another ``run`` call).
        """
        if until is None:
            self._dispatch(_NO_HORIZON, _NEVER)
            return
        if until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        # An event at exactly ``until`` fires, so the exclusive horizon is
        # the next float above it. ``until + 1`` would also fire an event
        # at a float time such as ``until + 0.5``.
        self._dispatch(math.nextafter(until, math.inf), _NEVER)
        self.now = until

    def inject(self, when: int, action: Callable[[], None],
               seq_key: Optional[int] = None) -> None:
        """Schedule ``action()`` at absolute simulated time ``when``.

        Entry point for externally produced event batches (the sharded
        engine delivers cross-shard packets through this). By default the
        callback is interleaved with locally scheduled events in exact
        ``(time, seq)`` order: an injected event at time ``t`` fires after
        same-``t`` events that were already scheduled and before same-``t``
        events scheduled later — an order that depends on *when* the
        injection happened relative to local scheduling.

        ``seq_key`` decouples that: when given, it replaces the local
        sequence number as the heap tie-break, so the position of the
        injected event among same-timestamp events is a pure function of
        the key — independent of how the caller batches its injections.
        Negative keys fire before every locally scheduled event at the
        same timestamp (local sequence numbers start at 0). Callers must
        guarantee keys are unique per ``(when, seq_key)`` pair; the sharded
        engine derives them from the canonical ``(src_host, seq)`` commit
        identity. ``when`` must not lie in this simulator's past.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot inject at {when}: simulator clock is at {self.now}"
            )
        event = Event(self)
        event.triggered = True
        event.callbacks.append(lambda _event: action())
        if when == self.now and seq_key is None:
            self._nowq.append(event)
        elif seq_key is not None:
            heappush(self._heap, (when, seq_key, event))
        else:
            heappush(self._heap, (when, self._seq, event))
            self._seq += 1

    def run_horizon(self, horizon: Optional[int]) -> int:
        """Process every event strictly before ``horizon``; count them.

        The conservative-window entry point for sharded simulation: unlike
        :meth:`run`, the boundary is *exclusive* (an event at exactly
        ``horizon`` stays pending — it may still race with a cross-shard
        arrival at the same timestamp) and the clock is left at the last
        processed event rather than fast-forwarded, so a later
        :meth:`inject` at any ``t >= horizon`` keeps exact ordering against
        the events that remain on the heap.

        ``horizon=None`` is the *drain* grant: no boundary at all — run
        until the heap is empty. The adaptive sharded coordinator issues it
        when every host has proven it cannot produce another cross-shard
        packet, collapsing the run-out into a single window.

        Returns the number of events dispatched in this window.
        """
        if horizon is None:
            horizon = _NO_HORIZON
        elif self._nowq and self.now >= horizon:
            raise SimulationError(
                f"horizon {horizon} is not ahead of pending work at {self.now}"
            )
        return self._dispatch(horizon, _NEVER)

    def run_until_done(self, process: "Process") -> Any:
        """Run until a given process finishes; return its value.

        Raises the process's exception if it failed, and
        :class:`SimulationError` if nothing is scheduled before it finishes
        (a deadlock).
        """
        self._dispatch(_NO_HORIZON, process)
        if not process.triggered:
            raise SimulationError(
                "event heap drained before process completed (deadlock?)"
            )
        if process._exception is not None:
            process.defuse()
            raise process._exception
        return process.value
