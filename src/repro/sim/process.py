"""Generator-coroutine processes for the simulator.

A process wraps a generator. Each value the generator yields must be an
:class:`~repro.sim.kernel.Event` — or a non-negative ``int``, which is a
fast-path shorthand for ``sim.timeout(n)`` (same scheduling order, no
Timeout object). The process sleeps until
that event triggers, then resumes with the event's value (or the event's
exception thrown in). A process is itself an event that triggers when the
generator returns, so processes can wait on each other by yielding the
handle.

A process's exit is dispatched as an event only when something waits on
it. A process that returns with no joiner is marked processed at once,
and a later ``yield proc`` takes the already-processed wakeup path. A
failure is always dispatched, so that an unobserved one still raises.

The resume path (``_resume`` -> ``generator.send``) runs once per simulated
event and is the hottest code in the repository. It is written as one flat
method: the generator's bound ``send`` is cached at spawn, the
resume callback itself is cached (``_resume_bound``) so registering a
waiter allocates nothing, kernel-pooled control events carry the
start/wakeup/interrupt scheduling, and finish/schedule steps push straight
onto the heap or the now-queue, with no scheduling helper in between.
An int wait that would be the next event popped runs ahead (see
:mod:`repro.sim.kernel`): the clock moves and the generator resumes at once.

The cached callback is a bound method of the process, so it is also a
reference cycle (process -> bound method -> process). Every exit path
drops it, so a finished process is freed by reference counting as soon as
nothing else holds it. Models spawn several short-lived processes per
packet; kept, the cycle would leave each of them for the cyclic collector
to find, and its passes would pause the run every few dozen RPCs. A
failed process still keeps one cycle: its stored exception's traceback
references the ``_resume`` frame.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim.kernel import (
    _NO_POOL,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


class Process(Event):
    """Handle for a running process; also an event (triggers at exit)."""

    __slots__ = ("_generator", "_send", "_resume_bound", "_waiting_on",
                 "_name", "_defused", "_timer")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        try:
            self._send = generator.send
        except AttributeError:
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget to call the process function?)"
            ) from None
        # Inlined Event.__init__ (a super() call per spawn is measurable on
        # fan-out-heavy models that spawn a process per packet).
        self.sim = sim
        self.callbacks = []
        self.triggered = False
        self.processed = False
        self.value = None
        self._exception = None
        self._recyclable = _NO_POOL
        self._generator = generator
        self._resume_bound = self._resume
        self._waiting_on: Optional[Event] = None
        self._defused = False
        # Lazily created reusable wakeup event for int-delay yields; its
        # value/_exception stay None forever and the dispatch loop never
        # resets or recycles it (_recyclable == _NO_POOL).
        self._timer: Optional[Event] = None
        self._name = name
        # Kick off on a zero-delay event so creation order == start order.
        start = sim._control_event()
        start.callbacks.append(self._resume_bound)
        start.triggered = True
        sim._nowq.append(start)

    @property
    def name(self) -> str:
        """The name given to ``spawn``, else the generator's name."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def __repr__(self) -> str:
        state = "alive" if not self.triggered else (
            "failed" if self._exception is not None else "done")
        return f"<Process {self.name!r} {state}>"

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        sim = self.sim
        interrupt_event = sim._control_event()
        interrupt_event.callbacks.append(self._deliver_interrupt)
        interrupt_event.triggered = True
        # Carried as the event's exception so delivery is just _resume's
        # ordinary throw path; value mirrors it for introspection.
        interrupt_event.value = cause
        interrupt_event._exception = Interrupt(cause)
        sim._nowq.append(interrupt_event)

    def _deliver_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # finished between scheduling and delivery
        target = self._waiting_on
        if target is not None and self._resume_bound in target.callbacks:
            target.callbacks.remove(self._resume_bound)
            if target is self._timer:
                # The detached timer is still scheduled; it will fire as a
                # callback-less no-op. Drop it so a later int yield can't
                # re-arm the same object while that stale entry is pending.
                self._timer = None
        self._resume(event)  # throws event._exception (the Interrupt)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        # _waiting_on is deliberately NOT cleared here: it is rewritten at
        # every new wait below, and its only reader (_deliver_interrupt)
        # guards on ``triggered`` and on membership of our callback, so a
        # stale value between waits is never observed. Skipping the store
        # saves one write per resume on the hottest path in the repo.
        exception = event._exception
        value = event.value
        while True:
            try:
                if exception is None:
                    target = self._send(value)
                else:
                    target = self._generator.throw(exception)
            except StopIteration as stop:
                self.triggered = True
                self.value = stop.value
                self._resume_bound = None
                # A thrown exception the generator caught before returning
                # has a traceback through the finished generator frame,
                # which Python 3.12 links back to this frame: keeping it in
                # a local here would close a cycle.
                del exception
                if self.callbacks:
                    self.sim._nowq.append(self)
                else:
                    # Nothing waits on this exit: skip its dispatch.
                    self.processed = True
                return
            except Exception as exc:  # includes Interrupt
                self._finish_fail(exc)
                return
            if type(target) is not int:
                break
            # Timed-wait fast path: ``yield delay_ns`` is equivalent to
            # ``yield sim.timeout(delay_ns)`` but skips the Timeout object
            # entirely — the resume rides this process's reusable timer
            # event (no pool traffic, no state reset).
            if target < 0:
                # Raised at the yield, where ``sim.timeout`` raises it, so
                # the generator's ``finally`` blocks run.
                value = None
                exception = SimulationError(
                    f"negative timeout delay: {target}")
                continue
            sim = self.sim
            when = sim.now + target
            heap = sim._heap
            # Run ahead (see repro.sim.kernel) when the timer would be the
            # next event popped. The heap head is tested first: on a busy
            # run it fails most often.
            if ((not heap or heap[0][0] > when) and not sim._nowq
                    and when < sim._ahead_limit):
                sim.now = when
                sim._ahead_count += 1
                value = exception = None
                continue
            timer = self._timer
            if timer is None:
                timer = self._timer = Event(sim)
                timer.triggered = True
            timer.callbacks.append(self._resume_bound)
            if target:
                heappush(heap, (when, sim._seq, timer))
                sim._seq += 1
            else:
                sim._nowq.append(timer)
            self._waiting_on = timer
            return
        if isinstance(target, Event):
            if not target.processed:
                self._waiting_on = target
                target.callbacks.append(self._resume_bound)
                return
            # Already fired: resume on a fresh zero-delay wakeup to preserve
            # run-to-completion semantics without recursion blowups.
            sim = self.sim
            wakeup = sim._control_event()
            wakeup.callbacks.append(self._resume_bound)
            wakeup.triggered = True
            if target._exception is not None:
                wakeup._exception = target._exception
            else:
                wakeup.value = target.value
            sim._nowq.append(wakeup)
            self._waiting_on = wakeup
            return
        if type(target) is float and target >= 0:
            # Slow-path parity with sim.timeout(float): rare, but models
            # with uncalibrated float latencies should keep working.
            sim = self.sim
            wakeup = sim._control_event()
            wakeup.callbacks.append(self._resume_bound)
            wakeup.triggered = True
            if target:
                heappush(sim._heap, (sim.now + target, sim._seq, wakeup))
                sim._seq += 1
            else:
                sim._nowq.append(wakeup)
            self._waiting_on = wakeup
            return
        self._finish_fail(
            SimulationError(
                f"process {self.name} yielded {target!r}; processes must "
                "yield Event instances or numeric delays"
            )
        )

    def _finish_fail(self, exc: BaseException) -> None:
        self.triggered = True
        self._exception = exc
        self._resume_bound = None
        sim = self.sim
        sim._nowq.append(self)

    def defuse(self) -> None:
        """Mark this process's failure as observed (it won't re-raise)."""
        self._defused = True

    def _run_callbacks(self) -> None:
        self.processed = True
        callbacks = self.callbacks
        if callbacks:
            snapshot = tuple(callbacks)
            callbacks.clear()
            for callback in snapshot:
                callback(self)
        elif self._exception is not None and not self._defused:
            # Nobody is waiting on this process: surface the failure rather
            # than letting it pass silently.
            raise self._exception
