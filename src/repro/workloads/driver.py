"""The load driver every rig shares: issue lanes, a completion gate, and
one stall policy.

Every experiment drives its server with one of two client loops:

- a **closed loop** keeps at most ``window`` calls in flight on a client
  and issues the next one as soon as a slot frees (peak throughput:
  Table 3, Fig 10);
- an **open loop** issues on a schedule of intended send times (Poisson
  arrivals, or a session trace) whatever the server's state, and measures
  latency from the intended send, so client-side queueing past saturation
  counts against the tail (Fig 11, 12, 14, 15).

A :class:`LoadDriver` runs one such loop per *lane* (one client thread)
against one completion gate. A rig supplies only a per-request
``issue(item, intended_ns)`` that returns the call's generator (what to
send, and what to record when it completes) and calls
:meth:`LoadDriver.complete` from its completion callback.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim import SimulationError, Simulator

#: ``issue(item, intended_ns)`` -> the generator that issues one call.
Issue = Callable[[Any, int], Generator]


def split_quota(total: int, lanes: int) -> List[int]:
    """Split ``total`` requests over ``lanes`` without losing the remainder:
    the first ``total % lanes`` lanes issue one extra."""
    base, extra = divmod(total, lanes)
    return [base + (1 if i < extra else 0) for i in range(lanes)]


def poisson_schedule(sampler, items: Iterable, start_ns: int
                     ) -> Iterator[Tuple[int, Any]]:
    """``(due_ns, item)`` for each item, at Poisson arrivals from ``start_ns``.

    Each gap is drawn when the lane reaches its item, so lanes that share
    one ``sampler`` draw from it in the order they issue.
    """
    due = start_ns
    for item in items:
        due += sampler.sample_ns()
        yield due, item


def _wait(event) -> Generator:
    yield event


class LoadDriver:
    """Issue lanes plus the completion gate of one run.

    ``target`` completions trigger :attr:`done`. With ``target=None`` there
    is no gate and no ``done`` event: the lanes only count completions, for
    hosts whose engine runs them to full drain instead of :meth:`run`.
    ``clients`` are the RPC clients the lanes issue on: the stall policy of
    :meth:`run` fails their pending calls.
    """

    def __init__(self, sim: Simulator, target: Optional[int] = None,
                 clients: Sequence = ()):
        self.sim = sim
        self.target = target
        self.clients = clients
        self.completed = 0
        self.done = sim.event() if target is not None else None

    def complete(self) -> None:
        """Count one completed call; the ``target``-th triggers :attr:`done`."""
        self.completed += 1
        if self.completed == self.target and not self.done.triggered:
            self.done.succeed()

    def closed_lane(self, client, window: int, items: Iterable,
                    issue: Issue) -> None:
        """Issue every item on ``client`` with at most ``window`` in flight.

        A full window is polled every 100 ns; ``intended_ns`` is the issue
        time.
        """
        if window < 1:
            # A lane that can never issue would poll forever.
            raise ValueError(f"window must be >= 1, got {window}")
        self.sim.spawn(self._closed(client, window, items, issue))

    def open_lane(self, schedule: Iterable[Tuple[int, Any]],
                  issue: Issue) -> None:
        """Issue each ``(due_ns, item)`` of ``schedule`` at ``due_ns``.

        A lane that falls behind its schedule issues at once;
        ``intended_ns`` stays ``due_ns``.
        """
        self.sim.spawn(self._open(schedule, issue))

    def _closed(self, client, window, items, issue):
        sim = self.sim
        for item in items:
            while client.outstanding >= window:
                yield 100
            yield from issue(item, sim.now)

    def _open(self, schedule, issue):
        sim = self.sim
        for due, item in schedule:
            if due > sim.now:
                yield due - sim.now
            yield from issue(item, due)

    def run(self, drain: bool = True) -> None:
        """Run until :attr:`done`, then drain what is in flight if ``drain``.

        Stall policy: when the event heap drains before the gate (calls
        dropped on the fabric never complete), fail the clients' pending
        calls and drain, so the run reports its drops instead of raising.
        """
        sim = self.sim
        try:
            sim.run_until_done(sim.spawn(_wait(self.done)))
        except SimulationError:
            if sim.has_pending():
                raise  # a process failed: not a stall
            for client in self.clients:
                client.fail_pending("stalled: the event heap drained")
            sim.run()
            return
        if drain:
            sim.run()
