"""A finished process is freed by reference counting.

A process caches its bound resume callback so that a wait allocates
nothing. That cache is a reference cycle (process -> bound method ->
process), so the process drops it when it exits; otherwise every
per-packet process would live until the cyclic collector found it.

Each case runs 100 processes through one normal exit path with the
collector off and the simulator still referenced, then asks the collector
how many unreachable objects the run left: none. Failure exits are not
covered here: a stored exception references the ``_resume`` frame through
its traceback, a cycle kept by design (``test_process_defuse.py`` covers
how failures surface).
"""

import gc

import pytest

from repro.sim import Interrupt, Simulator

N = 100


def timed_waits(sim):
    def proc():
        yield 5
        yield sim.timeout(7)
        return "done"

    for _ in range(N):
        sim.spawn(proc())


def processed_event(sim):
    fired = sim.event()
    fired.succeed("value")
    sim.run()
    assert fired.processed

    def proc():
        value = yield fired
        return value

    for _ in range(N):
        sim.spawn(proc())


def caught_interrupt(sim):
    def sleeper():
        try:
            yield 1_000
        except Interrupt:
            return "woken"

    def interrupter(targets):
        yield 1
        for target in targets:
            target.interrupt("stop")

    sim.spawn(interrupter([sim.spawn(sleeper()) for _ in range(N - 1)]))


@pytest.mark.parametrize("spawn", [timed_waits, processed_event,
                                   caught_interrupt],
                         ids=lambda spawn: spawn.__name__)
def test_finished_processes_leave_no_cyclic_garbage(spawn):
    sim = Simulator()
    gc.collect()
    gc.disable()
    try:
        spawn(sim)
        sim.run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_waiting_process_keeps_its_cached_callback():
    sim = Simulator()
    gate = sim.event()

    def proc():
        yield gate

    handle = sim.spawn(proc())
    sim.run()
    # While it waits, the registered callback is the cached bound method:
    # registering it allocated nothing.
    [callback] = gate.callbacks
    assert callback is handle._resume_bound
    gate.succeed()
    sim.run()
    assert handle.processed and handle._resume_bound is None
