"""Run-ahead dispatch: a timed wait that is provably the next event fires
in place, inside the batch entries only."""

import pytest

from repro.sim import Simulator


def test_step_after_a_failure_left_run_fires_one_event():
    # The failure propagates out of the dispatch loop; its ``finally``
    # must reset the run-ahead limit, or the ticker's next step would
    # run all its remaining waits ahead in one call.
    sim = Simulator()
    ticks = []

    def ticker():
        for _ in range(10):
            ticks.append(sim.now)
            yield 5

    def failing():
        yield 1
        raise RuntimeError("boom")

    sim.spawn(ticker())
    sim.spawn(failing())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert (sim.now, ticks) == (1, [0])
    sim.step()
    assert (sim.now, ticks, sim.peek()) == (5, [0, 5], 10)


def test_a_lone_ticker_runs_ahead_and_every_event_is_counted():
    sim = Simulator()

    def ticker():
        for _ in range(10):
            yield 5

    sim.spawn(ticker())
    # The start event, then ten waits: the first is queued behind nothing
    # and runs ahead like the other nine.
    assert sim.run_horizon(None) == 11
    assert (sim.now, sim._ahead_count) == (50, 10)
