"""Additional kernel coverage: peek, Event.ok, process naming, fail API,
late joiners and ``call_after``."""

import pytest

from repro.sim import Simulator, SimulationError


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(25)
    sim.timeout(10)
    assert sim.peek() == 10


def test_event_ok_semantics():
    sim = Simulator()
    good = sim.event()
    assert not good.ok
    good.succeed()
    assert good.ok
    bad = sim.event()
    bad.fail(RuntimeError("x"))
    assert bad.triggered and not bad.ok
    # The failure is consumed by this check; drain without waiters raising
    # would be wrong here, so attach a swallow callback.
    bad.callbacks.append(lambda e: None)
    good.callbacks.append(lambda e: None)
    sim.run()


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_process_name_defaults_to_generator_name():
    sim = Simulator()

    def my_proc():
        yield sim.timeout(1)

    handle = sim.spawn(my_proc())
    assert handle.name == "my_proc"
    assert handle.is_alive
    sim.run()
    assert not handle.is_alive


def test_run_until_done_propagates_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise KeyError("boom")

    handle = sim.spawn(bad())
    with pytest.raises(KeyError):
        sim.run_until_done(handle)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(5, value="payload")
        return value

    assert sim.run_until_done(sim.spawn(proc())) == "payload"


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        event.succeed(delay=-1)


@pytest.mark.parametrize("arrival", [1, 5])
def test_joiner_after_return_resumes_with_the_value(arrival):
    # The process returns at t=1 with nothing waiting on it; the joiner
    # arrives afterwards, at the same timestamp or later.
    sim = Simulator()

    def quick():
        yield 1
        return "value"

    def late_joiner():
        yield arrival
        assert not target.is_alive
        result = yield target
        return result, sim.now

    target = sim.spawn(quick())
    joiner = sim.spawn(late_joiner())
    assert sim.run_until_done(joiner) == ("value", arrival)


def test_call_after_rejects_a_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative call_after delay: -1"):
        sim.call_after(-1, print, "never")
    assert sim.peek() is None


def test_call_after_exception_leaves_run():
    sim = Simulator()

    def boom(arg):
        raise ValueError(f"boom {arg}")

    sim.call_after(3, boom, "x")
    with pytest.raises(ValueError, match="boom x"):
        sim.run()
    assert sim.now == 3
