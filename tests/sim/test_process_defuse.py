"""Tests for observed-failure semantics (Process.defuse)."""

import pytest

from repro.sim import Simulator


def test_run_until_done_defuses_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("observed")

    handle = sim.spawn(bad())
    with pytest.raises(ValueError, match="observed"):
        sim.run_until_done(handle)
    # The failure was observed; draining must not re-raise it.
    sim.run()


def test_unobserved_failure_still_raises():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("unobserved")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="unobserved"):
        sim.run()


@pytest.mark.parametrize("loop", ["run_horizon", "run_until_done"])
def test_unobserved_failure_raises_from_every_loop(loop):
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("unobserved")

    def bystander():
        yield sim.timeout(5)

    sim.spawn(bad())
    other = sim.spawn(bystander())
    with pytest.raises(ValueError, match="unobserved"):
        if loop == "run_horizon":
            sim.run_horizon(None)
        else:
            sim.run_until_done(other)


def test_explicit_defuse():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("defused")

    handle = sim.spawn(bad())
    handle.defuse()
    sim.run()  # no raise
    assert not handle.ok
