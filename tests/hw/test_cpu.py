"""Unit tests for the core/SMT model."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.cpu import Core, SoftwareThread
from repro.sim import Simulator

NO_JITTER = DEFAULT_CALIBRATION.with_overrides(cpu_jitter_mean_ns=0)


def make_core(smt=2):
    sim = Simulator()
    return sim, Core(sim, NO_JITTER, core_id=0, smt=smt)


def test_single_thread_runs_at_nominal_cost():
    sim, core = make_core()
    finish = []

    def proc():
        yield from SoftwareThread(core).exec(100)
        finish.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert finish == [100]


def test_two_smt_threads_inflate_cost():
    sim, core = make_core(smt=2)
    finishes = []

    def proc():
        yield from SoftwareThread(core).exec(1000)
        finishes.append(sim.now)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    # The SMT multiplier is sampled when an op starts: the first op began
    # alone (nominal cost), the second with a busy sibling (inflated).
    inflated = int(1000 * NO_JITTER.smt_slowdown)
    assert finishes == [1000, inflated]


def test_third_thread_queues_behind_smt_slots():
    sim, core = make_core(smt=2)
    finishes = []

    def proc(tag):
        yield from SoftwareThread(core).exec(1000)
        finishes.append((tag, sim.now))

    for tag in range(3):
        sim.spawn(proc(tag))
    sim.run()
    # Two run first; the third starts only after a slot frees.
    third = dict(finishes)[2]
    assert third > int(1000 * NO_JITTER.smt_slowdown)


def test_smt1_core_serializes():
    sim, core = make_core(smt=1)
    finishes = []

    def proc():
        yield from SoftwareThread(core).exec(100)
        finishes.append(sim.now)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    assert finishes == [100, 200]


def test_busy_accounting():
    sim, core = make_core()

    def proc():
        yield from SoftwareThread(core).exec(500)

    sim.spawn(proc())
    sim.run()
    assert core.busy_ns == 500


def test_negative_cost_rejected():
    sim, core = make_core()

    def proc():
        yield from SoftwareThread(core).exec(-5)

    with pytest.raises(ValueError):
        sim.run_until_done(sim.spawn(proc()))


def test_bad_smt_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Core(sim, NO_JITTER, core_id=0, smt=0)


def test_jitter_adds_time():
    sim = Simulator()
    jittery = DEFAULT_CALIBRATION.with_overrides(cpu_jitter_mean_ns=50)
    core = Core(sim, jittery, core_id=0)
    finishes = []

    def proc():
        thread = SoftwareThread(core)
        for _ in range(200):
            yield from thread.exec(100)
        finishes.append(sim.now)

    sim.spawn(proc())
    sim.run()
    # 200 ops at 100 ns + exponential jitter with mean 50.
    assert finishes[0] > 200 * 100
    assert finishes[0] < 200 * 100 + 200 * 50 * 4


def test_software_thread_counts_ops():
    sim, core = make_core()
    thread = SoftwareThread(core, name="t")

    def proc():
        yield from thread.exec(10)
        yield from thread.exec(10)

    sim.spawn(proc())
    sim.run()
    assert thread.ops == 2
    assert thread.sim is sim


def test_contended_flag():
    sim, core = make_core(smt=1)
    observed = []

    def holder():
        yield from SoftwareThread(core).exec(100)

    def prober():
        yield sim.timeout(10)
        observed.append(core.contended)

    sim.spawn(holder())
    sim.spawn(holder())
    sim.spawn(prober())
    sim.run()
    assert observed == [True]
