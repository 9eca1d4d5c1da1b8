"""The shared load driver: lanes, completion gate and stall policy."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.workloads.driver import LoadDriver, poisson_schedule, split_quota


class FakeClient:
    """In-flight bookkeeping of an RPC client; calls take ``latency_ns``,
    and every ``drop_every``-th call never completes."""

    def __init__(self, sim, latency_ns=1_000, drop_every=0):
        self.sim = sim
        self.latency_ns = latency_ns
        self.drop_every = drop_every
        self.outstanding = 0
        self.peak = 0
        self.issued = 0
        self.failed = 0

    def call(self, on_done):
        self.issued += 1
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        if not (self.drop_every and self.issued % self.drop_every == 0):
            self.sim.spawn(self._respond(on_done))
        return
        yield  # a generator, like RpcClient.call_async

    def _respond(self, on_done):
        yield self.latency_ns
        self.outstanding -= 1
        on_done()

    def fail_pending(self, reason):
        self.failed += self.outstanding
        self.outstanding = 0


class CountingSampler:
    def __init__(self, gap_ns):
        self.gap_ns = gap_ns
        self.draws = 0

    def sample_ns(self):
        self.draws += 1
        return self.gap_ns


def test_closed_lane_rejects_a_window_that_never_issues():
    # A lane with a zero window would poll forever with nothing in flight.
    sim = Simulator()
    driver = LoadDriver(sim, target=1)
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        driver.closed_lane(FakeClient(sim), 0, [None], lambda *_: iter(()))


def test_split_quota_keeps_the_remainder():
    assert split_quota(10, 3) == [4, 3, 3]
    assert split_quota(2, 3) == [1, 1, 0]
    assert split_quota(301, 2) == [151, 150]


def test_poisson_schedule_draws_each_gap_when_reached():
    sampler = CountingSampler(100)
    schedule = poisson_schedule(sampler, "abc", start_ns=50)
    assert sampler.draws == 0
    assert next(schedule) == (150, "a")
    assert sampler.draws == 1
    assert list(schedule) == [(250, "b"), (350, "c")]
    assert sampler.draws == 3


def test_closed_lane_caps_calls_in_flight_at_the_window():
    sim = Simulator()
    client = FakeClient(sim)
    driver = LoadDriver(sim, 10, [client])
    driver.closed_lane(client, 3, range(10),
                       lambda _item, _intended: client.call(driver.complete))
    driver.run()
    assert client.peak == 3
    assert driver.completed == 10
    assert driver.done.triggered


def test_open_lane_keeps_the_intended_time_when_behind_schedule():
    sim = Simulator()
    issued = []

    def issue(item, intended):
        issued.append((item, intended, sim.now))
        yield 300  # issuing costs more than the gap to the next item

    driver = LoadDriver(sim)
    driver.open_lane([(100, "a"), (200, "b"), (700, "c")], issue)
    sim.run()
    assert issued == [("a", 100, 100), ("b", 200, 400), ("c", 700, 700)]


def test_stall_fails_pending_calls_and_returns():
    sim = Simulator()
    client = FakeClient(sim, drop_every=4)
    driver = LoadDriver(sim, 12, [client])
    driver.closed_lane(client, 8, range(12),
                       lambda _item, _intended: client.call(driver.complete))
    driver.run()
    assert driver.completed == 9
    assert client.failed == 3
    assert not driver.done.triggered


def test_without_target_lanes_only_count():
    sim = Simulator()
    client = FakeClient(sim)
    driver = LoadDriver(sim)
    driver.closed_lane(client, 2, range(5),
                       lambda _item, _intended: client.call(driver.complete))
    sim.run()
    assert driver.completed == 5
    assert driver.done is None


def test_a_failing_process_is_not_a_stall():
    sim = Simulator()

    def background():
        yield 10_000

    def issue(_item, _intended):
        raise SimulationError("boom")
        yield  # pragma: no cover

    sim.spawn(background())
    driver = LoadDriver(sim, 1)
    driver.open_lane([(0, None)], issue)
    with pytest.raises(SimulationError, match="boom"):
        driver.run()
