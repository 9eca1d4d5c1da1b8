"""Unit tests for Resource and Store queueing primitives."""

import pytest

from repro.sim import QueueFullError, Resource, Simulator, SimulationError, Store


# ---------------------------------------------------------------- Resource


def test_resource_serializes_exclusive_access():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    finish_times = []

    def worker():
        yield from resource.use(10)
        finish_times.append(sim.now)

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    assert finish_times == [10, 20, 30]


def test_use_with_a_negative_service_time_fails_and_releases():
    # The wait is an int yield; a negative one is raised at that yield,
    # where ``sim.timeout`` raised it, so the ``finally`` still releases.
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def worker():
        yield from resource.use(-5)

    with pytest.raises(SimulationError, match="negative timeout"):
        sim.run_until_done(sim.spawn(worker()))
    assert resource.in_use == 0


def test_resource_parallel_servers():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    finish_times = []

    def worker():
        yield from resource.use(10)
        finish_times.append(sim.now)

    for _ in range(4):
        sim.spawn(worker())
    sim.run()
    assert finish_times == [10, 10, 20, 20]


def test_resource_fifo_grant_order():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(tag, arrival):
        yield sim.timeout(arrival)
        yield resource.request()
        order.append(tag)
        yield sim.timeout(5)
        resource.release()

    sim.spawn(worker("late", 2))
    sim.spawn(worker("early", 1))
    sim.spawn(worker("first", 0))
    sim.run()
    assert order == ["first", "early", "late"]


def test_resource_release_idle_is_error():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_counts():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def holder():
        yield resource.request()
        yield sim.timeout(100)
        resource.release()

    def prober():
        yield sim.timeout(10)
        assert resource.in_use == 1
        assert resource.queue_length == 1

    sim.spawn(holder())
    sim.spawn(holder())
    sim.spawn(prober())
    sim.run()
    assert resource.in_use == 0


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


# ------------------------------------------------------------------- Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got_at = []

    def consumer():
        item = yield store.get()
        got_at.append((sim.now, item))

    def producer():
        yield sim.timeout(30)
        yield store.put("x")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got_at == [(30, "x")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer():
        yield store.put("a")
        timeline.append(("put-a", sim.now))
        yield store.put("b")  # blocks until consumer drains
        timeline.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(20)
        item = yield store.get()
        timeline.append(("got", item, sim.now))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert ("put-a", 0) in timeline
    assert ("got", "a", 20) in timeline
    assert ("put-b", 20) in timeline


def test_store_reject_when_full_counts_drops():
    sim = Simulator()
    store = Store(sim, capacity=1, reject_when_full=True)
    outcomes = []

    def producer():
        yield store.put(1)
        try:
            yield store.put(2)
        except QueueFullError:
            outcomes.append("dropped")

    sim.spawn(producer())
    sim.run()
    assert outcomes == ["dropped"]
    assert store.drops == 1


def test_store_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put("a")
    assert store.try_put("b")
    # A full *blocking* store refuses without counting a drop: the caller
    # falls back to the evented put and blocks, nothing was lost.
    assert not store.try_put("c")
    assert store.drops == 0
    assert store.try_get() == "a"
    assert store.try_get() == "b"
    assert store.try_get() is None


def test_store_try_put_full_reject_store_counts_drop():
    sim = Simulator()
    store = Store(sim, capacity=1, reject_when_full=True)
    assert store.try_put("a")
    assert not store.try_put("b")
    # Same accounting as the evented put failing with QueueFullError.
    assert store.drops == 1


def test_store_direct_handoff_to_waiting_getter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(5)
        assert store.try_put("x")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [(5, "x")]
    assert len(store) == 0


def test_store_blocked_putter_admitted_in_order():
    sim = Simulator()
    store = Store(sim, capacity=1)
    drained = []

    def producer(tag):
        yield store.put(tag)

    def consumer():
        yield sim.timeout(10)
        for _ in range(3):
            item = yield store.get()
            drained.append(item)

    sim.spawn(producer("a"))
    sim.spawn(producer("b"))
    sim.spawn(producer("c"))
    sim.spawn(consumer())
    sim.run()
    assert drained == ["a", "b", "c"]


def test_store_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)
