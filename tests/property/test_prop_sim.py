"""Property-based tests for the simulation kernel and queueing primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000),
                       min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotone_and_events_fire_at_their_time(delays):
    sim = Simulator()
    observed = []

    def proc(delay):
        yield sim.timeout(delay)
        observed.append((delay, sim.now))

    for delay in delays:
        sim.spawn(proc(delay))
    sim.run()
    assert len(observed) == len(delays)
    for delay, when in observed:
        assert when == delay
    fire_times = [when for _, when in observed]
    assert fire_times == sorted(fire_times)


@given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_sequential_process_time_is_sum_of_delays(delays):
    sim = Simulator()

    def proc():
        for delay in delays:
            yield sim.timeout(delay)
        return sim.now

    assert sim.run_until_done(sim.spawn(proc())) == sum(delays)


@given(
    service_times=st.lists(st.integers(min_value=1, max_value=500),
                           min_size=1, max_size=25),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_resource_conserves_work(service_times, capacity):
    """Total busy time equals the sum of service times; the makespan is
    bounded between the critical-path and fully-serial extremes."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    finish = {}

    def worker(index, service):
        yield resource.request()
        try:
            yield sim.timeout(service)
        finally:
            resource.release()
        finish[index] = sim.now

    for index, service in enumerate(service_times):
        sim.spawn(worker(index, service))
    sim.run()
    makespan = max(finish.values())
    total = sum(service_times)
    assert makespan >= -(-total // capacity) * 0  # non-negative guard
    assert makespan >= max(service_times)
    assert makespan <= total
    assert resource.in_use == 0
    assert resource.queue_length == 0


@given(ops=st.lists(st.sampled_from(["put", "get"]), min_size=1,
                    max_size=200))
@settings(max_examples=60, deadline=None)
def test_store_preserves_fifo_order(ops):
    sim = Simulator()
    store = Store(sim)
    received = []
    puts = sum(1 for op in ops if op == "put")
    gets = min(puts, sum(1 for op in ops if op == "get"))

    def producer():
        sequence = 0
        for op in ops:
            if op == "put":
                yield store.put(sequence)
                sequence += 1
            yield sim.timeout(1)

    def consumer():
        for _ in range(gets):
            item = yield store.get()
            received.append(item)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == list(range(len(received)))
    assert len(received) == gets


@given(capacity=st.integers(min_value=1, max_value=8),
       count=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_bounded_store_drop_accounting(capacity, count):
    sim = Simulator()
    store = Store(sim, capacity=capacity, reject_when_full=True)
    accepted = sum(1 for _ in range(count) if store.try_put("x"))
    assert accepted == min(capacity, count)
    assert store.drops == count - accepted
    assert len(store) == accepted


# -- the kernel's entry points agree -----------------------------------------
#
# One generated workload runs under every way of driving the kernel: run(),
# run(until=...) slices, run_horizon windows, run_until_done and step().
# Each must dispatch the same (now, who, step) trace as step(), which fires
# one event per call and never runs ahead (the batch entries fire a
# process's next timed wait or a call_after in place when it is provably
# the next event). Every workload is built twice, once with each ("after",
# d) step as sim.call_after(d, fn, x) and once as a spawned ``yield d;
# fn(x)`` process, and both builds must dispatch that same trace under
# every entry.

_SHARED_EVENTS = 3
_FLOAT_DELAYS = (0.0, 0.5, 1.5, 2.25)

_STEP = st.one_of(
    st.tuples(st.just("delay"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("delay"), st.sampled_from(_FLOAT_DELAYS)),
    st.tuples(st.just("timeout"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("wait"), st.integers(0, _SHARED_EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, _SHARED_EVENTS - 1)),
    st.tuples(st.just("join"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("inject"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("after"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("after"), st.sampled_from(_FLOAT_DELAYS)),
)

_FIRE_AT = st.lists(st.integers(min_value=0, max_value=20),
                    min_size=_SHARED_EVENTS, max_size=_SHARED_EVENTS)

_DENSE = st.fixed_dictionaries({
    # Each process joins only processes spawned before it, and every
    # shared event is fired by an inject, so every process finishes.
    "processes": st.lists(st.lists(_STEP, max_size=6), min_size=1,
                          max_size=5),
    "fire_at": _FIRE_AT,
    "pair_at": st.integers(min_value=0, max_value=20),
})

#: One process with long gaps, and maybe a short neighbour. Everything
#: else is over before the first gap ends (injects by 20, a short process
#: that joins nobody by about 60, the two waiters by 95), so the second
#: delay is then the only event left and every batch entry must run it
#: ahead.
_SPARSE = st.fixed_dictionaries({
    "processes": st.tuples(
        st.tuples(
            st.tuples(st.just("delay"), st.integers(100, 200)),
            st.tuples(st.just("delay"), st.integers(0, 200)),
        ),
        st.lists(st.one_of(
            st.tuples(st.just("delay"), st.integers(0, 60)),
            st.tuples(st.just("after"), st.integers(0, 60)),
            _STEP,
        ), max_size=6),
        st.lists(st.lists(_STEP, max_size=6), max_size=1),
    ).map(lambda t: [list(t[0]) + t[1]] + t[2]),
    "fire_at": _FIRE_AT,
    "pair_at": st.integers(min_value=0, max_value=90),
    "sparse": st.just(True),
})

_WORKLOAD = st.one_of(_DENSE, _SPARSE)


def _build(workload, via_call_after):
    """A fresh simulator running ``workload``; returns it, its processes
    and the trace they append to. ``via_call_after`` picks how the
    ("after", d) steps run."""
    sim = Simulator()
    trace = []
    events = [sim.event() for _ in range(_SHARED_EVENTS)]
    processes = []

    def fire(index, who):
        if not events[index].triggered:
            events[index].succeed(who)

    def injected(who, index):
        trace.append((sim.now, who, index))

    def called(tag):
        trace.append((sim.now, "after", tag))

    def delayed_call(delay, tag):  # the process call_after stands in for
        yield delay
        called(tag)

    def body(pid, steps):
        for index, (kind, arg) in enumerate(steps):
            trace.append((sim.now, pid, index))
            if kind == "delay":
                yield arg
            elif kind == "timeout":
                yield sim.timeout(arg, value=index)
            elif kind == "wait":
                yield events[arg]
            elif kind == "fire":
                fire(arg, pid)
            elif kind == "join":
                if pid:
                    yield processes[arg % pid]
            elif kind == "after":
                if via_call_after:
                    sim.call_after(arg, called, (pid, index))
                else:
                    sim.spawn(delayed_call(arg, (pid, index)))
            else:
                sim.inject(sim.now + arg,
                           lambda i=index: injected(f"inject{pid}", i))
        trace.append((sim.now, pid, "exit"))
        return pid

    for pid, steps in enumerate(workload["processes"]):
        processes.append(sim.spawn(body(pid, steps)))

    def orphan():  # an exit nobody joins
        yield 1
        trace.append((sim.now, "orphan", "exit"))

    # Two waiters on one event: one dispatch with two callbacks. The waiter
    # resumed first yields a delay at once; running it ahead there would
    # move the clock before the second waiter resumes.
    pair = sim.event()

    def waiter(name, delays):
        yield pair
        for delay in delays:
            trace.append((sim.now, name, "woke"))
            yield delay
        trace.append((sim.now, name, "exit"))

    sim.spawn(orphan())
    sim.spawn(waiter("first", (3, 2)))
    sim.spawn(waiter("second", ()))
    for index, when in enumerate(workload["fire_at"]):
        sim.inject(when, lambda i=index: fire(i, "inject"))
    sim.inject(workload["pair_at"], pair.succeed)
    return sim, processes, trace


def _cuts(data, times, label):
    """Non-decreasing stop times: ints, floats and event times."""
    top = int(max(times, default=30))
    candidates = st.one_of(
        st.integers(min_value=0, max_value=top),
        st.integers(min_value=0, max_value=top).map(lambda t: t + 0.5),
        st.sampled_from(sorted(set(times)) or [1]),
    )
    return sorted(data.draw(st.lists(candidates, max_size=6), label=label))


def _step_through(sim, trace, process):
    """step() until nothing is scheduled; returns the step count and the
    (clock, trace length) right after the step at which ``process``
    exited."""
    steps, cut = 0, None
    while sim.peek() is not None:
        sim.step()
        steps += 1
        if cut is None and process.triggered:
            cut = (sim.now, len(trace))
    assert sim._ahead_count == 0
    return steps, cut


@given(workload=_WORKLOAD, data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_run_entry_dispatches_the_same_trace(workload, data):
    target = data.draw(st.integers(0, len(workload["processes"]) - 1),
                       label="run_until_done target")
    # The reference: step() fires one event per call and never runs ahead.
    sim, processes, expected = _build(workload, via_call_after=False)
    steps, target_cut = _step_through(sim, expected, processes[target])
    times = [now for now, _, _ in expected]
    until_cuts = _cuts(data, times, "until cuts")
    horizons = [h for h in _cuts(data, times, "horizons") if h > 0]

    for via_call_after in (False, True):
        # step(), on both builds.
        sim, built, trace = _build(workload, via_call_after)
        assert _step_through(sim, trace, built[target]) == (steps,
                                                            target_cut)
        assert trace == expected

        # run().
        sim, _, trace = _build(workload, via_call_after)
        sim.run()
        assert trace == expected
        if workload.get("sparse"):
            assert sim._ahead_count > 0

        # run(until=c) slices, then run().
        sim, _, trace = _build(workload, via_call_after)
        for cut in until_cuts:
            sim.run(until=cut)
            assert sim.now == cut
            assert all(now <= cut for now, _, _ in trace)
            assert sim.peek() is None or sim.peek() > cut
        sim.run()
        assert trace == expected

        # run_horizon windows, then the drain grant: they count every
        # event step() fires, those run ahead included.
        sim, _, trace = _build(workload, via_call_after)
        windows = []
        for horizon in horizons:
            windows.append(sim.run_horizon(horizon))
            assert all(now < horizon for now, _, _ in trace)
        windows.append(sim.run_horizon(None))
        assert trace == expected
        assert sum(windows) == steps

        # run_until_done(p) stops where step() saw p exit, then run().
        sim, built, trace = _build(workload, via_call_after)
        assert sim.run_until_done(built[target]) == target
        assert (sim.now, len(trace)) == target_cut
        assert trace == expected[:target_cut[1]]
        sim.run()
        assert trace == expected


def test_run_until_an_int_leaves_a_float_time_after_it_pending():
    # Float delays are legal, so no int horizon such as ``until + 1`` can
    # stand for "everything at or before ``until``".
    sim = Simulator()
    fired = []

    def proc():
        yield 0.5
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=0)
    assert (sim.now, fired, sim.peek()) == (0, [], 0.5)
    sim.run(until=0.5)
    assert (sim.now, fired, sim.peek()) == (0.5, [0.5], None)
