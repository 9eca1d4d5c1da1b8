"""Integration tests for the RPC client/server runtime over Dagger."""

import pytest

from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.rpc import (
    MethodNotFoundError,
    RpcClient,
    RpcClientPool,
    RpcDroppedError,
    RpcThreadedServer,
    ThreadingModel,
)
from repro.sim import Simulator
from repro.stacks import DaggerStack, connect


def echo(ctx, payload):
    return payload, 48
    yield  # pragma: no cover


def make_rig(num_flows=1, server_threads=1, model=ThreadingModel.DISPATCH,
             workers=0, handler=echo, active_flows=None):
    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, machine.calibration, loopback=True)
    hard = NicHardConfig(num_flows=num_flows)
    soft = NicSoftConfig(active_flows=active_flows or 0)
    client_stack = DaggerStack(machine, switch, "client", hard=hard)
    server_stack = DaggerStack(machine, switch, "server", hard=hard,
                               soft=soft)
    server = RpcThreadedServer(sim, machine.calibration)
    server.register_handler("echo", handler)
    worker_threads = machine.threads(workers, start_core=8) if workers else None
    for i in range(server_threads):
        server.add_server_thread(server_stack.port(i),
                                 machine.thread(4 + i), model=model,
                                 workers=worker_threads)
    server.start()
    conn = connect(client_stack, 0, server_stack, 0)
    client = RpcClient(client_stack.port(0), machine.thread(0), conn)
    return sim, machine, client, server, client_stack, server_stack


def test_blocking_call_roundtrip():
    sim, _, client, server, *_ = make_rig()

    def main():
        response = yield from client.call("echo", b"ping", 48)
        return response

    response = sim.run_until_done(sim.spawn(main()))
    assert response.payload == b"ping"
    assert server.requests_handled == 1
    assert client.calls_completed == 1


def test_async_calls_complete_out_of_band():
    sim, _, client, *_ = make_rig()
    seen = []

    def main():
        calls = []
        for i in range(5):
            call = yield from client.call_async(
                "echo", b"x", 48, callback=lambda c: seen.append(c.rpc_id)
            )
            calls.append(call)
        for call in calls:
            yield call.event

    sim.run_until_done(sim.spawn(main()))
    assert len(seen) == 5
    assert client.outstanding == 0


def test_call_latency_recorded():
    sim, _, client, *_ = make_rig()

    def main():
        call = yield from client.call_async("echo", b"x", 48)
        yield call.event
        return call

    call = sim.run_until_done(sim.spawn(main()))
    assert call.done
    assert call.latency_ns is not None
    assert 1000 < call.latency_ns < 10_000  # ~2 us round trip


def pop_one(queue):
    completed = yield queue.pop()
    return completed


def test_completion_queue_accumulates():
    sim, _, client, *_ = make_rig()
    queue = client.completion_queue

    def caller():
        call = yield from client.call_async("echo", b"x", 48)
        yield call.event
        return call

    # The consumer waits in pop() before the call completes: the queue
    # hands each completed call to a waiting pop() and keeps none.
    popped = sim.spawn(pop_one(queue))
    issued = sim.spawn(caller())
    sim.run_until_done(popped)
    sim.run_until_done(issued)
    assert popped.value is issued.value
    assert popped.value.done
    assert queue.completed_count == 1


def test_completion_queue_keeps_no_call_nobody_pops():
    sim, _, client, *_ = make_rig()
    queue = client.completion_queue

    def caller(n):
        calls = []
        for _ in range(n):
            call = yield from client.call_async("echo", b"x", 48)
            yield call.event
            calls.append(call)
        return calls

    sim.run_until_done(sim.spawn(caller(100)))
    assert queue.completed_count == 100
    # The queue is empty: a pop made now gets the next call to complete,
    # not one of the 100 that completed while nobody waited.
    popped = sim.spawn(pop_one(queue))
    [call] = sim.run_until_done(sim.spawn(caller(1)))
    sim.run_until_done(popped)
    assert popped.value is call
    assert queue.completed_count == 101


def test_unknown_method_raises_in_server():
    sim, _, client, *_ = make_rig()

    def main():
        yield from client.call("nope", b"", 48)

    with pytest.raises(MethodNotFoundError):
        sim.spawn(main())
        sim.run()


def test_fail_pending():
    sim, _, client, *_ = make_rig()
    failures = []

    def main():
        call = yield from client.call_async("echo", b"", 48)
        client.fail_pending()
        try:
            yield call.event
        except RpcDroppedError:
            failures.append(call.rpc_id)

    sim.run_until_done(sim.spawn(main()))
    assert len(failures) == 1
    assert client.outstanding == 0


def test_worker_model_requires_workers():
    with pytest.raises(ValueError, match="worker"):
        make_rig(model=ThreadingModel.WORKER, workers=0)


def test_worker_model_roundtrip():
    sim, _, client, server, *_ = make_rig(
        model=ThreadingModel.WORKER, workers=2
    )

    def main():
        response = yield from client.call("echo", b"hi", 48)
        return response

    response = sim.run_until_done(sim.spawn(main()))
    assert response.payload == b"hi"
    assert server.server_threads[0].requests_handled == 1


def test_worker_model_has_higher_latency_than_dispatch():
    def run(model, workers):
        sim, _, client, *_ = make_rig(model=model, workers=workers)

        def main():
            call = yield from client.call_async("echo", b"", 48)
            yield call.event
            return call.latency_ns

        return sim.run_until_done(sim.spawn(main()))

    dispatch_ns = run(ThreadingModel.DISPATCH, 0)
    worker_ns = run(ThreadingModel.WORKER, 2)
    assert worker_ns > dispatch_ns + 2000  # handoff + wakeup cost


def test_handler_with_compute_and_defer():
    calls = []

    def slow(ctx, payload):
        yield from ctx.exec(10_000)
        ctx.defer(50_000)
        calls.append(ctx.sim.now)
        return payload, 48

    sim, _, client, *_ = make_rig(handler=slow)

    def main():
        first = yield from client.call("echo", b"", 48)
        t_first = sim.now
        yield from client.call("echo", b"", 48)
        return t_first, sim.now

    t_first, t_second = sim.run_until_done(sim.spawn(main()))
    # The second response waits behind the first's deferred work.
    assert t_second - t_first > 50_000


def test_duplicate_handler_registration_rejected():
    sim = Simulator()
    machine = Machine(sim)
    server = RpcThreadedServer(sim, machine.calibration)
    server.register_handler("m", echo)
    with pytest.raises(ValueError):
        server.register_handler("m", echo)


def test_client_pool_round_robin():
    sim, machine, client, _, client_stack, server_stack = make_rig(
        num_flows=3
    )
    conns = [connect(client_stack, i, server_stack, 0) for i in (1, 2)]
    others = [RpcClient(client_stack.port(i + 1), machine.thread(1), conn)
              for i, conn in enumerate(conns)]
    pool_clients = [client] + others
    pool = RpcClientPool(lambda i: pool_clients[i], size=3)
    picked = [pool.get_client() for _ in range(6)]
    assert picked == pool_clients * 2
    assert len(pool) == 3


def test_client_pool_size_validation():
    with pytest.raises(ValueError):
        RpcClientPool(lambda i: None, size=0)
