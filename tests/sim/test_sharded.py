"""Sharded conservative-window engine: determinism and boundary order.

Uses a tiny toy topology (hosts that ping each other through a
:class:`~repro.hw.switch.ShardBoundary`) so the engine's contracts can be
checked without the full Dagger stack: serial and sharded runs must be
bit-identical, same-timestamp cross-shard arrivals must commit in
``(arrival_ns, src_host, seq)`` order, and repeated runs at any shard
count must agree byte-for-byte. The adaptive-horizon tests add hosts with
*exact* egress bounds (they know their own send schedules), so stretched
windows can be checked for both parity and actual window savings; unsound
bounds must be fail-stop.
"""

import random

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.cluster import partition_hosts
from repro.hw.switch import ShardBoundary
from repro.sim import Simulator
from repro.sim.kernel import SimulationError
from repro.sim.sharded import EGRESS_NEVER, canonical_json, run_sharded

TOY_BUILDER = "tests.sim.test_sharded:build_toy_host"
BOOM_BUILDER = "tests.sim.test_sharded:build_boom_host"
REPLY_BUILDER = "tests.sim.test_sharded:build_reply_host"

DELAY_NS = 100


class ToyHost:
    """Minimal shardable host: sends ``sends`` packets to the next host.

    Every host fires at the *same* simulated times (``period_ns`` apart),
    so cross-shard arrivals from different source hosts collide on
    timestamps — exactly the case the canonical commit order must resolve
    deterministically.
    """

    def __init__(self, host_id, hosts=2, sends=3, period_ns=50,
                 delay_ns=DELAY_NS, fan_in=False):
        self.sim = Simulator()
        self.host_id = host_id
        self.hosts = hosts
        self.boundary = ShardBoundary(self.sim, DEFAULT_CALIBRATION,
                                      host_id=host_id, delay_ns=delay_ns)
        self.received = []
        self.boundary.register(f"toy{host_id}", self._ingress)
        self.sim.spawn(self._sender(sends, period_ns, fan_in))

    def _ingress(self, packet):
        self.received.append([self.sim.now, list(packet)])

    def _sender(self, sends, period_ns, fan_in):
        for index in range(sends):
            yield period_ns
            if fan_in:
                dst = 0 if self.host_id != 0 else 1
            else:
                dst = (self.host_id + 1) % self.hosts
            self.boundary.send(f"toy{dst}", (self.host_id, index))

    def finish(self):
        return {"host": self.host_id, "received": self.received,
                "forwarded": self.boundary.packets_forwarded}


def build_toy_host(host_id, **params):
    return ToyHost(host_id, **params)


def build_boom_host(host_id, **params):
    raise RuntimeError(f"boom on host {host_id}")


class ReplyToyHost:
    """Request/reply host with an *exact* egress bound.

    Each host fires "init" packets at seeded-random times toward random
    peers; an init arriving at a host triggers a "reply" to its sender
    after ``SERVICE_NS``. Because the host knows its full remaining send
    schedule (upcoming inits + due replies), its ``egress_bound`` is exact
    — the strongest possible estimator, so adaptive runs stretch as far as
    the protocol ever can while staying sound. ``lie=True`` claims
    EGRESS_NEVER regardless, which the coordinator must catch.
    """

    SERVICE_NS = 40

    def __init__(self, host_id, hosts=3, seed=0, quiet=(), early=(),
                 delay_ns=DELAY_NS, lie=False):
        self.sim = Simulator()
        self.host_id = host_id
        self.hosts = hosts
        self.lie = lie
        self.boundary = ShardBoundary(self.sim, DEFAULT_CALIBRATION,
                                      host_id=host_id, delay_ns=delay_ns)
        self.received = []
        self.boundary.register(f"toy{host_id}", self._ingress)
        rng = random.Random((seed << 8) + host_id)
        targets = [h for h in range(hosts)
                   if h != host_id and h not in quiet]
        if host_id in quiet or not targets:
            schedule = []
        else:
            span = 600 if host_id in early else 2000
            schedule = sorted(rng.randrange(1, span)
                              for _ in range(rng.randrange(2, 7)))
        self._upcoming = list(schedule)
        self._reply_due = []
        self.boundary.egress_bound_fn = self._egress_bound
        self.boundary.ingress_floors[f"toy{host_id}"] = self.SERVICE_NS
        if schedule:
            self.sim.spawn(self._sender(schedule, targets, rng))

    def _sender(self, schedule, targets, rng):
        prev = 0
        for when in schedule:
            if when > prev:
                yield when - prev
            prev = when
            dst = rng.choice(targets)
            self.boundary.send(f"toy{dst}", ("init", self.host_id, when))
            self._upcoming.pop(0)

    def _reply(self, src):
        yield self.SERVICE_NS
        self.boundary.send(f"toy{src}", ("reply", self.host_id, self.sim.now))
        self._reply_due.pop(0)

    def _ingress(self, packet):
        self.received.append([self.sim.now, list(packet)])
        if packet[0] == "init":
            due = self.sim.now + self.SERVICE_NS
            # Replies fire in due order (same service time, FIFO arrival),
            # so a sorted insert keeps index 0 the next reply out.
            self._reply_due.append(due)
            self._reply_due.sort()
            self.sim.spawn(self._reply(packet[1]))

    def _egress_bound(self):
        if self.lie:
            return EGRESS_NEVER
        candidates = []
        if self._upcoming:
            candidates.append(self._upcoming[0])
        if self._reply_due:
            candidates.append(self._reply_due[0])
        return min(candidates) if candidates else EGRESS_NEVER

    def finish(self):
        return {"host": self.host_id, "received": self.received,
                "forwarded": self.boundary.packets_forwarded}


def build_reply_host(host_id, **params):
    return ReplyToyHost(host_id, **params)


def toy_run(hosts=3, shards=1, **extra):
    return run_sharded(TOY_BUILDER, hosts, params=dict(hosts=hosts, **extra),
                       shards=shards, lookahead_ns=DELAY_NS)


def run_signature(result):
    """Everything that must not vary with the shard count."""
    return canonical_json({
        "per_host": result.per_host,
        "windows": result.windows,
        "events_per_host": result.events_per_host,
    })


def payload_signature(result):
    """Everything that must not vary with shard count *or* window mode.

    ``windows`` is engine accounting — fixed and adaptive runs legally
    differ there while the simulated payload stays byte-identical.
    """
    return canonical_json({
        "per_host": result.per_host,
        "events_per_host": result.events_per_host,
    })


# --------------------------------------------------------- partitioning


def test_partition_hosts_balanced():
    assert partition_hosts(4, 1) == [[0, 1, 2, 3]]
    assert partition_hosts(4, 2) == [[0, 1], [2, 3]]
    assert partition_hosts(4, 3) == [[0, 1], [2], [3]]
    assert partition_hosts(5, 2) == [[0, 1, 2], [3, 4]]
    assert partition_hosts(4, 4) == [[0], [1], [2], [3]]


def test_partition_hosts_validates():
    with pytest.raises(ValueError):
        partition_hosts(0, 1)
    with pytest.raises(ValueError):
        partition_hosts(4, 0)
    with pytest.raises(ValueError):
        partition_hosts(4, 5)


# ------------------------------------------------------ parity contract


def test_serial_and_sharded_bit_identical():
    signatures = {run_signature(toy_run(hosts=3, shards=shards))
                  for shards in (1, 2, 3)}
    assert len(signatures) == 1


def test_sharded_run_to_run_identical():
    first = toy_run(hosts=4, shards=2)
    second = toy_run(hosts=4, shards=2)
    assert run_signature(first) == run_signature(second)


def test_all_packets_delivered():
    result = toy_run(hosts=3, sends=5)
    received = sum(len(host["received"]) for host in result.per_host)
    assert received == 3 * 5
    # Ring topology: host i receives exactly from host i-1.
    for host in result.per_host:
        sources = {src for _t, (src, _idx) in host["received"]}
        assert sources == {(host["host"] - 1) % 3}


def test_events_total_sums_per_host():
    result = toy_run(hosts=3)
    assert result.events_total == sum(result.events_per_host)
    assert result.hosts == 3
    assert result.lookahead_ns == DELAY_NS


# -------------------------------------------- canonical boundary order


def test_same_timestamp_commits_in_src_order():
    # fan_in: hosts 1 and 2 both target host 0 at identical send times, so
    # their packets arrive at host 0 with equal timestamps; the canonical
    # (arrival, src_host, seq) order must commit host 1 before host 2.
    result = run_sharded(
        TOY_BUILDER, 3,
        params=dict(hosts=3, fan_in=True, sends=3),
        shards=3, lookahead_ns=DELAY_NS, record_boundary_log=True,
    )
    host0 = result.per_host[0]
    by_time = {}
    for when, (src, _index) in host0["received"]:
        by_time.setdefault(when, []).append(src)
    assert by_time, "fan-in run delivered nothing to host 0"
    for when, sources in by_time.items():
        assert sources == sorted(sources), (
            f"arrivals at t={when} committed out of src order: {sources}"
        )


def test_boundary_log_is_canonically_ordered_and_stable():
    runs = [
        run_sharded(TOY_BUILDER, 3,
                    params=dict(hosts=3, fan_in=True, sends=3),
                    shards=shards, lookahead_ns=DELAY_NS,
                    record_boundary_log=True)
        for shards in (1, 2, 3, 3)
    ]
    logs = [run.boundary_log for run in runs]
    assert logs[0], "expected cross-shard traffic in the boundary log"
    assert all(log == logs[0] for log in logs[1:])
    # Within a window batch the log is sorted; windows commit in time
    # order, so the whole log is sorted by (arrival, src, seq).
    assert logs[0] == sorted(logs[0])
    # Entries are (arrival_ns, src_host, seq, dst_host) with dst resolved.
    for arrival, src, seq, dst in logs[0]:
        assert dst == 0 or src == 0
        assert arrival >= DELAY_NS
        assert seq >= 0


def test_boundary_log_absent_by_default():
    assert toy_run(hosts=2).boundary_log is None


# ------------------------------------------------- adaptive horizons


def reply_run(hosts=4, shards=1, window_mode="adaptive", **extra):
    return run_sharded(REPLY_BUILDER, hosts,
                       params=dict(hosts=hosts, **extra),
                       shards=shards, lookahead_ns=DELAY_NS,
                       window_mode=window_mode)


@pytest.mark.parametrize("seed", range(5))
def test_adaptive_matches_fixed_bit_identical(seed):
    # Property: randomized request/reply traffic — including a host that
    # never sends or receives (hosts-1) and one that goes quiet early
    # (host 0) — produces byte-identical results under fixed windows,
    # adaptive windows, and every shard count.
    kw = dict(hosts=4, seed=seed, quiet=(3,), early=(0,))
    runs = [
        reply_run(window_mode="fixed", shards=1, **kw),
        reply_run(window_mode="adaptive", shards=1, **kw),
        reply_run(window_mode="adaptive", shards=2, **kw),
        reply_run(window_mode="adaptive", shards=4, **kw),
        reply_run(window_mode="fixed", shards=2, **kw),
    ]
    signatures = {payload_signature(run) for run in runs}
    assert len(signatures) == 1
    fixed, adaptive = runs[0], runs[1]
    assert adaptive.windows <= fixed.windows
    # The quiet host saw no traffic at all.
    assert runs[1].per_host[3]["received"] == []
    assert runs[1].per_host[3]["forwarded"] == 0


def test_adaptive_stretches_sparse_schedules():
    # Exact bounds + sparse schedules: the adaptive run must collapse the
    # quiet stretches (far fewer windows) while staying bit-identical.
    kw = dict(hosts=3, seed=2)
    fixed = reply_run(window_mode="fixed", **kw)
    adaptive = reply_run(window_mode="adaptive", **kw)
    assert payload_signature(fixed) == payload_signature(adaptive)
    assert adaptive.stretched_windows > 0
    assert adaptive.windows < fixed.windows
    assert fixed.stretched_windows == 0
    assert fixed.window_mode == "fixed"
    assert adaptive.window_mode == "adaptive"


def test_adaptive_accounting_fields():
    result = reply_run(hosts=3, seed=1, shards=2)
    assert result.boundary_packets > 0
    assert result.boundary_bytes > 0
    # In-process runs exchange raw record lists, so bytes stay zero.
    local = reply_run(hosts=3, seed=1, shards=1)
    assert local.boundary_packets > 0
    assert local.boundary_bytes == 0
    assert payload_signature(result) == payload_signature(local)


def test_fixed_mode_skips_idle_shards():
    # hosts 2/3 are quiet: their shard never has work, and the engine must
    # elide its round-trips even in fixed mode.
    result = reply_run(hosts=4, seed=0, quiet=(2, 3), shards=2,
                       window_mode="fixed")
    assert result.skipped_shard_rounds > 0


def test_unsound_egress_bound_is_fail_stop():
    with pytest.raises(SimulationError, match="violated its egress bound"):
        reply_run(hosts=2, seed=0, lie=True)


def test_unsound_bound_in_worker_cleans_up_processes():
    import multiprocessing

    with pytest.raises(SimulationError, match="violated its egress bound"):
        reply_run(hosts=2, seed=0, lie=True, shards=2)
    # The coordinator raised mid-run; no worker may outlive the call.
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        assert not child.is_alive()


def test_invalid_window_mode_rejected():
    with pytest.raises(ValueError, match="window_mode"):
        run_sharded(TOY_BUILDER, 2, params=dict(hosts=2),
                    lookahead_ns=DELAY_NS, window_mode="loose")


# ----------------------------------------------------------- validation


def test_lookahead_above_boundary_delay_rejected():
    with pytest.raises(SimulationError, match="below the engine lookahead"):
        run_sharded(TOY_BUILDER, 2, params=dict(hosts=2),
                    lookahead_ns=DELAY_NS + 1)


def test_max_windows_guard():
    with pytest.raises(SimulationError, match="max_windows"):
        run_sharded(TOY_BUILDER, 2, params=dict(hosts=2, sends=50),
                    lookahead_ns=DELAY_NS, max_windows=1)


def test_bad_builder_path_rejected():
    with pytest.raises(ValueError, match="builder path"):
        run_sharded("not-a-path", 2, lookahead_ns=DELAY_NS)


def test_worker_failure_surfaces_traceback():
    with pytest.raises(SimulationError, match="boom on host"):
        run_sharded(BOOM_BUILDER, 2, shards=2, lookahead_ns=DELAY_NS)


def test_builder_failure_in_process():
    with pytest.raises(RuntimeError, match="boom on host 0"):
        run_sharded(BOOM_BUILDER, 2, shards=1, lookahead_ns=DELAY_NS)


# ----------------------------------------------- kernel window primitives


def test_run_horizon_is_exclusive():
    sim = Simulator()
    fired = []
    for when in (10, 20, 30):
        sim.inject(when, lambda when=when: fired.append(when))
    assert sim.run_horizon(30) == 2
    assert fired == [10, 20]
    assert sim.now == 20  # clock at last processed event, not the horizon
    assert sim.peek() == 30
    assert sim.run_horizon(31) == 1
    assert fired == [10, 20, 30]


def test_run_horizon_counts_dispatched_events():
    sim = Simulator()

    def ticker():
        for _ in range(5):
            yield 10

    sim.spawn(ticker())
    # spawn event + 5 timeouts; an exit nobody joins is not an event
    assert sim.run_horizon(1000) == 6


def test_run_horizon_counts_a_joined_exit():
    sim = Simulator()

    def ticker():
        for _ in range(5):
            yield 10
        return "done"

    def joiner():
        return (yield ticker_process)

    ticker_process = sim.spawn(ticker())
    joined = sim.spawn(joiner())
    # two spawn events + 5 timeouts + the ticker's exit, which the joiner
    # waits on; nothing joins the joiner, so its exit is not an event
    assert sim.run_horizon(1000) == 8
    assert joined.value == "done"


def test_inject_rejects_past():
    sim = Simulator()
    sim.inject(10, lambda: None)
    sim.run_horizon(20)
    with pytest.raises(SimulationError, match="cannot inject"):
        sim.inject(5, lambda: None)


def test_inject_interleaves_in_seq_order():
    sim = Simulator()
    fired = []
    sim.inject(10, lambda: fired.append("first"))
    sim.inject(10, lambda: fired.append("second"))
    sim.run_horizon(11)
    assert fired == ["first", "second"]


def test_inject_seq_key_orders_before_local_events():
    # A canonical (negative) key fires before every same-timestamp local
    # event, regardless of scheduling order.
    sim = Simulator()
    fired = []

    def local():
        yield 10
        fired.append("local")

    sim.spawn(local())
    sim.inject(10, lambda: fired.append("injected"), seq_key=-1000)
    sim.run_horizon(11)
    assert fired == ["injected", "local"]


def test_inject_seq_key_is_batching_independent():
    # Same records, same keys -> same event order, whether the records
    # were injected in one batch early or one-by-one late.
    def run(inject_plan):
        sim = Simulator()
        fired = []
        for when, key, tag in inject_plan:
            sim.inject(when, lambda tag=tag: fired.append(tag), seq_key=key)
        sim.run_horizon(100)
        return fired

    records = [(50, -10, "a"), (50, -20, "b"), (50, -15, "c")]
    assert run(records) == run(reversed(records)) == ["b", "c", "a"]


def test_run_horizon_none_drains_to_completion():
    sim = Simulator()
    fired = []

    def ticker():
        for _ in range(5):
            yield 1000
        fired.append(sim.now)

    sim.spawn(ticker())
    # spawn event + 5 timeouts; an exit nobody joins is not an event
    assert sim.run_horizon(None) == 6
    assert fired == [5000]
    assert sim.peek() is None
