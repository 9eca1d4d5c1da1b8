"""Kernel hot-path microbenchmark: event pump rate + end-to-end echo time.

Measures two things and writes ``BENCH_kernel.json`` at the repo root:

- **pump**: a synthetic workload of timer processes that exercises only the
  simulation kernel (heap + now-queue dispatch, timeout pooling, the
  int-yield fast path) — reported as simulated events per second. Its
  **sparse** sub-section staggers a few bursts of short waits between
  long gaps, so most waits are the next event of the whole simulation and
  the kernel runs them ahead; it records the share that ran ahead;
- **echo**: wall-clock time of the tier-1 reference run, a 4k-request
  closed-loop echo benchmark over the full Dagger stack
  (``run_closed_loop(batch_size=4, nreq=4000)``);
- **mesh**: the sharded-engine scaling scenario — a 4-host full-mesh
  closed-loop echo (``repro.harness.mesh.run_echo_mesh``) timed at 1, 2,
  and 4 shards with rounds interleaved across shard counts, under the
  default adaptive window policy. Reported as events per second of wall
  time per shard count plus the speedup vs ``shards=1``; every run's
  result signature must be byte-identical (the conservative-window
  engine's parity contract) — including one untimed ``window_mode=
  "fixed"`` run, so fixed-vs-adaptive parity is asserted in the same
  breath. The section also records the window counts of both modes
  (engine accounting, deliberately outside the result signature) and a
  **window-reduction** sub-section: a service-heavy latency mesh where
  adaptive horizons must collapse at least 3x as many windows as the
  fixed protocol needs (the deterministic count CI gates on).
  Wall-clock scaling needs real cores: the JSON records ``cpu_count`` so
  a 1-core container's flat curve is not mistaken for an engine defect.

Methodology: one warmup run, then ``--rounds`` timed repetitions (default
9); the JSON records the median and the best. Medians are the headline
numbers — single-shot wall times on a shared machine swing by 2x, medians
of interleaved rounds are stable to a few percent. The echo run's result
signature (throughput, p50, p99, count) is recorded too, so a speedup
claim is only comparable between trees that produce bit-identical
simulation results.

With ``--baseline TREE`` (a checkout of an older revision), ``--rounds``
A/B rounds follow the sections. Each round times five runs on this tree
and on that tree, each in a fresh subprocess, alternating which tree goes
first, so that machine-load drift hits both sides equally. Three runs
cover the kernel's three run entries: the pump (``run()``), the echo
(``run_until_done``, through the load driver) and the serial 4-host mesh
(``run_echo_mesh(hosts=4, shards=1)``, whose in-process windows call
``run_horizon``). The sparse pump times the run-ahead path, which the
lock-step pump never takes. The fifth is a cluster SLO point
(``run_cluster_point(modulation="steady", load_krps=40.0, nreq=1000)``),
which builds the replica pools and runs the tier handler on every nested
call. The JSON's ``baseline`` section records both sides' medians and the
speedup of each run. The baseline must produce the same echo, mesh and
cluster signatures — a speedup is only meaningful between
bit-identical simulations — unless ``--allow-signature-change`` is passed
for a deliberate re-baseline PR (one that changes equal-timestamp event
interleaving, like the zero-yield fast paths); then the baseline's
signatures are recorded too, so the divergence is explicit in the JSON.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernel.py [--rounds N]
        [--nreq N] [--out PATH] [--baseline TREE]
        [--allow-signature-change] [--scenario pump,echo,mesh]

``--scenario`` selects a comma-separated subset (default ``all``); the
sections *not* run in this invocation are carried over unchanged from an
existing ``--out`` file, so ``--scenario mesh`` appends the mesh numbers
alongside previously recorded pump/echo results instead of clobbering
them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from functools import partial

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_common import scrub_path  # noqa: E402
from repro.harness.cluster import (  # noqa: E402
    cluster_signature,
    run_cluster_point,
)
from repro.harness.mesh import mesh_signature, run_echo_mesh  # noqa: E402
from repro.harness.runner import run_closed_loop  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

#: Synthetic pump workload: PROCS timer processes x TICKS timeouts each.
PUMP_PROCS = 50
PUMP_TICKS = 20_000

#: Sparse pump: SPARSE_PROCS processes, each repeating a burst of
#: SPARSE_BURST short waits and one long gap, started a quarter gap apart
#: so that no two bursts overlap. A burst's waits are then the next event
#: of the whole simulation, the case the kernel runs ahead; the 50
#: lock-step tickers above never reach it.
SPARSE_PROCS = 4
SPARSE_BURST = 24
SPARSE_STEP_NS = 5
SPARSE_GAP_NS = 1000
SPARSE_ROUNDS = 10_000

#: Sharded mesh scenario: 4 hosts, full mesh, timed at these shard counts.
MESH_HOSTS = 4
MESH_NREQ_PER_HOST = 4000
MESH_SHARD_COUNTS = (1, 2, 4)

#: Window-reduction probe: a service-dominated latency mesh (per-request
#: service time >> NIC pipeline latency) where nearly all fixed windows
#: fall inside service gaps the per-flow egress estimator can prove quiet.
#: ``batch_size=1`` so the fetch FSM never stalls on a batch timeout, and
#: ``window=1`` so the RPC pattern is strictly request/response — the
#: configuration where horizon stretching has the most to collapse.
MESH_REDUCTION_KW = dict(hosts=MESH_HOSTS, nreq_per_host=200, window=1,
                         batch_size=1, service_ns=15_000, warmup_ns=0)

#: CI gate: the adaptive latency mesh must need at most a third of the
#: fixed window count (window counts are deterministic, so this is a
#: stable threshold, not a wall-clock flake).
MESH_REDUCTION_MIN = 3.0

_SCENARIOS = ("pump", "echo", "mesh")


def pump_once() -> float:
    """Run the synthetic timer workload; return elapsed wall seconds."""
    sim = Simulator()

    def ticker(period):
        for _ in range(PUMP_TICKS):
            yield period

    for i in range(PUMP_PROCS):
        sim.spawn(ticker(1 + (i % 7)))
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


def sparse_pump_once():
    """Run the sparse timer workload; return (wall seconds, events
    dispatched, simulator)."""
    sim = Simulator()

    def burster(offset):
        yield offset
        for _ in range(SPARSE_ROUNDS):
            for _ in range(SPARSE_BURST):
                yield SPARSE_STEP_NS
            yield SPARSE_GAP_NS

    for i in range(SPARSE_PROCS):
        sim.spawn(burster(i * SPARSE_GAP_NS // SPARSE_PROCS))
    started = time.perf_counter()
    events = sim.run_horizon(None)
    return time.perf_counter() - started, events, sim


def echo_once(nreq: int):
    """Run the reference echo benchmark; return (seconds, signature)."""
    started = time.perf_counter()
    result = run_closed_loop(batch_size=4, nreq=nreq)
    elapsed = time.perf_counter() - started
    signature = (result.throughput_mrps, result.p50_us, result.p99_us,
                 result.count)
    return elapsed, signature


def mesh_once(shards: int, nreq_per_host: int,
              window_mode: str = "adaptive"):
    """Time one sharded mesh run; return (seconds, result)."""
    started = time.perf_counter()
    result = run_echo_mesh(hosts=MESH_HOSTS, shards=shards,
                           nreq_per_host=nreq_per_host,
                           window_mode=window_mode)
    return time.perf_counter() - started, result


_AB_RUNS = ("pump", "sparse", "echo", "mesh", "cluster")

#: The A/B gate's cluster SLO point.
CLUSTER_POINT = dict(modulation="steady", load_krps=40.0, nreq=1000)


def ab_once(name: str, nreq: int):
    """One A/B run: (seconds, signature); the pump has no signature."""
    if name == "pump":
        return pump_once(), None
    if name == "sparse":
        return sparse_pump_once()[0], None
    if name == "echo":
        return echo_once(nreq)
    if name == "cluster":
        started = time.perf_counter()
        result = run_cluster_point(**CLUSTER_POINT)
        return time.perf_counter() - started, cluster_signature(result)
    seconds, result = mesh_once(1, MESH_NREQ_PER_HOST)
    return seconds, mesh_signature(result)


# Runs ab_once against another tree. ``repro`` is imported from that
# tree's PYTHONPATH first, so every ``repro`` module bench_kernel imports
# afterwards resolves inside that package, not in this checkout's src/.
_SUBPROCESS_SNIPPET = """\
import json, os, sys
import repro
assert repro.__file__.startswith(os.path.abspath({tree!r})), repro.__file__
sys.path.insert(0, {here!r})
from bench_kernel import ab_once
ab_once({name!r}, {nreq})  # warmup
seconds, signature = ab_once({name!r}, {nreq})
print(json.dumps({{"elapsed": seconds, "signature": signature}}))
"""


def ab_subprocess(tree: str, name: str, nreq: int):
    """Time one A/B run against another source tree, same timed region."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    snippet = _SUBPROCESS_SNIPPET.format(
        tree=tree, here=os.path.dirname(os.path.abspath(__file__)),
        name=name, nreq=nreq)
    out = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True, check=True).stdout
    payload = json.loads(out.splitlines()[-1])
    signature = payload["signature"]
    return payload["elapsed"], (tuple(signature)
                                if isinstance(signature, list) else signature)


def run_ab(tree: str, rounds: int, nreq: int,
           allow_signature_change: bool) -> dict:
    """The baseline section: interleaved A/B rounds of every run in
    ``_AB_RUNS`` on this tree and on ``tree``.

    Both sides run in a fresh subprocess after one warmup run: timed in
    this long-lived process instead, the same tree read 1.38x on the pump
    and 0.89x on the echo against itself.
    """
    sides = {"ours": partial(ab_subprocess, REPO_ROOT),
             "theirs": partial(ab_subprocess, tree)}
    times = {(side, name): [] for side in sides for name in _AB_RUNS}
    signatures = {key: set() for key in times}
    for round_index in range(rounds):
        # Alternate which side runs first, so an order effect cancels.
        order = list(sides.items())[::-1 if round_index % 2 else 1]
        for name in _AB_RUNS:
            for side, run in order:
                seconds, signature = run(name, nreq)
                times[side, name].append(seconds)
                signatures[side, name].add(signature)
    # Basename only: committed JSON must not leak local paths.
    section = {"tree": scrub_path(tree)}
    for name in _AB_RUNS:
        ours, theirs = signatures["ours", name], signatures["theirs", name]
        if len(ours) != 1 or len(theirs) != 1:
            raise AssertionError(f"{name} run is non-deterministic: "
                                 f"{sorted(ours)} vs {sorted(theirs)}")
        mine = statistics.median(times["ours", name])
        base = statistics.median(times["theirs", name])
        section[name] = {
            "median_s": round(mine, 4),
            "baseline_median_s": round(base, 4),
            "speedup_median": round(base / mine, 3),
        }
        if ours != theirs:
            if not allow_signature_change:
                raise AssertionError(
                    f"baseline tree gives a different {name} result "
                    f"({sorted(theirs)} vs {sorted(ours)}); a speedup "
                    "between non-identical simulations is meaningless "
                    "(pass --allow-signature-change only for a deliberate "
                    "re-baseline)"
                )
            section[name]["baseline_signature"] = theirs.pop()
    return section


def mesh_window_reduction() -> dict:
    """Fixed vs adaptive window counts on the service-heavy latency mesh.

    Deterministic (simulated counts, no wall clock): asserts bit-identical
    payloads across modes and an at-least-``MESH_REDUCTION_MIN``x window
    reduction, then reports both counts so regressions show up as a diff
    in the committed JSON.
    """
    fixed = run_echo_mesh(window_mode="fixed", **MESH_REDUCTION_KW)
    adaptive = run_echo_mesh(window_mode="adaptive", **MESH_REDUCTION_KW)
    if mesh_signature(fixed) != mesh_signature(adaptive):
        raise AssertionError(
            "adaptive latency mesh diverges from fixed windows"
        )
    reduction = fixed.windows / adaptive.windows
    if reduction < MESH_REDUCTION_MIN:
        raise AssertionError(
            f"adaptive window reduction regressed: {fixed.windows} fixed "
            f"vs {adaptive.windows} adaptive windows "
            f"({reduction:.2f}x < {MESH_REDUCTION_MIN}x)"
        )
    return {
        "params": dict(MESH_REDUCTION_KW),
        "windows_fixed": fixed.windows,
        "windows_adaptive": adaptive.windows,
        "stretched_windows": adaptive.stretched_windows,
        "reduction": round(reduction, 2),
        "min_reduction": MESH_REDUCTION_MIN,
    }


def run_mesh_scenario(rounds: int, nreq_per_host: int) -> dict:
    """The mesh section: interleaved rounds across shard counts.

    Asserts the parity contract along the way — every (round, shard count)
    run must produce the same canonical result signature.
    """
    times = {shards: [] for shards in MESH_SHARD_COUNTS}
    signatures = set()
    result = None
    _, fixed = mesh_once(1, nreq_per_host, "fixed")  # warmup + parity run
    signatures.add(mesh_signature(fixed))
    for _ in range(rounds):
        for shards in MESH_SHARD_COUNTS:
            seconds, result = mesh_once(shards, nreq_per_host)
            times[shards].append(seconds)
            signatures.add(mesh_signature(result))
    if len(signatures) != 1:
        raise AssertionError(
            "sharded mesh runs are not bit-identical across shard counts "
            f"and window modes ({len(signatures)} distinct signatures)"
        )
    serial_median = statistics.median(times[1])
    section = {
        "hosts": MESH_HOSTS,
        "nreq_per_host": nreq_per_host,
        "cpu_count": os.cpu_count(),
        "window_mode": result.window_mode,
        "signature": {
            "throughput_mrps": result.throughput_mrps,
            "p50_us": result.p50_us,
            "p99_us": result.p99_us,
            "count": result.count,
            "events_total": result.events_total,
        },
        # Engine accounting, deliberately outside the parity signature:
        # fixed and adaptive runs legally differ here.
        "windows": {"fixed": fixed.windows, "adaptive": result.windows},
        "stretched_windows": result.stretched_windows,
        "skipped_shard_rounds": result.skipped_shard_rounds,
        "window_reduction": mesh_window_reduction(),
        "shards": {},
    }
    for shards in MESH_SHARD_COUNTS:
        median = statistics.median(times[shards])
        section["shards"][str(shards)] = {
            "median_s": round(median, 4),
            "best_s": round(min(times[shards]), 4),
            "median_events_per_s": round(result.events_total / median),
            "speedup_vs_serial": round(serial_median / median, 3),
        }
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9,
                        help="timed repetitions per benchmark (default 9)")
    parser.add_argument("--nreq", type=int, default=4000,
                        help="echo benchmark request count (default 4000)")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_kernel.json"),
                        help="output JSON path (default repo root)")
    parser.add_argument("--baseline", metavar="TREE", default=None,
                        help="older checkout to time the pump, echo and "
                             "serial mesh against (interleaved rounds; "
                             "records each speedup)")
    parser.add_argument("--allow-signature-change", action="store_true",
                        help="accept a baseline with a different result "
                             "signature (deliberate re-baseline PRs only); "
                             "records both signatures instead of failing")
    parser.add_argument("--scenario", default="all", metavar="LIST",
                        help="comma-separated subset of "
                             f"{','.join(_SCENARIOS)} (default: all); "
                             "skipped sections are carried over from an "
                             "existing --out file")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.scenario == "all":
        scenarios = set(_SCENARIOS)
    else:
        scenarios = set(args.scenario.split(","))
        unknown = scenarios - set(_SCENARIOS)
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(sorted(unknown))}")

    # Sections not selected this invocation survive from the existing file,
    # so scenario-scoped runs append rather than clobber.
    carried = {}
    if os.path.exists(args.out):
        try:
            with open(args.out) as handle:
                carried = json.load(handle)
        except (OSError, ValueError):
            carried = {}
    report = {"rounds": args.rounds}
    for section in ("pump", "echo", "mesh", "baseline"):
        if section in carried:
            report[section] = carried[section]

    if "pump" in scenarios:
        pump_events = PUMP_PROCS * PUMP_TICKS
        pump_once()  # warmup
        pump_times = [pump_once() for _ in range(args.rounds)]
        report["pump"] = {
            "procs": PUMP_PROCS,
            "ticks_per_proc": PUMP_TICKS,
            "events": pump_events,
            "median_s": round(statistics.median(pump_times), 4),
            "best_s": round(min(pump_times), 4),
            "median_events_per_s": round(
                pump_events / statistics.median(pump_times)),
        }
        sparse_pump_once()  # warmup
        sparse_times = []
        for _ in range(args.rounds):
            seconds, sparse_events, sim = sparse_pump_once()
            sparse_times.append(seconds)
        sparse_median = statistics.median(sparse_times)
        report["pump"]["sparse"] = {
            "procs": SPARSE_PROCS,
            "burst": SPARSE_BURST,
            "step_ns": SPARSE_STEP_NS,
            "gap_ns": SPARSE_GAP_NS,
            "rounds": SPARSE_ROUNDS,
            "events": sparse_events,
            "median_s": round(sparse_median, 4),
            "best_s": round(min(sparse_times), 4),
            "median_events_per_s": round(sparse_events / sparse_median),
            # Share of the events fired in place, with no heap round trip.
            "run_ahead_share": round(sim._ahead_count / sparse_events, 4),
        }

    if "echo" in scenarios:
        echo_once(args.nreq)  # warmup
        echo_times = []
        echo_sigs = set()
        for round_index in range(args.rounds):
            seconds, sig = echo_once(args.nreq)
            echo_times.append(seconds)
            echo_sigs.add(sig)
        if len(echo_sigs) != 1:
            raise AssertionError(
                f"echo benchmark is non-deterministic: {sorted(echo_sigs)}"
            )
        signature = echo_sigs.pop()
        report["echo"] = {
            "nreq": args.nreq,
            "median_s": round(statistics.median(echo_times), 4),
            "best_s": round(min(echo_times), 4),
            "signature": {
                "throughput_mrps": signature[0],
                "p50_us": signature[1],
                "p99_us": signature[2],
                "count": signature[3],
            },
        }

    if "mesh" in scenarios:
        report["mesh"] = run_mesh_scenario(args.rounds, MESH_NREQ_PER_HOST)

    report.pop("baseline", None)  # stale unless recomputed below
    if args.baseline:
        report["baseline"] = run_ab(args.baseline, args.rounds, args.nreq,
                                    args.allow_signature_change)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
