"""Dagger simulator benchmark: host speed, set-up, memory and simulated
outputs on four workloads, plus a layer-attributed traced run.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the root of a checkout (it imports ``repro`` from ``src/``).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer table; either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Every repetition
is checked (conservation, delivery, digest); a run that fails any check
reports all its operations as failed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from calibration import calibrate, slowness  # noqa: E402
from layers import LAYERS, OFF_BY_DEFAULT, LayerProfile  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: (name, unit) of the metrics printed with ``--trace 0``.
END_TO_END = (
    ("host_rpcs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_mrps", "Mrps"),
)

#: (name, unit) of the metrics printed with ``--trace 1``.
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("calls_per_rpc", "calls/rpc"),
                        ("self_us_per_rpc", "us/rpc"))]
    + [
        ("python.import_s", "s"),
        ("harness.build_s", "s"),
        ("python.gc.pause_us_per_rpc", "us/rpc"),
        ("python.gc.collections_per_krpc", "1/krpc"),
        ("sim.kernel.events_per_rpc", "events/rpc"),
        ("sim.sharded.windows_per_krpc", "1/krpc"),
        ("sim.sharded.stretched_share", "ratio"),
        ("sim.sharded.boundary_bytes_per_rpc", "B/rpc"),
        ("sim.sharded.pipe_wait_share", "ratio"),
        ("sim.sharded.pickle_us_per_rpc", "us/rpc"),
        ("rpc.transport.retransmits_per_rpc", "pkts/rpc"),
        ("rpc.transport.duplicates_per_rpc", "pkts/rpc"),
        ("rpc.transport.useful_ratio", "ratio"),
        ("hw.nic.conn_cache_hit_ratio", "ratio"),
        ("hw.nic.mean_batch", "rpcs/batch"),
        ("harness.cluster.scaling_events", "count"),
        ("obs.chrome_trace.bytes_per_rpc", "B/rpc"),
        ("trace.overhead_x", "x"),
    ]
)

#: Repetitions per run, at least; more while ``--seconds`` allows.
MIN_REPS = 2
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7

# -- checks ---------------------------------------------------------------------


class Checks:
    """Operation and failure accounting over every repetition of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Simulated digest per repetition size: equal sizes must agree.
        self.digests: Dict[int, str] = {}

    def add(self, outcome: Outcome, label: str, size: int) -> Outcome:
        self.attempted += outcome.rpcs
        self.failed += outcome.failed
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)
        digest = self.digests.setdefault(size, outcome.digest)
        if outcome.digest != digest:
            self.problems.append(f"{label}: digest {outcome.digest} differs "
                                 f"from {digest}")
        return outcome

    def lines(self) -> List[str]:
        digests = ", ".join(f"{digest} ({size} RPCs)"
                            for size, digest in self.digests.items())
        return ([f"  operations       attempted {self.attempted}, failed "
                 f"{self.failed}",
                 f"  digest           {digests}"]
                + [f"  CHECK FAILED     {p}" for p in self.problems])

    def result(self, metrics: Dict[str, Dict[str, Any]]) -> dict:
        correct = not self.problems
        return {"correct": correct, "attempted": max(1, self.attempted),
                "failed": self.failed if correct else max(1, self.attempted),
                "metrics": metrics}


def set_up_times(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Import and build seconds of fresh interpreters, in reference-host
    seconds."""
    imports, builds = [], []
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
               str(seed), SRC]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(command, check=True, capture_output=True,
                               text=True, cwd=ROOT, timeout=120)
        times = json.loads(probe.stdout.strip().splitlines()[-1])
        imports.append(times["import_s"] / times["slowness"])
        builds.append(times["build_s"] / times["slowness"])
    return imports, builds


def peak_rss_mb(shards: int) -> float:
    """Peak resident memory of this process plus its shard workers (the
    largest reaped child, once per shard; no other child has run yet)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (shards * children if shards > 1 else 0)) / 1024.0


def repetition(workload, seed: int, **options) -> Tuple[Callable, Callable]:
    gc.collect()
    return workload.prepare(seed, **options)


def reference(workload, seed: int, checks: Checks) -> Outcome:
    """The untimed first repetition: lazy set-up, simulated outputs, and
    (read before the calibration loop first runs) the memory that import,
    build and one repetition leave in a user's process."""
    size = workload.reference_rpcs
    go, finish = repetition(workload, seed, rpcs=size)
    return checks.add(finish(go()), "reference repetition", size)


# -- untraced run -----------------------------------------------------------------


def measure(workload, seed: int, seconds: float) -> Tuple[dict, List[str]]:
    checks = Checks()
    sim = reference(workload, seed, checks).sim
    peak = peak_rss_mb(getattr(workload, "shards", 1))

    rates, raw_rates = [], []
    start = time.perf_counter()
    before = calibrate()
    while True:
        go, finish = workload.prepare(seed)
        started = time.perf_counter()
        raw = go()
        elapsed = time.perf_counter() - started
        outcome = checks.add(finish(raw), f"repetition {len(rates) + 1}",
                             workload.rpcs)
        del go, finish, raw
        after = calibrate()
        raw_rates.append(outcome.completed / elapsed)
        rates.append(outcome.completed / elapsed * slowness(before, after))
        before = after
        spent = time.perf_counter() - start
        if len(rates) >= MIN_REPS and spent + elapsed > seconds:
            break

    imports, builds = set_up_times(workload.name, seed)
    setups = [i + b for i, b in zip(imports, builds)]
    values = {
        "host_rpcs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "sim_mrps": sim["sim_mrps"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    lines = [f"== {workload.name} (seed {seed}) =="]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<16} {values[name]:>14.6g} {unit}")
    lines += [
        f"  repetitions      1 reference of {workload.reference_rpcs} RPCs, "
        f"{len(rates)} timed of {workload.rpcs} RPCs",
        "  host rates       " + " ".join(f"{r:.0f}" for r in rates)
        + f" (raw median {statistics.median(raw_rates):.6g} 1/s)",
        f"  latency samples  {sim['samples']} in the reference repetition",
        f"  set-up           import {statistics.median(imports):.4f} s + "
        f"build {statistics.median(builds):.4f} s (median of "
        f"{SETUP_PROBES} fresh interpreters)",
    ] + checks.lines()
    return checks.result(metrics), lines


# -- traced run ---------------------------------------------------------------------


class GcMeter:
    """Collector pauses and collections, from ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def run(self, fn: Callable[[], Any]) -> Any:
        gc.callbacks.append(self._callback)
        try:
            return fn()
        finally:
            gc.callbacks.remove(self._callback)


def traced(workload, seed: int, seconds: float) -> Tuple[dict, List[str]]:
    checks = Checks()
    # mesh4's host layers come from one in-process shard, which runs every
    # host in this process where the profiler can see it.
    options = {"shards": 1} if workload.name == "mesh4" else {}
    size = workload.rpcs
    go, finish = repetition(workload, seed, **options)
    # The first repetition in the process: the only one whose trace export
    # size does not depend on earlier repetitions (see workloads.py).
    detail = checks.add(finish(go()), "warm-up", size).detail

    profiles: List[LayerProfile] = []
    ratios, gc_pauses = [], []
    gc_collections = None
    outcome: Optional[Outcome] = None
    start = time.perf_counter()
    while True:
        meter = GcMeter()
        go, finish = repetition(workload, seed, **options)
        started = time.perf_counter()
        raw = meter.run(go)
        untraced_s = time.perf_counter() - started
        outcome = checks.add(finish(raw), "untraced repetition", size)
        del raw
        gc_pauses.append(meter.pause_s)
        if gc_collections is None:
            gc_collections = meter.collections

        profile = LayerProfile(SRC)
        go, finish = repetition(workload, seed, **options)
        started = time.perf_counter()
        raw = profile.run(go)
        traced_s = time.perf_counter() - started
        checks.add(finish(raw), f"traced repetition {len(profiles) + 1}",
                   size)
        del raw
        profile.entries = []
        if profiles and profile.calls != profiles[0].calls:
            checks.problems.append("layer call counts differ between traced "
                                   "repetitions")
        profiles.append(profile)
        ratios.append(traced_s / untraced_s)
        if time.perf_counter() - start + untraced_s + traced_s > seconds:
            break

    rpcs = outcome.completed
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls_per_rpc"] = profiles[0].calls[layer] / rpcs
        values[f"{layer}.self_us_per_rpc"] = statistics.median(
            p.self_s[layer] for p in profiles) / rpcs * 1e6
    if workload.name != "echo_traced_lossy":
        for layer in OFF_BY_DEFAULT:
            if profiles[0].calls[layer]:
                checks.problems.append(
                    f"off-means-free: {layer} made "
                    f"{profiles[0].calls[layer]} calls with its feature off")

    imports, builds = set_up_times(workload.name, seed)
    values["python.import_s"] = statistics.median(imports)
    values["harness.build_s"] = statistics.median(builds)
    values["python.gc.pause_us_per_rpc"] = (
        statistics.median(gc_pauses) / rpcs * 1e6)
    values["python.gc.collections_per_krpc"] = gc_collections / rpcs * 1e3
    values["trace.overhead_x"] = statistics.median(ratios)

    sent = detail.get("data_packets", 0) + detail.get("retransmissions", 0)
    lookups = detail.get("cache_hits", 0) + detail.get("cache_misses", 0)
    values.update({
        "sim.kernel.events_per_rpc": 0.0,
        "sim.sharded.windows_per_krpc": 0.0,
        "sim.sharded.stretched_share": 0.0,
        "sim.sharded.boundary_bytes_per_rpc": 0.0,
        "sim.sharded.pipe_wait_share": 0.0,
        "sim.sharded.pickle_us_per_rpc": 0.0,
        "rpc.transport.retransmits_per_rpc":
            detail.get("retransmissions", 0) / rpcs,
        "rpc.transport.duplicates_per_rpc": detail.get("duplicates", 0) / rpcs,
        "rpc.transport.useful_ratio":
            detail["data_packets"] / sent if sent else 1.0,
        "hw.nic.conn_cache_hit_ratio":
            detail["cache_hits"] / lookups if lookups else 0.0,
        "hw.nic.mean_batch": detail.get("mean_batch", 0.0),
        "harness.cluster.scaling_events":
            float(detail.get("scaling_events", 0)),
        "obs.chrome_trace.bytes_per_rpc": detail.get("export_bytes", 0) / rpcs,
    })
    lines = [f"== {workload.name} (seed {seed}, traced) =="]
    if workload.name == "mesh4":
        lines += _mesh_extras(workload, seed, checks, values, rpcs)

    total = sum(values[f"{layer}.self_us_per_rpc"] for layer in LAYERS)
    lines.append(f"  {'layer':<20} {'calls/rpc':>12} {'self us/rpc':>12} "
                 f"{'share':>7}")
    for layer in LAYERS:
        us = values[f"{layer}.self_us_per_rpc"]
        lines.append(f"  {layer:<20} {values[f'{layer}.calls_per_rpc']:>12.4f}"
                     f" {us:>12.3f} {us / total:>7.1%}")
    for name, unit in PER_LAYER[2 * len(LAYERS):]:
        lines.append(f"  {name:<36} {values[name]:>12.6g} {unit}")
    lines.append(f"  traced repetitions {len(profiles)} of {size} RPCs")
    lines += checks.lines()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return checks.result(metrics), lines


def _mesh_extras(workload, seed: int, checks: Checks, values: dict,
                 rpcs: int) -> List[str]:
    """The sharded coordinator's numbers, from 2-shard repetitions: one
    untraced (window accounting), one with the coordinator profiled and
    the shard workers not."""
    go, finish = repetition(workload, seed)
    started = time.perf_counter()
    raw = go()
    sharded_s = time.perf_counter() - started
    outcome = checks.add(finish(raw), "2-shard repetition", workload.rpcs)
    detail = outcome.detail
    values["sim.kernel.events_per_rpc"] = detail["events_total"] / rpcs
    values["sim.sharded.windows_per_krpc"] = detail["windows"] / rpcs * 1e3
    values["sim.sharded.stretched_share"] = (
        detail["stretched_windows"] / detail["windows"])
    values["sim.sharded.boundary_bytes_per_rpc"] = (
        detail["boundary_bytes"] / rpcs)

    profile = LayerProfile(SRC)
    go, finish = repetition(workload, seed)
    started = time.perf_counter()
    raw = profile.run(go)
    coordinator_s = time.perf_counter() - started
    checks.add(finish(raw), "2-shard coordinator-traced repetition",
               workload.rpcs)
    wait_s = profile.builtin_time("posix.read")
    pickle_s = (profile.function_time("multiprocessing/reduction.py", "dumps")
                + profile.builtin_time("_pickle.loads"))
    values["sim.sharded.pipe_wait_share"] = wait_s / coordinator_s
    values["sim.sharded.pickle_us_per_rpc"] = pickle_s / rpcs * 1e6
    return [f"  2-shard run      {sharded_s:.3f} s untraced, "
            f"{coordinator_s:.3f} s with the coordinator traced "
            "(digest checked against the in-process traced run)"]


# -- entry point ---------------------------------------------------------------------


def _run_all(args) -> int:
    """Each workload in its own process, so memory and set-up stay apart."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else measure
    result, lines = run(workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
