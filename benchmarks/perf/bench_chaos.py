"""Chaos gate: seeded fault schedules are deterministic and recoverable.

Three checks (ISSUE 6's CI criteria), in the style of the fig14 isolation
gate:

- **Determinism gate** — run the fixed ``loss`` fault schedule (wire loss
  >= 1%) twice with the same seed and diff the canonical-JSON results;
  any byte of drift fails. Chaos runs must be exactly reproducible from
  ``(code, config)`` or a chaos failure can never be replayed.
- **Recovery gate** — that same lossy run must complete with zero
  duplicate host deliveries (exactly-once at the host), bounded
  ``lost_unrecoverable``, and every issued RPC accounted for
  (``completed + lost_rpcs == nreq``). It must also re-send little more
  than it loses: the useful ratio, first transmissions over all
  transmissions on both NICs, stays at or above ``MIN_USEFUL_RATIO``
  (go-back-N re-sends on the RTO read about 0.88).
- **Baseline gate** — a telemetry-off, faults-off echo run must keep the
  committed ``BENCH_kernel.json`` signature bit-identical: the chaos
  layer and the transport hardening must cost the default path nothing.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_chaos.py
        [--nreq N] [--seed S] [--max-lost-pct PCT] [--report-out PATH]
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.chaos.rig import FAULT_CLASSES, run_chaos_point  # noqa: E402
from repro.harness.runner import run_closed_loop  # noqa: E402

BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_kernel.json")
#: The gated schedule: i.i.d. wire loss, the acceptance criterion's
#: "wire loss >= 1%" class (FAULT_CLASSES['loss'] is 2%).
GATED_CLASS = "loss"
#: Least share of first transmissions among all transmissions (both NICs)
#: in the gated run: 2 % wire loss should cost a few per cent of re-sends,
#: not the RTO's go-back-N burst of every unACKed packet.
MIN_USEFUL_RATIO = 0.95


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nreq", type=int, default=2000,
                        help="RPCs in the gated chaos run (default 2000)")
    parser.add_argument("--seed", type=int, default=11,
                        help="fault-schedule seed (default 11)")
    parser.add_argument("--max-lost-pct", type=float, default=1.0,
                        metavar="PCT",
                        help="max unrecoverable RPC percent (default 1)")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the gated run's result JSON here")
    args = parser.parse_args(argv)

    loss_rate = FAULT_CLASSES[GATED_CLASS]["wire"]["loss"]
    assert loss_rate >= 0.01, "gated class must inject >= 1% wire loss"
    failures = []

    # -- determinism gate ----------------------------------------------------
    first = run_chaos_point(fault_class=GATED_CLASS, nreq=args.nreq,
                            seed=args.seed)
    second = run_chaos_point(fault_class=GATED_CLASS, nreq=args.nreq,
                             seed=args.seed)
    if canonical(first) != canonical(second):
        failures.append(
            "two runs of the same seeded fault schedule diverged "
            "(canonical JSON differs)"
        )
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(first, handle, indent=2, sort_keys=True)
        print(f"wrote chaos result to {args.report_out}")

    # -- recovery gate -------------------------------------------------------
    injected = (first["chaos"]["wire_losses"]
                + first["chaos"]["wire_burst_losses"])
    stats = first["transport"].values()
    data = sum(s["data_packets"] for s in stats)
    resent = sum(s["retransmissions"] for s in stats)
    useful = data / (data + resent)
    print(f"chaos[{GATED_CLASS}] seed={args.seed}: "
          f"{first['completed']}/{args.nreq} completed, "
          f"{injected} wire losses injected, "
          f"p99 {first['p99_us']} us, p99.9 {first['p999_us']} us, "
          f"useful ratio {useful:.3f} ({resent} retransmissions)")
    if injected == 0:
        failures.append("the lossy schedule injected no wire losses")
    if first["duplicate_host_deliveries"] != 0:
        failures.append(
            f"{first['duplicate_host_deliveries']} duplicate host "
            "deliveries (the host executed an RPC twice)"
        )
    if first["completed"] + first["lost_rpcs"] != args.nreq:
        failures.append(
            f"accounting leak: {first['completed']} completed + "
            f"{first['lost_rpcs']} lost != {args.nreq} issued"
        )
    max_lost = args.nreq * args.max_lost_pct / 100.0
    lost_unrecoverable = (
        first["transport"]["client"]["lost_unrecoverable"]
        + first["transport"]["server"]["lost_unrecoverable"]
    )
    if first["lost_rpcs"] > max_lost or lost_unrecoverable > max_lost:
        failures.append(
            f"lost {first['lost_rpcs']} RPCs / {lost_unrecoverable} "
            f"unrecoverable packets (limit {max_lost:.0f})"
        )

    if useful < MIN_USEFUL_RATIO:
        failures.append(
            f"useful ratio {useful:.3f} < {MIN_USEFUL_RATIO}: "
            f"{resent} retransmissions for {data} data packets re-send "
            "more than the wire lost"
        )

    # -- baseline gate -------------------------------------------------------
    with open(BASELINE_PATH) as handle:
        committed = json.load(handle)["echo"]
    result = run_closed_loop(batch_size=4, nreq=4000)
    signature = {
        "throughput_mrps": result.throughput_mrps,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "count": result.count,
    }
    if canonical(signature) != canonical(committed["signature"]):
        failures.append(
            "faults-off echo signature drifted from BENCH_kernel.json: "
            f"{canonical(signature)} != {canonical(committed['signature'])}"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"PASS: bit-identical across two seeded runs; exactly-once at "
          f"the host under {loss_rate:.0%} wire loss; faults-off baseline "
          "unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
