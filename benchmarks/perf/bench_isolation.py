"""Fig 14 tenant-isolation gate: the noisy neighbour stays in its lane.

Runs a small ``experiments.fig14_isolation`` smoke (one tenant ramped to
saturation, the others on a steady trickle, per-tenant telemetry on) and
fails unless the paper's section 5.5 claim reproduces:

- **Attribution gate** — ``attribute_bottleneck`` must blame the noisy
  tenant *by name* (``bottleneck_tenant == t0``) and the saturating
  component must live in that tenant's NIC namespace
  (``nic.t0.<fetch|sched>`` — the batch-1 echo bound of section 5.4).
- **Isolation gate** — every steady tenant's p99 between the quietest
  and loudest noisy load must move less than ``--max-drift`` percent.

``--report-out`` writes the per-tenant utilization + attribution tables
as text; ``--trace-out`` writes a Perfetto trace of the loudest point
with one counter process per tenant. CI uploads both as artifacts.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_isolation.py
        [--nreq N] [--max-drift PCT] [--report-out PATH] [--trace-out PATH]
"""

import argparse
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.harness import experiments  # noqa: E402
from repro.harness.report import render_tenant_utilization  # noqa: E402

#: Noisy-tenant loads for the smoke: quiet baseline, mid, saturation.
SMOKE_LOADS = [1.0, 6.0, 7.5]


def build_report(result) -> str:
    fig14 = next(e for e in experiments.CATALOGUE
                 if e.id == "fig14-isolation")
    loudest = result["points"][-1]
    utilization = render_tenant_utilization(
        loudest["utilization"], loudest["tenants"],
        title=f"Per-tenant utilization at {loudest['offered_mrps']} Mrps",
    )
    return f"{fig14.render(result)}\n\n{utilization}\n"


def export_trace(path: str, noisy_mrps: float, nreq_total: int) -> int:
    """Re-run the loudest point in-process to export its Perfetto trace."""
    from repro.harness import MultiTenantEchoRig

    rig = MultiTenantEchoRig(telemetry=True)
    loads = {name: (noisy_mrps if name == "t0" else 0.5)
             for name in ("t0", "t1", "t2")}
    rig.open_loop(loads, nreq_total=nreq_total)
    return rig.export_chrome_trace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nreq", type=int, default=3000,
                        help="total requests per load point (default 3000)")
    parser.add_argument("--max-drift", type=float, default=10.0, metavar="PCT",
                        help="max steady-tenant p99 drift percent "
                             "(default 10)")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the per-tenant report text here")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Perfetto trace of the loudest point")
    args = parser.parse_args(argv)

    result = experiments.fig14_isolation(
        noisy_loads_mrps=SMOKE_LOADS, nreq_total=args.nreq, cache=False,
    )
    report_text = build_report(result)
    print(report_text)
    if args.report_out:
        with open(args.report_out, "w") as handle:
            handle.write(report_text)
        print(f"wrote report to {args.report_out}")
    if args.trace_out:
        emitted = export_trace(args.trace_out, SMOKE_LOADS[-1], args.nreq)
        print(f"wrote {emitted} trace events to {args.trace_out}")

    failures = []
    report = result["report"]
    noisy = result["noisy"]
    if report["bottleneck_tenant"] != noisy:
        failures.append(
            f"bottleneck tenant is {report['bottleneck_tenant']!r}, "
            f"expected the noisy tenant {noisy!r}"
        )
    expected = {f"nic.{noisy}.fetch", f"nic.{noisy}.sched"}
    if report["bottleneck"] not in expected:
        failures.append(
            f"bottleneck {report['bottleneck']!r} is not the noisy "
            f"tenant's fetch/scheduler bound ({sorted(expected)})"
        )
    for row in result["isolation"]:
        if abs(row["p99_drift"]) * 100.0 > args.max_drift:
            failures.append(
                f"steady tenant {row['tenant']} p99 drifted "
                f"{row['p99_drift']:+.1%} (limit {args.max_drift:.1f}%)"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"PASS: {noisy} blamed by name ({report['bottleneck']} at "
          f"{report['bottleneck_utilization']:.1%}); steady tenants held "
          f"p99 within {args.max_drift:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
