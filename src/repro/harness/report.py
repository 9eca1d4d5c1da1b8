"""Text rendering of paper-style tables.

The experiment catalogue (:mod:`repro.harness.experiments`) and the CLI
print these, so a run's output can be compared side by side with the
paper's tables and figures (EXPERIMENTS.md embeds the archived tables).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width text table."""
    materialized: List[List[str]] = [[_fmt(cell) for cell in row]
                                     for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_breakdown(breakdown, title: str = "Per-stage latency breakdown") -> str:
    """Render a repro.obs.Breakdown as a Fig 3-style table.

    One row per pipeline stage (p50/mean in us, share of the end-to-end
    p50), plus a footer comparing the sum of stage p50s against the
    measured end-to-end p50 — the consistency check the tracer is for.
    """
    rows = [(label, f"{p50_us:.3f}", f"{mean_us:.3f}", f"{share:.1%}", count)
            for label, p50_us, mean_us, share, count in breakdown.rows()]
    table = render_table(
        ["stage", "p50 us", "mean us", "share", "count"], rows, title=title
    )
    lines = [table]
    if breakdown.e2e is not None:
        stage_sum_us = breakdown.stage_p50_sum_ns / 1000.0
        e2e_us = breakdown.e2e.p50_us
        deviation = (stage_sum_us / e2e_us - 1.0) if e2e_us else 0.0
        lines.append(
            f"stage p50 sum = {stage_sum_us:.3f} us vs end-to-end p50 = "
            f"{e2e_us:.3f} us ({deviation:+.1%}); "
            f"{breakdown.spans_used} spans"
            + (f", {breakdown.spans_skipped} skipped (warmup/incomplete)"
               if breakdown.spans_skipped else "")
        )
    return "\n".join(lines)


def render_metrics(snapshot: dict, title: str = "Metrics registry") -> str:
    """Render a MetricsRegistry snapshot as one flat component/metric table."""
    rows = []
    for component in sorted(snapshot):
        for name in sorted(snapshot[component]):
            value = snapshot[component][name]
            if isinstance(value, dict):  # histogram summary
                value = ", ".join(f"{k}={_fmt(v)}"
                                  for k, v in sorted(value.items()))
            rows.append((component, name, value))
    return render_table(["component", "metric", "value"], rows, title=title)


def render_utilization(utilization: dict,
                       title: str = "Utilization (exact busy fractions)") -> str:
    """Render a :func:`repro.obs.utilization_summary` dict, busiest first."""
    rows = [(name, f"{frac:.1%}")
            for name, frac in sorted(utilization.items(),
                                     key=lambda kv: -kv[1])]
    return render_table(["component", "busy"], rows, title=title)


def render_tenant_utilization(
        utilization: dict, tenants: dict,
        title: str = "Per-tenant utilization (exact busy fractions)") -> str:
    """Render a utilization summary grouped by owning tenant.

    ``tenants`` is the :func:`repro.obs.utilization_tenants` key->tenant
    map; components it does not name (the shared blue-region endpoints,
    CPU cores) are grouped under ``shared``. Busiest first within each
    group, busiest group first — so a noisy neighbour's saturated
    namespace tops the table.
    """
    groups: dict = {}
    for key, frac in utilization.items():
        groups.setdefault(tenants.get(key, "shared"), []).append((key, frac))
    ordered = sorted(
        groups.items(),
        key=lambda kv: (-max(frac for _, frac in kv[1]), kv[0]),
    )
    rows = []
    for tenant, entries in ordered:
        for key, frac in sorted(entries, key=lambda kv: -kv[1]):
            rows.append((tenant, key, f"{frac:.1%}"))
    return render_table(["tenant", "component", "busy"], rows, title=title)


def render_bottleneck(report) -> str:
    """Render a :class:`repro.obs.BottleneckReport` (or its as_dict form)."""
    data = report if isinstance(report, dict) else report.as_dict()
    latency_key = next((k for k in data["per_point"][0] if k.endswith("_us")),
                       "p99_us") if data["per_point"] else "p99_us"
    with_tenant = any(p.get("tenant") for p in data["per_point"])
    headers = ["offered Mrps", latency_key.replace("_us", " us"),
               "bottleneck", "busy"]
    if with_tenant:
        headers.append("tenant")
    rows = []
    for p in data["per_point"]:
        row = [p["offered_mrps"], p[latency_key], p["bottleneck"],
               f"{p['utilization']:.1%}"]
        if with_tenant:
            row.append(p.get("tenant") or "-")
        rows.append(row)
    table = render_table(headers, rows,
                         title="Bottleneck attribution per load point")
    verdict = (
        f"latency knee at {data['knee_load_mrps']} Mrps "
        f"(p99 {data['knee_latency_us']:.2f} us): first-saturating component "
        f"is {data['bottleneck']} at {data['bottleneck_utilization']:.1%} busy"
    )
    if data.get("bottleneck_tenant"):
        verdict += f", owned by tenant {data['bottleneck_tenant']}"
    return f"{table}\n{verdict}"


def render_anomalies(report, limit: int = 15) -> str:
    """Render a :class:`repro.obs.AnomalyReport` (or its as_dict form).

    One row per finding (strongest first, capped at ``limit``) plus the
    attribution verdict naming the culprit component/tenant.
    """
    data = report if isinstance(report, dict) else report.as_dict()
    findings = data["findings"]
    if not findings:
        return ("no anomalies detected "
                f"(|z| >= {data['z_threshold']}, window {data['window']})")
    rows = []
    for f in findings[:limit]:
        rows.append((
            f["component"], f["name"], f.get("tenant") or "-",
            f["t_ns"], f["direction"], f"{f['zscore']:+.1f}",
            f"{f['baseline']:.4g}", f"{f['value']:.4g}",
        ))
    table = render_table(
        ["component", "probe", "tenant", "t_ns", "dir", "z",
         "baseline", "level"],
        rows, title="Timeline anomalies (strongest first)",
    )
    lines = [table]
    if len(findings) > limit:
        lines.append(f"... and {len(findings) - limit} weaker findings")
    verdict = (f"verdict: {data['culprit']} deviated hardest "
               f"({len(findings)} findings total)")
    if data.get("culprit_tenant"):
        verdict += f", owned by tenant {data['culprit_tenant']}"
    lines.append(verdict)
    return "\n".join(lines)


def render_slo_curve(rows, deadline_us: float,
                     title: str = "SLO attainment vs offered load") -> str:
    """Render a cluster SLO sweep: attainment curve + scaling summary.

    ``rows`` are ``run_cluster_point`` result dicts (one per offered
    load). Tiers the autoscaler grew are summarized per row as
    ``tier initial->peak``; the event log of the highest-load row is
    appended so the scaling is visible without opening the timeline.
    """
    rows = list(rows)

    def scaled(row):
        parts = [f"{name} {t['initial']}->{t['peak']}"
                 for name, t in sorted(row["tiers"].items())
                 if t["peak"] > t["initial"]]
        return ", ".join(parts) if parts else "-"

    table = render_table(
        ["peak Krps", "thr Krps", "p50 us", "p99 us",
         f"SLO<{deadline_us:g}us", "scaled tiers"],
        [(row["load_krps"], row["throughput_krps"], row["p50_us"],
          row["p99_us"], f"{row['slo_attainment']:.1%}", scaled(row))
         for row in rows],
        title=title,
    )
    lines = [table]
    if rows:
        last = rows[-1]
        events = last["scaling_events"]
        if events:
            lines.append(
                f"autoscaler events at {last['load_krps']:g} Krps peak:"
            )
            for event in events:
                lines.append(
                    f"  t={event['t_ns'] / 1e6:8.3f} ms  "
                    f"{event['tier']:>14s} {event['action']:>4s} -> "
                    f"{event['active']} active "
                    f"(util {event['utilization']:.2f})"
                )
        else:
            lines.append(
                f"no autoscaler events at {last['load_krps']:g} Krps peak"
            )
    return "\n".join(lines)
