"""Observability layer: per-RPC span tracing + a unified metrics registry.

The paper's headline results (Figs 3, 10, 11) are per-RPC latency
*breakdowns* — where, between client issue and response completion, the
nanoseconds go. This package provides the substrate for producing them
from any simulated run:

- :class:`SpanTracer` (``repro.obs.trace``) — records per-RPC lifecycle
  events in simulated time, fed by lightweight hooks in the RPC runtime,
  the NIC RX/TX paths, and the interconnect models. Off by default: every
  hook site is a single ``tracer is not None`` check, so untraced runs pay
  nothing.
- :class:`MetricsRegistry` (``repro.obs.registry``) — counters, gauges,
  and histograms keyed by component name, plus collectors that absorb the
  existing scattered stats objects (``PacketMonitor``, ``TransportStats``,
  ``FlowControlStats``, interconnect transfer counters) behind one
  ``snapshot()`` API.
- Sinks (``repro.obs.sinks``) — in-memory for tests, JSON-lines for
  offline analysis (and :func:`load_trace` to read a dump back).
- :func:`breakdown` (``repro.obs.breakdown``) — folds a trace into the
  Fig 3-style per-stage latency table.
- :class:`TimelineCollector` (``repro.obs.timeline``) — simulated-time
  sampler turning registered probes into bounded time series, exact
  busy-time utilization summaries, and bottleneck attribution for
  latency-vs-load sweeps.
- :func:`export_chrome_trace` (``repro.obs.chrome_trace``) — Chrome
  trace-event / Perfetto JSON export (slice tracks from spans, counter
  tracks from time series, flow arrows linking a request's slices).
- Sketches (``repro.obs.sketch``) — mergeable O(1)-memory streaming
  aggregates: :class:`QuantileSketch` (relative-error percentiles) and
  :class:`MomentSketch` (exact mean/variance), backing the harness's
  ``mode="sketch"`` recording path for million-request runs.
- Anomaly attribution (``repro.obs.anomaly``) — change-point + z-score
  classification over collected timelines, naming the component/tenant
  that deviated hardest (:func:`detect_anomalies`).

See docs/observability.md for a walkthrough.
"""

from repro import lazy_exports

# ``breakdown`` names both a submodule and the function it exports. Importing
# the submodule binds the module over a lazy name, so the function is bound
# here, before anything can import the submodule.
from repro.obs.breakdown import breakdown

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "anomaly": ("AnomalyFinding", "AnomalyReport", "detect_anomalies",
                "detect_change_points"),
    "sketch": ("DEFAULT_RELATIVE_ACCURACY", "MomentSketch", "QuantileSketch",
               "merge_quantile_sketches"),
    "breakdown": ("Breakdown", "StageStats", "breakdown"),
    "chrome_trace": ("chrome_trace_events", "export_chrome_trace"),
    "registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "register_dagger_nic"),
    "sinks": ("InMemorySink", "JsonLinesSink", "TraceFileError",
              "dump_metrics", "dump_timeline", "dump_trace", "load_trace"),
    "timeline": ("BottleneckReport", "TimelineCollector", "TimeSeries",
                 "attribute_bottleneck", "find_latency_knee",
                 "utilization_summary", "utilization_tenants"),
    "trace": ("CANONICAL_POINTS", "RpcSpan", "SpanTracer", "attach_tracer",
              "packet_point"),
})
