"""Chrome trace-event / Perfetto JSON export.

Maps the observability layer onto the Chrome trace-event format (the JSON
flavor Perfetto's ``ui.perfetto.dev`` opens directly):

- every RPC span becomes a sequence of ``"X"`` (complete) slice events, one
  per breakdown stage, laid out on per-component *thread* tracks (client
  CPU / client NIC / wire / server NIC / server CPU) so the pipeline reads
  left-to-right like the paper's Fig 3, plus one ``"s"``/``"t"``/``"f"``
  flow chain per RPC (``id`` = rpc_id) linking its slices across tracks
  so Perfetto draws causal arrows from client CPU through the wire to
  the server and back;
- every :class:`~repro.obs.timeline.TimeSeries` becomes a ``"C"`` counter
  track. ``counter``-mode probes are exported as their per-interval *rate*
  (so a ``*busy_ns`` integral plots as utilization in [0, 1]); ``gauge``
  probes are exported raw. Tenant-tagged series (Fig 14 multi-tenant
  rigs) get one counter *process* per tenant — Perfetto groups each
  tenant's tracks under a ``tenant <name>`` heading — while untagged
  series stay on the shared ``telemetry`` process.

Timestamps: the trace-event format wants microseconds; simulated integer
nanoseconds are divided by 1000.0 (Perfetto handles fractional µs).

Events are built span by span and series by series and handed on in
chunks of a few thousand. :func:`export_chrome_trace` encodes each chunk
with the one-shot C JSON encoder and writes it before the next is built,
so neither the event list nor the encoded document is ever held whole.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import IO, Iterator, List, Optional, Union

from repro.obs.breakdown import STAGES, _span_segments
from repro.obs.timeline import (
    BUSY_SUFFIX,
    TimelineCollector,
    TimeSeries,
    _summary_key,
)
from repro.obs.trace import RpcSpan, SpanTracer

#: pid of the slice tracks (RPC pipeline) and of the counter tracks.
PIPELINE_PID = 1
TELEMETRY_PID = 2
#: Tenant counter processes start here (one pid per tenant, in
#: collector registration order).
TENANT_PID_BASE = 10

#: Thread tracks for the pipeline process, in display order.
TRACKS: tuple = ("client CPU", "NIC (client)", "wire", "NIC (server)",
                 "server CPU", "other")

_STAGE_TRACK = {
    "client tx (CPU)": "client CPU",
    "host->NIC fetch (req)": "NIC (client)",
    "NIC egress pipeline (req)": "NIC (client)",
    "wire (req)": "wire",
    "NIC ingress + delivery (req)": "NIC (server)",
    "host RX ring wait": "server CPU",
    "dispatch (CPU)": "server CPU",
    "handler": "server CPU",
    "server tx (CPU)": "server CPU",
    "host->NIC fetch (resp)": "NIC (server)",
    "NIC egress pipeline (resp)": "NIC (server)",
    "wire (resp)": "wire",
    "NIC ingress + delivery (resp)": "NIC (client)",
    "client rx (CPU + poll)": "client CPU",
}
_STAGE_LABELS = {(a, b): label for a, b, label in STAGES}
_TRACK_TID = {name: i for i, name in enumerate(TRACKS)}

#: Events per chunk handed to the encoder. ``json.dump`` would take the
#: pure-Python encoder and write token by token; one ``json.dumps`` call
#: per chunk runs in C, and memory is bounded by the chunk, not the trace.
_CHUNK_EVENTS = 4096


def _metadata_events() -> List[dict]:
    events = [
        {"ph": "M", "pid": PIPELINE_PID, "tid": 0, "name": "process_name",
         "args": {"name": "RPC pipeline"}},
        {"ph": "M", "pid": TELEMETRY_PID, "tid": 0, "name": "process_name",
         "args": {"name": "telemetry"}},
    ]
    for track, tid in _TRACK_TID.items():
        events.append({"ph": "M", "pid": PIPELINE_PID, "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
    return events


def _span_events(span: RpcSpan) -> List[dict]:
    """One span's slice events followed by its flow chain."""
    events = []
    tracks = []
    for a, b, duration in _span_segments(span):
        label = _STAGE_LABELS.get((a, b), f"{a} -> {b}")
        track = _STAGE_TRACK.get(label, "other")
        tracks.append((track, span.events[a]))
        events.append({
            "ph": "X",
            "name": label,
            "cat": "rpc",
            "pid": PIPELINE_PID,
            "tid": _TRACK_TID[track],
            "ts": span.events[a] / 1000.0,
            "dur": duration / 1000.0,
            "args": {"rpc_id": span.rpc_id},
        })
    events.extend(_flow_events(span.rpc_id, tracks))
    return events


def _flow_events(rpc_id: int, tracks: List[tuple]) -> List[dict]:
    """Flow (``s``/``t``/``f``) events tying one RPC's slices together.

    One flow chain per span, with a point at every *track transition*
    (client CPU -> client NIC -> wire -> ...), so Perfetto draws a causal
    arrow each time the request hops components; consecutive slices on
    the same track don't get redundant arrows. Each point's ``ts`` is
    its slice's start, which is how the trace format binds a flow event
    to its enclosing slice; the terminating ``"f"`` uses ``bp: "e"``
    (bind to enclosing slice) per the spec.
    """
    hops = []
    previous = None
    for track, t_ns in tracks:
        if track != previous:
            hops.append((track, t_ns))
            previous = track
    if len(hops) < 2:
        return []
    events = []
    for index, (track, t_ns) in enumerate(hops):
        event = {
            "ph": "s" if index == 0 else
                  ("f" if index == len(hops) - 1 else "t"),
            "name": "rpc flow",
            "cat": "rpc",
            "id": rpc_id,
            "pid": PIPELINE_PID,
            "tid": _TRACK_TID[track],
            "ts": t_ns / 1000.0,
        }
        if event["ph"] == "f":
            event["bp"] = "e"
        events.append(event)
    return events


def _counter_events(series: TimeSeries, pid: int = TELEMETRY_PID) -> List[dict]:
    """One ``"C"`` event per sample (rate for counters, raw for gauges)."""
    track = f"{series.component}.{series.name}"
    if series.mode == "counter":
        samples = series.rate()
        if series.name.endswith(BUSY_SUFFIX):
            track = f"{_summary_key(series)} utilization"
    else:
        samples = list(zip(series.times, series.values))
    return [
        {"ph": "C", "name": track, "pid": pid, "tid": 0,
         "ts": t / 1000.0, "args": {"value": value}}
        for t, value in samples
    ]


def _exported_spans(tracer: Optional[SpanTracer],
                    max_spans: Optional[int]) -> List[RpcSpan]:
    """The tracer's spans, capped to the ``max_spans`` most recent."""
    if max_spans is not None and max_spans < 1:
        raise ValueError(f"max_spans must be >= 1 or None, got {max_spans}")
    if tracer is None:
        return []
    spans = tracer.spans()
    return spans if max_spans is None else spans[-max_spans:]


def _event_chunks(spans: List[RpcSpan],
                  collector: Optional[TimelineCollector]
                  ) -> Iterator[List[dict]]:
    """Yield the trace's events, in order, as non-empty lists.

    Every list but the last holds at least ``_CHUNK_EVENTS`` events; a
    list is cut only between spans or series, so it overshoots by at most
    one span's or one series' events.
    """
    chunk = _metadata_events()
    for span in spans:
        chunk += _span_events(span)
        if len(chunk) >= _CHUNK_EVENTS:
            yield chunk
            chunk = []
    if collector is not None:
        tenant_pids = {
            tenant: TENANT_PID_BASE + index
            for index, tenant in enumerate(collector.tenants())
        }
        for tenant, pid in tenant_pids.items():
            chunk.append({"ph": "M", "pid": pid, "tid": 0,
                          "name": "process_name",
                          "args": {"name": f"tenant {tenant}"}})
        for series in collector.series():
            pid = tenant_pids.get(series.tenant, TELEMETRY_PID)
            chunk += _counter_events(series, pid)
            if len(chunk) >= _CHUNK_EVENTS:
                yield chunk
                chunk = []
    if chunk:
        yield chunk


def chrome_trace_events(
    tracer: Optional[SpanTracer] = None,
    collector: Optional[TimelineCollector] = None,
    max_spans: Optional[int] = None,
) -> List[dict]:
    """Build the ``traceEvents`` list from a tracer and/or collector.

    ``max_spans`` caps how many spans are exported (most recent kept), the
    same bound as ``SpanTracer(max_spans=N)``: it must be at least 1. The
    list holds every event at once; to write a long trace without that,
    use :func:`export_chrome_trace`, which streams the same events.
    """
    return list(chain.from_iterable(
        _event_chunks(_exported_spans(tracer, max_spans), collector)))


def _write_chunks(handle: IO[str], chunks: Iterator[List[dict]]) -> int:
    handle.write('{"traceEvents": [')
    count = 0
    for chunk in chunks:
        body = json.dumps(chunk)[1:-1]
        handle.write(body if count == 0 else ", " + body)
        count += len(chunk)
    handle.write('], "displayTimeUnit": "ns"}')
    return count


def export_chrome_trace(
    target: Union[str, IO[str]],
    tracer: Optional[SpanTracer] = None,
    collector: Optional[TimelineCollector] = None,
    max_spans: Optional[int] = None,
) -> int:
    """Write a Chrome trace-event JSON file; returns the event count.

    The bytes equal ``json.dumps({"traceEvents": chrome_trace_events(...),
    "displayTimeUnit": "ns"})``, written a chunk at a time. Open the
    resulting file at https://ui.perfetto.dev (or ``chrome://tracing``) —
    see docs/observability.md for the recipe.
    """
    chunks = _event_chunks(_exported_spans(tracer, max_spans), collector)
    if hasattr(target, "write"):
        return _write_chunks(target, chunks)
    with open(target, "w") as handle:
        return _write_chunks(handle, chunks)
