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

The export is built as JSON text, not as dicts. Every event is formatted
straight to the text ``json.dumps`` would give it, from a template per
kind: strings go through the encoder's own ``encode_basestring_ascii``,
and numbers through ``repr`` when that is the encoder's text (a plain
``int``, a finite plain ``float``) and through ``json.dumps`` otherwise
(``bool``, NaN, ±inf, subclasses). The fragments
are handed on in chunks of a few thousand. :func:`export_chrome_trace`
joins and writes each chunk before the next is built, so neither the
events nor the document is ever held whole, and the bytes equal
``json.dumps`` of the whole document. :func:`chrome_trace_events` parses
the same fragments back into dicts.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import IO, Iterator, List, Optional, Tuple, Union

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

#: Events per chunk: one ``write`` per chunk, and the export's memory is
#: bounded by the chunk, not the trace.
_CHUNK_EVENTS = 4096


def _number(value) -> str:
    """``json.dumps(value)``, through ``repr`` where that is the same text.

    The per-event loops repeat the ``repr`` test inline, so that a plain
    number costs no call.
    """
    kind = type(value)
    if kind is int or kind is float and isfinite(value):
        return repr(value)
    return json.dumps(value)


def _metadata_event(pid: int, tid: int, kind: str, name: str) -> str:
    return (f'{{"ph": "M", "pid": {pid}, "tid": {tid}, "name": "{kind}", '
            f'"args": {{"name": {_string(name)}}}}}')


def _metadata_events() -> List[str]:
    events = [
        _metadata_event(PIPELINE_PID, 0, "process_name", "RPC pipeline"),
        _metadata_event(TELEMETRY_PID, 0, "process_name", "telemetry"),
    ]
    for track, tid in _TRACK_TID.items():
        events.append(
            _metadata_event(PIPELINE_PID, tid, "thread_name", track))
    return events


def _slice_head(a: str, b: str) -> Tuple[int, str]:
    """The track tid and the text up to ``"ts": `` of the ``a -> b`` slice."""
    label = _STAGE_LABELS.get((a, b), f"{a} -> {b}")
    tid = _TRACK_TID[_STAGE_TRACK.get(label, "other")]
    return tid, (f'{{"ph": "X", "name": {_string(label)}, "cat": "rpc", '
                 f'"pid": {PIPELINE_PID}, "tid": {tid}, "ts": ')


#: Slice heads of the canonical stages; a merged ``a -> b`` gap builds its
#: own.
_SLICE_HEADS = {(a, b): _slice_head(a, b) for a, b, _ in STAGES}


def _span_events(span: RpcSpan, out: List[str]) -> None:
    """Append one span's slice events, then its flow chain, to ``out``.

    The flow chain has a point at every *track transition* (client CPU ->
    client NIC -> wire -> ...), so Perfetto draws a causal arrow each
    time the request hops components; consecutive slices on the same
    track don't get redundant arrows, and a span on one track gets no
    chain. Each point's ``ts`` is its slice's start, which is how the
    trace format binds a flow event to its enclosing slice; the
    terminating ``"f"`` uses ``bp: "e"`` (bind to enclosing slice) per
    the spec.
    """
    events = span.events
    rpc_id = _number(span.rpc_id)
    args = f', "args": {{"rpc_id": {rpc_id}}}}}'
    hops = []
    previous = None
    for a, b, duration in _span_segments(span):
        tid, text = _SLICE_HEADS.get((a, b)) or _slice_head(a, b)
        ts = events[a] / 1000.0
        ts = repr(ts) if type(ts) is float and isfinite(ts) else _number(ts)
        dur = duration / 1000.0
        dur = repr(dur) if type(dur) is float and isfinite(dur) else _number(dur)
        out.append(f'{text}{ts}, "dur": {dur}{args}')
        if tid != previous:
            hops.append((tid, ts))
            previous = tid
    if len(hops) < 2:
        return
    flow = (f', "name": "rpc flow", "cat": "rpc", "id": {rpc_id}, '
            f'"pid": {PIPELINE_PID}, "tid": ')
    for index, (tid, ts) in enumerate(hops[:-1]):
        ph = "t" if index else "s"
        out.append(f'{{"ph": "{ph}"{flow}{tid}, "ts": {ts}}}')
    tid, ts = hops[-1]
    out.append(f'{{"ph": "f"{flow}{tid}, "ts": {ts}, "bp": "e"}}')


def _counter_events(series: TimeSeries, pid: int, out: List[str]) -> None:
    """Append one ``"C"`` event per sample (rate for counters, raw for
    gauges) to ``out``."""
    track = f"{series.component}.{series.name}"
    if series.mode == "counter":
        samples = series.rate()
        if series.name.endswith(BUSY_SUFFIX):
            track = f"{_summary_key(series)} utilization"
    else:
        samples = zip(series.times, series.values)
    head = f'{{"ph": "C", "name": {_string(track)}, "pid": {pid}, "tid": 0, "ts": '
    for t, value in samples:
        ts = t / 1000.0
        ts = repr(ts) if type(ts) is float and isfinite(ts) else _number(ts)
        kind = type(value)
        value = (repr(value) if kind is float and isfinite(value) or kind is int
                 else _number(value))
        out.append(f'{head}{ts}, "args": {{"value": {value}}}}}')


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
                  ) -> Iterator[List[str]]:
    """Yield the trace's events, in order, as non-empty lists of JSON texts.

    Every list but the last holds at least ``_CHUNK_EVENTS`` events; a
    list is cut only between spans or series, so it overshoots by at most
    one span's or one series' events.
    """
    chunk = _metadata_events()
    for span in spans:
        _span_events(span, chunk)
        if len(chunk) >= _CHUNK_EVENTS:
            yield chunk
            chunk = []
    if collector is not None:
        tenant_pids = {
            tenant: TENANT_PID_BASE + index
            for index, tenant in enumerate(collector.tenants())
        }
        for tenant, pid in tenant_pids.items():
            chunk.append(_metadata_event(pid, 0, "process_name",
                                         f"tenant {tenant}"))
        for series in collector.series():
            pid = tenant_pids.get(series.tenant, TELEMETRY_PID)
            _counter_events(series, pid, chunk)
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
    events are the exported text parsed back, so every value has a plain
    JSON type (an ``IntEnum`` sample reads as an ``int``). The list holds
    every event at once; to write a long trace without that, use
    :func:`export_chrome_trace`, which streams the same text.
    """
    events: List[dict] = []
    for chunk in _event_chunks(_exported_spans(tracer, max_spans), collector):
        events += json.loads(f"[{', '.join(chunk)}]")
    return events


def _write_chunks(handle: IO[str], chunks: Iterator[List[str]]) -> int:
    handle.write('{"traceEvents": [')
    count = 0
    for chunk in chunks:
        body = ", ".join(chunk)
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
