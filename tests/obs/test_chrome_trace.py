"""Chrome trace-event / Perfetto export: event schema, track layout, and
the streamed text against a dict-built reference."""

import enum
import io
import json
import math

import pytest

from repro.harness import EchoRig, MultiTenantEchoRig
from repro.obs import (
    SpanTracer,
    TimelineCollector,
    chrome_trace,
    chrome_trace_events,
    export_chrome_trace,
    utilization_summary,
)
from repro.obs.breakdown import STAGES, _span_segments
from repro.obs.chrome_trace import (
    PIPELINE_PID,
    TELEMETRY_PID,
    TENANT_PID_BASE,
    TRACKS,
)
from repro.obs.timeline import BUSY_SUFFIX, _summary_key
from repro.sim import Simulator


def make_tracer():
    tracer = SpanTracer()
    tracer.record(1, "req_issue", 0)
    tracer.record(1, "req_sw_tx", 40)
    tracer.record(1, "resp_complete", 2000)  # gap -> merged "other" slice
    tracer.record(2, "req_issue", 500)
    tracer.record(2, "req_sw_tx", 560)  # incomplete span still renders
    return tracer


def make_collector():
    collector = TimelineCollector(Simulator())
    busy = collector.add_probe("nic", "pipeline_busy_ns", lambda: 0,
                               mode="counter")
    depth = collector.add_probe("nic", "rx_depth", lambda: 0)
    for t, v in ((0, 0), (1000, 400), (2000, 1400)):
        busy.append(t, v)
        depth.append(t, v // 100)
    return collector


class Level(enum.IntEnum):
    HIGH = 3


class Ratio(float):
    def __repr__(self):
        return f"Ratio({float(self)})"


def make_edge_sources():
    """A non-canonical stage, fractional timestamps, sample values of every
    kind the encoder treats apart, and names it must escape."""
    tracer = SpanTracer()
    tracer.record(2**40, "req_issue", 1500.5)
    tracer.record(2**40, "req_nic_fetched", 1733.25)  # "req_issue -> ..."
    tracer.record(2**40, "resp_complete", 9000)
    collector = TimelineCollector(Simulator())
    gauge = collector.add_probe("n\u00efc", 'rx "d\u00e9pth"\\', lambda: 0)
    for t, value in enumerate((3, True, False, 0.1, 1e-07, 1e16, -0.0,
                               2**70, math.nan, math.inf, -math.inf,
                               Level.HIGH, Ratio(0.25))):
        gauge.append(t * 1000, value)
    busy = collector.add_probe("\u7f51\u5361", "pipeline_busy_ns", lambda: 0,
                               mode="counter", tenant="t\u00fc")
    for t, value in ((0, 0), (1000, 250), (2000, math.inf), (3000, math.inf)):
        busy.append(t, value)  # rates 0.25, inf, nan
    return {"tracer": tracer, "collector": collector}


def assert_same_text(actual, expected):
    # A plain ``==`` assert makes pytest diff megabyte strings on failure.
    if actual != expected:
        at = next((i for i, (a, b) in enumerate(zip(actual, expected))
                   if a != b), min(len(actual), len(expected)))
        pytest.fail(f"texts differ at offset {at}: {actual[at:at + 40]!r} "
                    f"vs {expected[at:at + 40]!r}")


@pytest.fixture(scope="module")
def echo_rig():
    rig = EchoRig(batch_size=4, trace=True, telemetry=True)
    rig.closed_loop(nreq=400, warmup_ns=0)
    return rig


@pytest.fixture(scope="module")
def tenant_rig():
    rig = MultiTenantEchoRig(telemetry=True)
    rig.open_loop({"t0": 4.0, "t1": 0.5, "t2": 0.5}, nreq_total=600)
    return rig


def _validate_event_schema(event):
    assert event["ph"] in ("M", "X", "C", "s", "t", "f")
    assert isinstance(event["pid"], int)
    assert isinstance(event["tid"], int)
    assert isinstance(event["name"], str)
    if event["ph"] in ("X", "C", "s", "t", "f"):
        assert isinstance(event["ts"], float)
    if event["ph"] == "X":
        assert isinstance(event["dur"], float)
        assert event["dur"] >= 0
        assert "rpc_id" in event["args"]
    if event["ph"] == "C":
        assert isinstance(event["args"]["value"], (int, float))
    if event["ph"] in ("s", "t", "f"):
        assert isinstance(event["id"], int)
    if event["ph"] == "f":
        assert event["bp"] == "e"


def test_events_validate_and_cover_all_kinds():
    events = chrome_trace_events(make_tracer(), make_collector())
    kinds = {e["ph"] for e in events}
    assert kinds == {"M", "X", "C", "s", "f"}
    for event in events:
        _validate_event_schema(event)


def test_metadata_names_processes_and_tracks():
    events = chrome_trace_events(make_tracer())
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert names == set(TRACKS)
    processes = {e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
    assert processes == {"RPC pipeline", "telemetry"}


def test_slice_events_land_on_pipeline_tracks_in_us():
    events = chrome_trace_events(make_tracer())
    slices = [e for e in events if e["ph"] == "X"]
    assert slices, "expected at least one slice"
    first = next(e for e in slices if e["args"]["rpc_id"] == 1)
    assert first["pid"] == PIPELINE_PID
    assert first["name"] == "client tx (CPU)"
    assert first["ts"] == 0.0
    assert first["dur"] == 0.04  # 40 ns -> 0.04 us
    # The non-adjacent req_sw_tx -> resp_complete gap lands on "other".
    other = next(e for e in slices if e["name"] == "req_sw_tx -> resp_complete")
    assert TRACKS[other["tid"]] == "other"


def test_counter_tracks_rate_and_gauge():
    events = chrome_trace_events(collector=make_collector())
    counters = [e for e in events if e["ph"] == "C"]
    assert all(e["pid"] == TELEMETRY_PID for e in counters)
    by_name = {}
    for e in counters:
        by_name.setdefault(e["name"], []).append(e)
    # busy_ns counter renamed to a utilization track, exported as rate.
    util = by_name["nic.pipeline utilization"]
    assert [e["args"]["value"] for e in util] == [0.4, 1.0]
    # gauge exported raw, including the baseline sample.
    gauge = by_name["nic.rx_depth"]
    assert [e["args"]["value"] for e in gauge] == [0, 4, 14]


def test_utilization_tracks_are_named_like_utilization_summary(echo_rig):
    # A probe named exactly "busy_ns" (every CPU core) used to export as
    # "cpu.core0. utilization".
    tracks = {e["name"] for e in chrome_trace_events(
        collector=echo_rig.timeline) if e["name"].endswith(" utilization")}
    keys = utilization_summary(echo_rig.timeline)
    assert "cpu.core0" in keys
    assert tracks == {f"{key} utilization" for key in keys}


def test_flow_events_link_slices_across_tracks():
    events = chrome_trace_events(make_tracer())
    flows = [e for e in events if e["ph"] in ("s", "t", "f")]
    # Span 1 hops client CPU -> other (2 tracks): one "s"/"f" pair.
    # Span 2 has a single slice: no arrow to draw, no flow events.
    assert [e["ph"] for e in flows] == ["s", "f"]
    assert all(e["id"] == 1 for e in flows)
    assert all(e["name"] == "rpc flow" for e in flows)
    start, finish = flows
    assert TRACKS[start["tid"]] == "client CPU"
    assert start["ts"] == 0.0
    assert TRACKS[finish["tid"]] == "other"
    assert finish["ts"] == 0.04
    assert finish["bp"] == "e"  # bind to enclosing slice


def test_flow_chain_walks_full_pipeline():
    from repro.obs.trace import CANONICAL_POINTS

    tracer = SpanTracer()
    for i, point in enumerate(CANONICAL_POINTS):
        tracer.record(7, point, i * 100)
    flows = [e for e in chrome_trace_events(tracer)
             if e["ph"] in ("s", "t", "f")]
    # client CPU -> client NIC -> wire -> server NIC -> server CPU ->
    # server NIC -> wire -> client NIC -> client CPU: 9 hops.
    assert [e["ph"] for e in flows] == ["s"] + ["t"] * 7 + ["f"]
    walked = [TRACKS[e["tid"]] for e in flows]
    assert walked == [
        "client CPU", "NIC (client)", "wire", "NIC (server)", "server CPU",
        "NIC (server)", "wire", "NIC (client)", "client CPU",
    ]
    # Each flow point binds inside its slice: timestamps strictly climb.
    timestamps = [e["ts"] for e in flows]
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == len(timestamps)


def test_max_spans_keeps_most_recent():
    events = chrome_trace_events(make_tracer(), max_spans=1)
    rpc_ids = {e["args"]["rpc_id"] for e in events if e["ph"] == "X"}
    assert rpc_ids == {2}


def test_max_spans_below_one_is_rejected(tmp_path):
    # Same bound as SpanTracer(max_spans=N); spans[-0:] would export all.
    with pytest.raises(ValueError, match="max_spans"):
        chrome_trace_events(make_tracer(), max_spans=0)
    path = tmp_path / "trace.json"
    with pytest.raises(ValueError, match="max_spans"):
        export_chrome_trace(str(path), make_tracer(), max_spans=0)
    assert not path.exists()


def test_export_to_stream_and_path(tmp_path):
    buffer = io.StringIO()
    count = export_chrome_trace(buffer, make_tracer(), make_collector())
    document = json.loads(buffer.getvalue())
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    assert len(document["traceEvents"]) == count
    path = tmp_path / "trace.json"
    assert export_chrome_trace(str(path), make_tracer(),
                               make_collector()) == count
    assert_same_text(path.read_text(), buffer.getvalue())


# -- the streamed writer -------------------------------------------------------


class CountingSink(io.StringIO):
    """Text stream that counts ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# -- the dict reference --------------------------------------------------------
# The export formats each event straight to JSON text. These functions make
# the same events as dicts; ``json.dumps`` of their list is the document
# the exported bytes must equal.

_STAGE_LABELS = {(a, b): label for a, b, label in STAGES}
_TRACK_TID = {name: i for i, name in enumerate(TRACKS)}


def reference_span_events(span):
    """One span's slice events followed by its flow chain."""
    events = []
    tracks = []
    for a, b, duration in _span_segments(span):
        label = _STAGE_LABELS.get((a, b), f"{a} -> {b}")
        track = chrome_trace._STAGE_TRACK.get(label, "other")
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
    hops = []
    for track, t_ns in tracks:
        if not hops or hops[-1][0] != track:
            hops.append((track, t_ns))
    if len(hops) < 2:
        return events
    for index, (track, t_ns) in enumerate(hops):
        event = {
            "ph": "s" if index == 0 else
                  ("f" if index == len(hops) - 1 else "t"),
            "name": "rpc flow",
            "cat": "rpc",
            "id": span.rpc_id,
            "pid": PIPELINE_PID,
            "tid": _TRACK_TID[track],
            "ts": t_ns / 1000.0,
        }
        if event["ph"] == "f":
            event["bp"] = "e"
        events.append(event)
    return events


def reference_counter_events(series, pid):
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


def reference_events(tracer=None, collector=None):
    events = [
        {"ph": "M", "pid": PIPELINE_PID, "tid": 0, "name": "process_name",
         "args": {"name": "RPC pipeline"}},
        {"ph": "M", "pid": TELEMETRY_PID, "tid": 0, "name": "process_name",
         "args": {"name": "telemetry"}},
    ]
    for track, tid in _TRACK_TID.items():
        events.append({"ph": "M", "pid": PIPELINE_PID, "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
    for span in tracer.spans() if tracer is not None else ():
        events += reference_span_events(span)
    if collector is not None:
        tenant_pids = {
            tenant: TENANT_PID_BASE + index
            for index, tenant in enumerate(collector.tenants())
        }
        for tenant, pid in tenant_pids.items():
            events.append({"ph": "M", "pid": pid, "tid": 0,
                           "name": "process_name",
                           "args": {"name": f"tenant {tenant}"}})
        for series in collector.series():
            events += reference_counter_events(
                series, tenant_pids.get(series.tenant, TELEMETRY_PID))
    return events


def one_shot_document(**sources):
    return json.dumps({"traceEvents": reference_events(**sources),
                       "displayTimeUnit": "ns"})


@pytest.fixture(params=["metadata", "synthetic", "echo_rig", "tenant_rig",
                        "edge_values"])
def sources(request):
    if request.param == "metadata":
        return {}
    if request.param == "synthetic":
        return {"tracer": make_tracer(), "collector": make_collector()}
    if request.param == "echo_rig":
        rig = request.getfixturevalue("echo_rig")
        return {"tracer": rig.tracer, "collector": rig.timeline}
    if request.param == "edge_values":
        return make_edge_sources()
    return {"collector": request.getfixturevalue("tenant_rig").timeline}


@pytest.mark.parametrize("chunk_events", [None, 7])
def test_export_bytes_equal_one_shot_dumps(sources, chunk_events,
                                           monkeypatch):
    expected = one_shot_document(**sources)
    if chunk_events is not None:
        monkeypatch.setattr(chrome_trace, "_CHUNK_EVENTS", chunk_events)
    buffer = io.StringIO()
    count = export_chrome_trace(buffer, **sources)
    assert_same_text(buffer.getvalue(), expected)
    assert count == len(json.loads(expected)["traceEvents"])


def test_event_list_parses_the_exported_text(sources):
    # Compared as text: NaN samples never compare equal as values.
    assert_same_text(json.dumps(chrome_trace_events(**sources)),
                     json.dumps(reference_events(**sources)))


@pytest.mark.parametrize("events", [15, 16, 17, 31, 32, 33])
def test_chunk_edges_keep_bytes_and_write_once_per_chunk(events,
                                                         monkeypatch):
    chunk_events = 16
    # A span with one slice exports one event and no flow chain, so the
    # span count sets the event count exactly.
    tracer = SpanTracer()
    for rpc_id in range(events - len(chrome_trace_events())):
        tracer.record(rpc_id, "req_issue", rpc_id * 100)
        tracer.record(rpc_id, "req_sw_tx", rpc_id * 100 + 40)
    expected = one_shot_document(tracer=tracer)
    monkeypatch.setattr(chrome_trace, "_CHUNK_EVENTS", chunk_events)
    sink = CountingSink()
    assert export_chrome_trace(sink, tracer) == events
    assert_same_text(sink.getvalue(), expected)
    # The prefix, one write per chunk, the suffix.
    assert sink.writes == math.ceil(events / chunk_events) + 2


def test_export_writes_chunks_not_tokens(echo_rig):
    sink = CountingSink()
    events = export_chrome_trace(sink, echo_rig.tracer, echo_rig.timeline)
    assert events > chrome_trace._CHUNK_EVENTS
    assert sink.writes <= math.ceil(events / chrome_trace._CHUNK_EVENTS) + 2
