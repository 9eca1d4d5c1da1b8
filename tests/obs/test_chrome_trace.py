"""Chrome trace-event / Perfetto export: event schema, track layout and
the streamed writer."""

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
from repro.obs.chrome_trace import PIPELINE_PID, TELEMETRY_PID, TRACKS
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


def one_shot_document(**sources):
    return json.dumps({"traceEvents": chrome_trace_events(**sources),
                       "displayTimeUnit": "ns"})


@pytest.fixture(params=["metadata", "synthetic", "echo_rig", "tenant_rig"])
def sources(request):
    if request.param == "metadata":
        return {}
    if request.param == "synthetic":
        return {"tracer": make_tracer(), "collector": make_collector()}
    if request.param == "echo_rig":
        rig = request.getfixturevalue("echo_rig")
        return {"tracer": rig.tracer, "collector": rig.timeline}
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
