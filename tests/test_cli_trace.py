"""End-to-end test of ``python -m repro trace``."""

import json

from repro.__main__ import main


def test_trace_command_prints_breakdown_and_metrics(capsys, tmp_path):
    jsonl = str(tmp_path / "trace.jsonl")
    rc = main(["trace", "--nreq", "300", "--window", "4",
               "--jsonl", jsonl])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Per-stage latency breakdown" in out
    assert "host->NIC fetch (req)" in out
    assert "stage p50 sum" in out
    assert "Metrics registry" in out
    assert "nic.client" in out

    records = [json.loads(line) for line in open(jsonl)]
    types = {r["type"] for r in records}
    assert types == {"span", "transfer", "metrics"}
    spans = [r for r in records if r["type"] == "span"]
    assert len(spans) == 300
    complete = [s for s in spans
                if "req_issue" in s["events"]
                and "resp_complete" in s["events"]]
    assert len(complete) == 300


def test_trace_command_open_loop(capsys):
    rc = main(["trace", "--nreq", "200", "--open-loop-mrps", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Per-stage latency breakdown" in out


def test_trace_bad_argument_errors_on_stderr(capsys):
    assert main(["trace", "--nreq", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
