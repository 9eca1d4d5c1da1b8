"""Tests for the ``python -m repro`` CLI."""

import os
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.harness import experiments
from repro.harness.experiments import CATALOGUE

RESULTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "benchmarks", "results")


def committed(exp_id):
    """The archived table of catalogue entry ``exp_id``."""
    result = next(e.result for e in CATALOGUE if e.id == exp_id)
    with open(os.path.join(RESULTS, f"{result}.txt")) as handle:
        return handle.read()


def test_registry_covers_every_paper_artifact():
    expected = {"table1", "table3", "table4", "fig3", "fig4", "fig5",
                "fig10", "fig11-load", "fig11-scale", "fig11-bottleneck",
                "fig12", "sec56", "fig14-isolation", "fig15", "sec53",
                "chaos", "mesh", "cluster",
                "ablation-batch-sweep", "ablation-batch-timeout",
                "ablation-connection-cache", "ablation-hw-reassembly",
                "ablation-protocol-unit", "ablation-incast",
                "ablation-load-balancer-mica", "ablation-threading-sweep",
                "extension-mica-multicore", "extension-colocation"}
    assert {experiment.id for experiment in CATALOGUE} == expected


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out
    assert "Table 3" in out


def test_run_cheap_experiments(capsys):
    assert main(["run", "table1", "sec53", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "UPI" in out
    for exp_id in ("table1", "sec53", "fig4"):
        assert committed(exp_id) in out, exp_id


def test_run_failed_check_exits_one_and_names_the_entry(monkeypatch, capsys):
    def never_holds(data):
        yield "a claim that never holds", False

    monkeypatch.setattr(experiments, "CATALOGUE", tuple(
        replace(e, check=never_holds) if e.id == "sec53" else e
        for e in CATALOGUE))
    assert main(["run", "sec53", "table1"]) == 1
    captured = capsys.readouterr()
    assert "check failed: sec53: a claim that never holds" in captured.err
    assert "table1" not in captured.err
    # A failed check does not stop the run: every table is printed.
    assert committed("sec53") in captured.out
    assert committed("table1") in captured.out


@pytest.mark.parametrize("argv", [
    ["run", "table3", "--jobs", "0"],
    ["run", "table3", "--jobs", "-1"],
    ["run", "mesh", "--shards", "0"],
    ["timeline", "--report", "--jobs", "0"],
])
def test_counts_below_one_are_rejected_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}: must be >= 1, got {argv[-1]}" \
        in captured.err
    assert captured.out == ""


def test_run_reports_a_bad_argument_from_an_entry_cleanly(capsys):
    # Four hosts cannot be split over five shards.
    assert main(["run", "mesh", "--shards", "5", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: shards must be in [1, 4], got 5\n"


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_calibration_command(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "upi_oneway_ns" in out
    assert "400" in out


def test_resources_command(capsys):
    assert main(["resources", "--flows", "64",
                 "--connections", "65536"]) == 0
    out = capsys.readouterr().out
    assert "LUTs" in out
    assert "20.0%" in out


def test_resources_with_extensions(capsys):
    assert main(["resources", "--hw-reassembly", "--reliable"]) == 0
    out = capsys.readouterr().out
    assert "instances fitting" in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])
