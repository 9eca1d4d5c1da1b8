"""Self-tests of the benchmark: determinism, seeding, layer coverage.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They shrink every workload to a few hundred RPCs (still above each rig's
simulated warm-up, so every run keeps latency samples) and finish in well
under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from layers import LAYERS, layer_of, module_of  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-workload repetition sizes for the tests: small, but past the
#: simulated warm-up.
SMALL = {"echo_closed": 2000, "mesh4": 2400, "cluster_social": 400,
         "echo_traced_lossy": 800}

#: Runs every small workload: traced at seed 1 (digest and layer call
#: counts), untraced at seed 2 (digest). Prints one JSON object.
PROBE = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from layers import LayerProfile
from workloads import WORKLOADS
out = {{}}
for name, rpcs in {small!r}.items():
    workload = WORKLOADS[name]
    options = {{"shards": 1}} if name == "mesh4" else {{}}
    go, finish = workload.prepare(1, rpcs=rpcs, **options)
    profile = LayerProfile({src!r})
    traced = finish(profile.run(go))
    go, finish = workload.prepare(2, rpcs=rpcs)
    other = finish(go())
    out[name] = {{"digest": traced.digest, "calls": profile.calls,
                  "problems": traced.problems + other.problems,
                  "seed2_digest": other.digest}}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probes():
    """The probe run in two interpreters with different hash seeds."""
    code = PROBE.format(bench=BENCH, src=SRC, small=SMALL)
    procs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    results = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    return results


def test_small_runs_pass_their_checks(probes):
    for result in probes:
        for name, data in result.items():
            assert data["problems"] == [], name


def test_digests_and_call_counts_ignore_hash_seed(probes):
    first, second = probes
    for name in WORKLOADS:
        assert first[name]["digest"] == second[name]["digest"], name
        assert first[name]["calls"] == second[name]["calls"], name
        assert sum(first[name]["calls"].values()) > 0, name


def test_seed_changes_every_digest(probes):
    for name, data in probes[0].items():
        assert data["digest"] != data["seed2_digest"], name


def test_every_repro_module_maps_to_a_layer():
    modules = [module_of(os.path.join(directory, filename), SRC)
               for directory, _, files in os.walk(os.path.join(SRC, "repro"))
               for filename in files if filename.endswith(".py")]
    assert len(modules) > 50
    assert [m for m in modules if layer_of(m) is None] == []


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert len(run.PER_LAYER) == 2 * len(LAYERS) + 18


def test_fails_without_the_program(tmp_path):
    """Outside a checkout (no ``src/repro``) the runner exits non-zero
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
