"""Sweep executor tests: caching, fan-out, and the bit-exactness contract.

The headline guarantees (ISSUE acceptance criteria): a sweep run with
``jobs=4`` and a sweep served from the cache both return results
bit-identical to a serial cold run.
"""

import dataclasses
import json
import os

import pytest

from repro.harness.runner import BenchResult
from repro.harness.sweep import (
    SweepPoint,
    cache_info,
    calibration_fingerprint,
    clear_cache,
    decode_result,
    encode_result,
    execute_point,
    run_sweep,
)

#: Cheap deterministic point function (resolved by dotted path, also from
#: worker processes). Pure: output depends only on the parameters.
def synth_point(scale, shift=0.0):
    return {
        "value": scale * 0.1 + shift,
        "series": [scale * f for f in (0.25, 0.5, 0.75)],
        "label": f"s{scale}",
    }


SYNTH = "tests.harness.test_sweep:synth_point"
CLOSED_LOOP = "repro.harness.runner:run_closed_loop"


def synth_points(n=3):
    return [SweepPoint(SYNTH, {"scale": i + 1}) for i in range(n)]


class TestSweepPoint:
    def test_fn_path_must_have_colon(self):
        with pytest.raises(ValueError, match="package.module:function"):
            SweepPoint("repro.harness.runner.run_closed_loop")

    def test_params_must_be_jsonable(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            SweepPoint(SYNTH, {"bad": object()})

    def test_resolve(self):
        assert SweepPoint(SYNTH, {}).resolve() is synth_point

    def test_resolve_missing_attribute(self):
        with pytest.raises(AttributeError):
            SweepPoint("repro.harness.sweep:not_a_function").resolve()

    def test_cache_key_is_stable_and_discriminates(self):
        fp = calibration_fingerprint()
        a1 = SweepPoint(SYNTH, {"scale": 1}).cache_key(fp)
        a2 = SweepPoint(SYNTH, {"scale": 1}).cache_key(fp)
        b = SweepPoint(SYNTH, {"scale": 2}).cache_key(fp)
        c = SweepPoint(CLOSED_LOOP, {"scale": 1}).cache_key(fp)
        assert a1 == a2
        assert len({a1, b, c}) == 3

    def test_cache_key_covers_calibration(self):
        point = SweepPoint(SYNTH, {"scale": 1})
        assert point.cache_key("aaaa") != point.cache_key("bbbb")

    def test_fingerprint_covers_baseline_rows(self, monkeypatch):
        # A cached baseline point must not survive an edit of its row.
        from repro.stacks import registry

        before = calibration_fingerprint()
        row = dataclasses.replace(registry.BASELINES["linux-tcp"],
                                  oneway_ns=30_000)
        monkeypatch.setitem(registry.BASELINES, "linux-tcp", row)
        assert calibration_fingerprint() != before


class TestResultCodec:
    def test_bench_result_roundtrip(self):
        result = BenchResult(throughput_mrps=1.5, p50_us=2.0, p90_us=3.0,
                             p99_us=4.0, mean_us=2.5, count=100, drops=2)
        decoded = decode_result(json.loads(json.dumps(
            encode_result(result))))
        assert isinstance(decoded, BenchResult)
        assert decoded == result

    def test_nested_containers_roundtrip(self):
        value = {"rows": [{"a": 1.25, "b": None}, {"a": True}],
                 "pair": (1, 2)}
        decoded = decode_result(json.loads(json.dumps(
            encode_result(value))))
        assert decoded == {"rows": [{"a": 1.25, "b": None}, {"a": True}],
                           "pair": [1, 2]}  # tuples come back as lists

    def test_generic_dataclass_flattens_to_dict(self):
        @dataclasses.dataclass
        class Row:
            x: int
            y: float

        assert encode_result(Row(1, 2.5)) == {"x": 1, "y": 2.5}

    def test_rejects_non_jsonable_results(self):
        with pytest.raises(TypeError):
            encode_result(object())

    def test_rejects_reserved_kind_key(self):
        with pytest.raises(ValueError, match="__kind__"):
            encode_result({"__kind__": "sneaky"})


class TestExecutorAndCache:
    def test_results_in_input_order(self, tmp_path):
        results = run_sweep(synth_points(4), cache_dir=str(tmp_path))
        assert [r["label"] for r in results] == ["s1", "s2", "s3", "s4"]

    def test_two_serial_runs_identical(self, tmp_path):
        points = synth_points()
        first = run_sweep(points, cache=False, cache_dir=str(tmp_path))
        second = run_sweep(points, cache=False, cache_dir=str(tmp_path))
        assert first == second

    def test_cold_vs_cached_identical(self, tmp_path):
        points = synth_points()
        cold_stats, warm_stats = {}, {}
        cold = run_sweep(points, cache_dir=str(tmp_path), stats=cold_stats)
        warm = run_sweep(points, cache_dir=str(tmp_path), stats=warm_stats)
        assert cold == warm
        assert cold_stats == {"hits": 0, "misses": len(points)}
        assert warm_stats == {"hits": len(points), "misses": 0}

    def test_serial_vs_parallel_identical(self, tmp_path):
        points = synth_points(5)
        serial = run_sweep(points, jobs=1, cache=False,
                           cache_dir=str(tmp_path))
        parallel = run_sweep(points, jobs=4, cache=False,
                             cache_dir=str(tmp_path))
        assert serial == parallel

    def test_cache_disabled_writes_nothing(self, tmp_path):
        run_sweep(synth_points(), cache=False, cache_dir=str(tmp_path))
        assert cache_info(str(tmp_path))["entries"] == 0

    def test_partial_cache_mixes_hits_and_misses(self, tmp_path):
        points = synth_points(4)
        run_sweep(points[:2], cache_dir=str(tmp_path))
        stats = {}
        results = run_sweep(points, cache_dir=str(tmp_path), stats=stats)
        assert stats == {"hits": 2, "misses": 2}
        assert [r["label"] for r in results] == ["s1", "s2", "s3", "s4"]

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        points = synth_points(1)
        run_sweep(points, cache_dir=str(tmp_path))
        [entry] = os.listdir(tmp_path)
        # A torn/corrupt entry must not poison the sweep; json.loads on a
        # cached payload happens in run_sweep, so corrupt it fully.
        os.unlink(tmp_path / entry)
        stats = {}
        results = run_sweep(points, cache_dir=str(tmp_path), stats=stats)
        assert stats == {"hits": 0, "misses": 1}
        assert results[0]["label"] == "s1"

    def test_clear_cache_and_info(self, tmp_path):
        run_sweep(synth_points(3), cache_dir=str(tmp_path))
        info = cache_info(str(tmp_path))
        assert info["entries"] == 3
        assert info["bytes"] > 0
        assert clear_cache(str(tmp_path)) == 3
        assert cache_info(str(tmp_path))["entries"] == 0

    def test_jobs_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(synth_points(1), jobs=0, cache_dir=str(tmp_path))

    def test_execute_point_payload_is_canonical(self):
        payload = execute_point(SYNTH, json.dumps({"scale": 2}))
        assert payload == json.dumps(json.loads(payload), sort_keys=True,
                                     separators=(",", ":"))


class TestSimulationBitExactness:
    """The acceptance-criteria checks, on real simulation results."""

    POINTS = [
        SweepPoint(CLOSED_LOOP, {"batch_size": 1, "nreq": 2000}),
        SweepPoint(CLOSED_LOOP, {"batch_size": 4, "nreq": 2000}),
    ]

    def test_parallel_and_cache_match_serial_cold_run(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_sweep(self.POINTS, jobs=1, cache_dir=str(serial_dir))
        parallel = run_sweep(self.POINTS, jobs=4,
                             cache_dir=str(parallel_dir))
        cached = run_sweep(self.POINTS, jobs=1, cache_dir=str(serial_dir))

        assert all(isinstance(r, BenchResult) for r in serial)
        # Dataclass equality compares every float field bit-for-bit.
        assert serial == parallel
        assert serial == cached
        # And the raw cache payloads are byte-identical across runs.
        serial_entries = sorted(os.listdir(serial_dir))
        assert serial_entries == sorted(os.listdir(parallel_dir))
        for name in serial_entries:
            assert ((serial_dir / name).read_bytes()
                    == (parallel_dir / name).read_bytes())
