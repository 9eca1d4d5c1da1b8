"""Unit tests for statistics helpers."""

import pytest

from repro.sim import LatencyRecorder, SummaryStats, percentile
from repro.sim.stats import merge_recorders


def test_percentile_basics():
    data = list(range(1, 101))
    assert percentile(data, 0) == 1
    assert percentile(data, 100) == 100
    assert percentile(data, 50) == pytest.approx(50.5)


def test_percentile_single_sample():
    assert percentile([7], 99) == 7.0


def test_percentile_interpolates():
    assert percentile([10, 20], 25) == pytest.approx(12.5)


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_out_of_range_raises():
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_summary_stats_fields():
    stats = SummaryStats.from_samples([1000, 2000, 3000, 4000])
    assert stats.count == 4
    assert stats.mean_ns == pytest.approx(2500)
    assert stats.min_ns == 1000
    assert stats.max_ns == 4000
    assert stats.p50_us == pytest.approx(2.5)


def test_summary_stats_empty_raises():
    with pytest.raises(ValueError):
        SummaryStats.from_samples([])


def test_recorder_records_latency():
    recorder = LatencyRecorder()
    recorder.record(100, 300)
    recorder.record(200, 700)
    assert recorder.count == 2
    assert sorted(recorder.samples) == [200, 500]


def test_recorder_warmup_discards():
    recorder = LatencyRecorder(warmup_ns=1000)
    recorder.record(0, 500)  # finishes inside warmup
    recorder.record(900, 1500)
    assert recorder.count == 1
    assert recorder.discarded == 1


def test_recorder_rejects_negative_warmup():
    with pytest.raises(ValueError, match="warmup_ns must be >= 0"):
        LatencyRecorder(warmup_ns=-1)


def test_recorder_rejects_time_travel():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(100, 50)


def test_recorder_throughput():
    recorder = LatencyRecorder()
    # 11 finishes spaced 100 ns apart -> 10 intervals over 1000 ns = 1e7 rps.
    for i in range(11):
        recorder.record(i * 100, i * 100 + 50)
    assert recorder.throughput_rps() == pytest.approx(1e10 / 1000)
    assert recorder.throughput_mrps() == pytest.approx(10.0)


def test_recorder_throughput_needs_samples():
    recorder = LatencyRecorder()
    recorder.record(0, 10)
    with pytest.raises(ValueError):
        recorder.throughput_rps()


def test_merge_recorders():
    a = LatencyRecorder()
    b = LatencyRecorder()
    a.record(0, 100)
    b.record(50, 250)
    merged = merge_recorders([a, b])
    assert merged.count == 2
    assert merged.first_finish_ns == 100
    assert merged.last_finish_ns == 250


# ------------------------------------------------- SummaryStats.merge


def test_merge_equals_whole():
    # The sharded harness contract: merging per-shard summaries must be
    # *exactly* from_samples over the concatenation — same sorted order,
    # same left-to-right float summation — not merely approximately equal.
    parts_samples = [[300, 100, 900], [250, 250], [700, 50, 50, 1100]]
    parts = [SummaryStats.from_samples(s, keep_samples=True)
             for s in parts_samples]
    merged = SummaryStats.merge(parts)
    whole = SummaryStats.from_samples(
        [x for s in parts_samples for x in s], keep_samples=True)
    assert merged == whole
    assert merged.samples == whole.samples


def test_merge_floats_bit_exact():
    # Floats whose sum depends on addition order: sorted-order summation
    # must match from_samples exactly.
    parts_samples = [[0.1, 1e16], [0.2, 0.3, 1e-7]]
    parts = [SummaryStats.from_samples(s, keep_samples=True)
             for s in parts_samples]
    whole = SummaryStats.from_samples(
        [x for s in parts_samples for x in s])
    assert SummaryStats.merge(parts).mean_ns == whole.mean_ns


def test_merge_single_part_is_identity():
    part = SummaryStats.from_samples([10, 20, 30], keep_samples=True)
    assert SummaryStats.merge([part]) == part


def test_merge_composes():
    # The merged summary retains its samples, so merges can be nested.
    a = SummaryStats.from_samples([1, 4], keep_samples=True)
    b = SummaryStats.from_samples([2, 5], keep_samples=True)
    c = SummaryStats.from_samples([3, 6], keep_samples=True)
    nested = SummaryStats.merge([SummaryStats.merge([a, b]), c])
    flat = SummaryStats.from_samples([1, 2, 3, 4, 5, 6])
    assert nested.count == flat.count
    assert nested.p99_ns == flat.p99_ns
    assert nested.samples == (1, 2, 3, 4, 5, 6)


def test_merge_requires_kept_samples():
    with_samples = SummaryStats.from_samples([1, 2], keep_samples=True)
    without = SummaryStats.from_samples([1, 2])
    assert without.samples is None
    with pytest.raises(ValueError, match="keep_samples"):
        SummaryStats.merge([with_samples, without])


def test_merge_empty_raises():
    with pytest.raises(ValueError, match="no summaries"):
        SummaryStats.merge([])


def test_samples_attribute_is_not_a_field():
    # keep_samples must not change equality, repr, or serialized shape —
    # result signatures embed asdict(SummaryStats) and must stay stable.
    from dataclasses import asdict

    kept = SummaryStats.from_samples([1, 2, 3], keep_samples=True)
    plain = SummaryStats.from_samples([1, 2, 3])
    assert kept == plain
    assert "samples" not in asdict(kept)
    assert repr(kept) == repr(plain)


def test_recorder_summary_keep_samples_passthrough():
    recorder = LatencyRecorder()
    recorder.record(0, 100)
    recorder.record(0, 300)
    assert recorder.summary().samples is None
    assert recorder.summary(keep_samples=True).samples == (100, 300)


# ------------------------------------------------- sketch-mode recording


def _sketch_recorder(latencies, **kwargs):
    recorder = LatencyRecorder(mode="sketch", **kwargs)
    for i, latency in enumerate(latencies):
        recorder.record(i * 10, i * 10 + latency)
    return recorder


def test_sketch_mode_keeps_no_samples():
    recorder = _sketch_recorder(range(1, 10_001))
    assert recorder.count == 10_000
    assert recorder.tracked_samples == 0
    assert recorder.samples == []
    # Memory observable: buckets, not samples, bound the footprint.
    assert recorder.sketch.bucket_count < 1200


def test_exact_mode_tracked_samples_equals_count():
    recorder = LatencyRecorder()
    recorder.record(0, 100)
    recorder.record(0, 300)
    assert recorder.tracked_samples == recorder.count == 2


def test_sketch_summary_within_accuracy_of_exact():
    latencies = [100 + 7 * i for i in range(101)]  # integral pct ranks
    sketched = _sketch_recorder(latencies).summary()
    exact = SummaryStats.from_samples(latencies)
    assert sketched.count == exact.count
    assert sketched.mean_ns == pytest.approx(exact.mean_ns)
    assert sketched.min_ns == exact.min_ns
    assert sketched.max_ns == exact.max_ns
    for attr in ("p50_ns", "p90_ns", "p99_ns"):
        assert getattr(sketched, attr) == pytest.approx(
            getattr(exact, attr), rel=0.01)


def test_from_sketch_merge_without_samples():
    # The whole point of sketch mode: SummaryStats.merge works across
    # shards with no retained samples anywhere.
    parts = [_sketch_recorder([100, 200, 300]).summary(),
             _sketch_recorder([150, 250]).summary()]
    assert all(part.samples is None for part in parts)
    merged = SummaryStats.merge(parts)
    assert merged.count == 5
    assert merged.min_ns == 100
    assert merged.max_ns == 300
    assert merged.sketch is not None  # merges compose


def test_merge_rejects_mixed_backings():
    sketched = _sketch_recorder([100, 200]).summary()
    exact = SummaryStats.from_samples([100, 200], keep_samples=True)
    with pytest.raises(ValueError, match="sketch-backed"):
        SummaryStats.merge([sketched, exact])


def test_sketch_recorder_extend_and_mode_mismatch():
    a = _sketch_recorder([100, 200])
    b = _sketch_recorder([300])
    a.extend(b)
    assert a.count == 3
    with pytest.raises(ValueError, match="different mode"):
        a.extend(LatencyRecorder())
    with pytest.raises(ValueError, match="different mode"):
        LatencyRecorder().extend(_sketch_recorder([1]))


def test_merge_recorders_adopts_sketch_mode():
    merged = merge_recorders([_sketch_recorder([100], sketch_accuracy=0.02),
                              _sketch_recorder([200], sketch_accuracy=0.02)])
    assert merged.sketch is not None
    assert merged.sketch.relative_accuracy == 0.02
    assert merged.count == 2
    assert merged.tracked_samples == 0


def test_sketch_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        LatencyRecorder(mode="approximate")
    with pytest.raises(ValueError, match="sketch_accuracy"):
        LatencyRecorder(sketch_accuracy=0.01)  # exact mode
    with pytest.raises(ValueError, match="keep_samples"):
        _sketch_recorder([100]).summary(keep_samples=True)


def test_sketch_mode_warmup_and_throughput_unchanged():
    recorder = LatencyRecorder(warmup_ns=1000, mode="sketch")
    recorder.record(0, 500)  # inside warmup
    for i in range(11):
        recorder.record(1000 + i * 100, 1000 + i * 100 + 50)
    assert recorder.discarded == 1
    assert recorder.count == 11
    assert recorder.throughput_mrps() == pytest.approx(10.0)
