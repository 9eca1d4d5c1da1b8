"""Latency/throughput statistics helpers.

Experiments record per-request latencies in nanoseconds and report the same
aggregates the paper does: median, 90th and 99th percentiles, and sustained
throughput in requests per second of simulated time.

Two recording modes (ISSUE 8):

- ``"exact"`` (the default) keeps the raw per-request sample list, so
  percentiles are exact and signature-gated benches stay bit-identical.
- ``"sketch"`` streams every sample into a
  :class:`repro.obs.sketch.QuantileSketch` instead — O(1) memory per
  metric regardless of request count, quantiles within the sketch's
  relative-accuracy bound (1% by default), and shard merging without any
  retained samples. Million-request runs use this mode.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence

#: Valid latency-recording modes, in documentation order.
RECORDING_MODES = ("exact", "sketch")


def _check_mode(mode: str) -> str:
    if mode not in RECORDING_MODES:
        raise ValueError(
            f"mode must be one of {RECORDING_MODES}, got {mode!r}"
        )
    return mode


def canonical_json(value: Any) -> str:
    """Canonical JSON: same bytes for the same data on every path.

    Mirrors the sweep cache's normalization (``sort_keys`` + compact
    separators), so result signatures (echo, mesh, cluster, sharded
    per-host results) compose with the rest of the determinism machinery.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def percentile(samples: Sequence[float], pct: float, *,
               presorted: bool = False) -> float:
    """Nearest-rank-with-interpolation percentile (numpy 'linear' method).

    ``pct`` is in [0, 100]. Raises ValueError on an empty sample set rather
    than returning a misleading 0. Callers that already hold sorted data
    (summaries computing several percentiles over one sample set) pass
    ``presorted=True`` to skip the O(n log n) re-sort.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    data = samples if presorted else sorted(samples)
    if len(data) == 1:
        return float(data[0])
    rank = (pct / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(data[low])
    frac = rank - low
    # a + frac*(b-a) is exact when a == b (a*(1-f)+b*f is not).
    return data[low] + frac * (data[high] - data[low])


@dataclass
class SummaryStats:
    """Aggregate view over a set of latency samples (nanoseconds)."""

    count: int
    mean_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    min_ns: float
    max_ns: float

    # Retained sorted samples when built with ``keep_samples=True``; a plain
    # class attribute (NOT a dataclass field) so ``asdict``/``repr``/``==``
    # and every serialized signature that embeds a SummaryStats stay exactly
    # as before. Required by the exact path of :meth:`merge`.
    samples = None  # type: Optional[tuple]
    # Backing quantile sketch when built with :meth:`from_sketch`; same
    # non-field treatment as ``samples``. Lets :meth:`merge` combine
    # per-shard summaries without any retained samples.
    sketch = None  # type: Optional[object]

    @classmethod
    def from_samples(cls, samples: Sequence[float], *,
                     keep_samples: bool = False) -> "SummaryStats":
        if not samples:
            raise ValueError("no samples to summarize")
        data = sorted(samples)
        stats = cls(
            count=len(data),
            mean_ns=sum(data) / len(data),
            p50_ns=percentile(data, 50, presorted=True),
            p90_ns=percentile(data, 90, presorted=True),
            p99_ns=percentile(data, 99, presorted=True),
            min_ns=float(data[0]),
            max_ns=float(data[-1]),
        )
        if keep_samples:
            stats.samples = tuple(data)
        return stats

    @classmethod
    def from_sketch(cls, sketch) -> "SummaryStats":
        """Summary view over a :class:`repro.obs.sketch.QuantileSketch`.

        Count, mean, min, and max are exact (the sketch tracks them
        outside the buckets); the percentiles carry the sketch's
        relative-accuracy bound. The summary keeps a reference to the
        sketch, so :meth:`merge` can combine sketch-backed parts without
        any retained samples.
        """
        if sketch.count == 0:
            raise ValueError("no samples to summarize")
        stats = cls(
            count=sketch.count,
            mean_ns=sketch.mean,
            p50_ns=sketch.quantile(50),
            p90_ns=sketch.quantile(90),
            p99_ns=sketch.quantile(99),
            min_ns=float(sketch.min),
            max_ns=float(sketch.max),
        )
        stats.sketch = sketch
        return stats

    @classmethod
    def merge(cls, parts: Iterable["SummaryStats"]) -> "SummaryStats":
        """Combine per-shard summaries into one whole.

        Two paths, chosen by how the parts were built:

        - **Exact** — every part was built with ``keep_samples=True``: the
          merge k-way-merges the retained sorted sample runs and
          recomputes. The result is bit-identical to
          ``from_samples(concatenation_of_all_parts)`` — same sorted
          order, same left-to-right float summation — which is what lets
          the sharded harness report one summary that exactly matches a
          serial run's. The merged summary retains its samples, so merges
          compose.
        - **Sketch** — every part was built with :meth:`from_sketch`: the
          per-shard sketches merge losslessly (bucket counts add), so no
          samples need to have been retained anywhere. The merged summary
          keeps the merged sketch, so these merges compose too.

        Mixing the two kinds in one merge is an error — there is no way
        to combine a sketch with raw samples without silently downgrading
        the exact part's guarantee.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("no summaries to merge")
        sketch_parts = sum(1 for part in parts if part.sketch is not None)
        if sketch_parts:
            if sketch_parts != len(parts):
                raise ValueError(
                    "cannot merge sketch-backed and sample-backed "
                    "summaries together"
                )
            from repro.obs.sketch import QuantileSketch

            return cls.from_sketch(
                QuantileSketch.merged(part.sketch for part in parts)
            )
        for part in parts:
            if part.samples is None:
                raise ValueError(
                    "merge requires summaries built with keep_samples=True "
                    "or from_sketch"
                )
        data = list(heapq.merge(*(part.samples for part in parts)))
        stats = cls(
            count=len(data),
            mean_ns=sum(data) / len(data),
            p50_ns=percentile(data, 50, presorted=True),
            p90_ns=percentile(data, 90, presorted=True),
            p99_ns=percentile(data, 99, presorted=True),
            min_ns=float(data[0]),
            max_ns=float(data[-1]),
        )
        stats.samples = tuple(data)
        return stats

    @property
    def p50_us(self) -> float:
        return self.p50_ns / 1000.0

    @property
    def p90_us(self) -> float:
        return self.p90_ns / 1000.0

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1000.0


class LatencyRecorder:
    """Accumulates request latencies and start/finish times.

    ``warmup_ns`` lets experiments discard samples whose *finish* time falls
    inside the warmup window, so queue-filling transients do not skew tails.

    ``mode="sketch"`` streams latencies into a quantile sketch instead of
    the ``samples`` list: memory per recorder is bounded by the sketch's
    bucket count (O(1) in the request count), at the price of percentiles
    being approximate within ``sketch_accuracy`` relative error. The
    default ``"exact"`` mode is byte-for-byte the historical behaviour.
    """

    def __init__(self, name: str = "", warmup_ns: int = 0,
                 mode: str = "exact",
                 sketch_accuracy: Optional[float] = None):
        if warmup_ns < 0:
            raise ValueError(f"warmup_ns must be >= 0, got {warmup_ns}")
        self.name = name
        self.warmup_ns = warmup_ns
        self.mode = _check_mode(mode)
        self.samples: List[int] = []
        self.sketch = None
        if mode == "sketch":
            from repro.obs.sketch import (
                DEFAULT_RELATIVE_ACCURACY,
                QuantileSketch,
            )

            self.sketch = QuantileSketch(
                sketch_accuracy if sketch_accuracy is not None
                else DEFAULT_RELATIVE_ACCURACY
            )
        elif sketch_accuracy is not None:
            raise ValueError("sketch_accuracy requires mode='sketch'")
        self.first_finish_ns: Optional[int] = None
        self.last_finish_ns: Optional[int] = None
        self.discarded = 0

    def record(self, start_ns: int, finish_ns: int) -> None:
        if finish_ns < start_ns:
            raise ValueError(f"finish {finish_ns} before start {start_ns}")
        if finish_ns < self.warmup_ns:
            self.discarded += 1
            return
        if self.first_finish_ns is None:
            self.first_finish_ns = finish_ns
        self.last_finish_ns = finish_ns
        if self.sketch is not None:
            self.sketch.add(finish_ns - start_ns)
        else:
            self.samples.append(finish_ns - start_ns)

    def extend(self, other: "LatencyRecorder") -> None:
        """Merge another recorder's samples (for per-thread recorders)."""
        if (self.sketch is None) != (other.sketch is None):
            raise ValueError(
                "cannot extend a recorder with one in a different mode"
            )
        if self.sketch is not None:
            self.sketch.merge(other.sketch)
        else:
            self.samples.extend(other.samples)
        self.discarded += other.discarded
        for attr in ("first_finish_ns", "last_finish_ns"):
            theirs = getattr(other, attr)
            if theirs is None:
                continue
            mine = getattr(self, attr)
            if mine is None:
                setattr(self, attr, theirs)
            elif attr == "first_finish_ns":
                setattr(self, attr, min(mine, theirs))
            else:
                setattr(self, attr, max(mine, theirs))

    @property
    def count(self) -> int:
        if self.sketch is not None:
            return self.sketch.count
        return len(self.samples)

    @property
    def tracked_samples(self) -> int:
        """Retained raw samples — the memory-guardrail observable.

        ``0`` in sketch mode no matter how many requests were recorded;
        equal to :attr:`count` in exact mode.
        """
        return len(self.samples)

    def summary(self, *, keep_samples: bool = False) -> SummaryStats:
        if self.discarded and not self.count:
            raise ValueError(
                f"all {self.discarded} completions finished inside the "
                f"warm-up (warmup_ns={self.warmup_ns}): nothing to summarize"
            )
        if self.sketch is not None:
            if keep_samples:
                raise ValueError(
                    "keep_samples is meaningless in sketch mode (merge "
                    "uses the sketch itself)"
                )
            return SummaryStats.from_sketch(self.sketch)
        return SummaryStats.from_samples(self.samples, keep_samples=keep_samples)

    def throughput_rps(self) -> float:
        """Sustained completion rate over the measured window, in req/s."""
        if self.count < 2 or self.first_finish_ns is None:
            raise ValueError("need at least two samples for throughput")
        window_ns = self.last_finish_ns - self.first_finish_ns
        if window_ns <= 0:
            raise ValueError("zero-length measurement window")
        return (self.count - 1) * 1e9 / window_ns

    def throughput_mrps(self) -> float:
        return self.throughput_rps() / 1e6


def merge_recorders(recorders: Iterable[LatencyRecorder], name: str = "") -> LatencyRecorder:
    """Combine several per-thread recorders into one aggregate view.

    The merged recorder adopts the first recorder's mode (and, in sketch
    mode, its accuracy), so sketch-backed recorders merge losslessly just
    like exact ones; mixing modes raises, as in :meth:`LatencyRecorder.extend`.
    """
    recorders = list(recorders)
    if recorders and recorders[0].sketch is not None:
        merged = LatencyRecorder(
            name=name, mode="sketch",
            sketch_accuracy=recorders[0].sketch.relative_accuracy)
    else:
        merged = LatencyRecorder(name=name)
    for recorder in recorders:
        merged.extend(recorder)
    return merged
