"""Fold a trace into the paper's Fig 3-style per-stage latency table.

For each span, durations are taken between *consecutive recorded* trace
points in canonical lifecycle order, so the per-span stage durations always
sum exactly to the span's end-to-end latency. When a span carries every
canonical point (a Dagger run with all hooks attached) the stages match
:data:`STAGES` below; coarser stacks (the modeled baselines only record
the client/server software points) simply produce wider stages labelled
``a -> b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.trace import _POINT_INDEX, CANONICAL_POINTS, RpcSpan, SpanTracer
from repro.sim.stats import SummaryStats, percentile

#: Canonical adjacent-point stages and their Fig 3-style labels.
STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("req_issue", "req_sw_tx", "client tx (CPU)"),
    ("req_sw_tx", "req_nic_fetched", "host->NIC fetch (req)"),
    ("req_nic_fetched", "req_wire_tx", "NIC egress pipeline (req)"),
    ("req_wire_tx", "req_nic_rx", "wire (req)"),
    ("req_nic_rx", "req_host_delivered", "NIC ingress + delivery (req)"),
    ("req_host_delivered", "req_dispatch", "host RX ring wait"),
    ("req_dispatch", "handler_start", "dispatch (CPU)"),
    ("handler_start", "handler_done", "handler"),
    ("handler_done", "resp_sw_tx", "server tx (CPU)"),
    ("resp_sw_tx", "resp_nic_fetched", "host->NIC fetch (resp)"),
    ("resp_nic_fetched", "resp_wire_tx", "NIC egress pipeline (resp)"),
    ("resp_wire_tx", "resp_nic_rx", "wire (resp)"),
    ("resp_nic_rx", "resp_host_delivered", "NIC ingress + delivery (resp)"),
    ("resp_host_delivered", "resp_complete", "client rx (CPU + poll)"),
)

_STAGE_LABELS = {(a, b): label for a, b, label in STAGES}


@dataclass
class StageStats:
    """Aggregated duration of one pipeline stage across all spans."""

    label: str
    count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1000.0

    @property
    def p50_us(self) -> float:
        return self.p50_ns / 1000.0


@dataclass
class Breakdown:
    """Per-stage latency table plus the end-to-end reference statistics."""

    stages: List[StageStats]
    e2e: Optional[SummaryStats]
    spans_used: int
    spans_skipped: int = 0

    @property
    def stage_p50_sum_ns(self) -> float:
        return sum(stage.p50_ns for stage in self.stages)

    @property
    def stage_mean_sum_ns(self) -> float:
        return sum(stage.mean_ns for stage in self.stages)

    def rows(self) -> List[Tuple[str, float, float, float, int]]:
        """(label, p50 us, mean us, share of e2e p50, count) per stage."""
        total = self.e2e.p50_ns if self.e2e is not None else 0.0
        return [
            (s.label, s.p50_us, s.mean_us,
             (s.p50_ns / total) if total else 0.0, s.count)
            for s in self.stages
        ]

    def as_dict(self) -> dict:
        """JSON-friendly view (what a sink or BenchResult carries)."""
        return {
            "spans_used": self.spans_used,
            "spans_skipped": self.spans_skipped,
            "e2e_p50_ns": self.e2e.p50_ns if self.e2e else None,
            "stage_p50_sum_ns": self.stage_p50_sum_ns,
            "stages": [
                {"label": s.label, "count": s.count, "mean_ns": s.mean_ns,
                 "p50_ns": s.p50_ns, "p99_ns": s.p99_ns}
                for s in self.stages
            ],
        }


@dataclass
class _StageAccumulator:
    order: int
    label: str
    samples: List[int] = field(default_factory=list)


def _span_segments(span: RpcSpan) -> Iterable[Tuple[str, str, int]]:
    """(from_point, to_point, duration_ns) between consecutive recorded
    canonical points of one span."""
    events = span.events
    points = [(p, events[p]) for p in CANONICAL_POINTS if p in events]
    for (a, ta), (b, tb) in zip(points, points[1:]):
        yield a, b, tb - ta


def breakdown(trace: Union[SpanTracer, Iterable[RpcSpan]],
              warmup_ns: int = 0) -> Breakdown:
    """Aggregate a trace into a per-stage latency breakdown.

    Only *complete* spans (both ``req_issue`` and ``resp_complete``
    recorded) whose completion falls after ``warmup_ns`` contribute, the
    same filtering :class:`repro.sim.stats.LatencyRecorder` applies to its
    samples.
    """
    spans = trace.spans() if isinstance(trace, SpanTracer) else list(trace)
    accumulators: Dict[Tuple[str, str], _StageAccumulator] = {}
    e2e_samples: List[int] = []
    used = skipped = 0
    for span in spans:
        if not span.complete or span.events["resp_complete"] < warmup_ns:
            skipped += 1
            continue
        used += 1
        e2e_samples.append(span.e2e_ns)
        for a, b, duration in _span_segments(span):
            acc = accumulators.get((a, b))
            if acc is None:
                label = _STAGE_LABELS.get((a, b), f"{a} -> {b}")
                acc = _StageAccumulator(_POINT_INDEX[a], label)
                accumulators[(a, b)] = acc
            acc.samples.append(duration)

    stages = []
    for acc in sorted(accumulators.values(), key=lambda a: a.order):
        data = sorted(acc.samples)
        stages.append(StageStats(
            label=acc.label,
            count=len(data),
            mean_ns=sum(data) / len(data),
            p50_ns=percentile(data, 50, presorted=True),
            p99_ns=percentile(data, 99, presorted=True),
        ))
    e2e = SummaryStats.from_samples(e2e_samples) if e2e_samples else None
    return Breakdown(stages=stages, e2e=e2e, spans_used=used,
                     spans_skipped=skipped)
