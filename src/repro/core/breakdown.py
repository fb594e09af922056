"""Figure 1 reproduction: per-bucket breakdown of memory-request lifetimes.

Completed memory-fetch lifetimes (from the tracker) are grouped into
equal-width latency buckets; within each bucket, the cycles spent in each
of the eight memory-pipeline stages are summed and expressed as a
percentage of the bucket's total latency — a textual rendering of the
paper's 100 %-stacked Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stages import (NUM_EVENTS, STAGE_ORDER, Event, Stage,
                               classify_rows, timestamp_row)
from repro.core.tracker import LatencyTracker, RequestRecord
from repro.utils.errors import ConfigurationError

#: Number of latency buckets used in the paper's Figure 1.
DEFAULT_NUM_BUCKETS = 48

_ISSUE = Event.ISSUE.column
_COMPLETE = Event.COMPLETE.column


@dataclass
class LatencyBucket:
    """One latency range of the breakdown figure."""

    lower: float
    upper: float
    count: int = 0
    stage_cycles: Dict[Stage, int] = field(
        default_factory=lambda: {stage: 0 for stage in Stage}
    )

    @property
    def label(self) -> str:
        """Latency-range label, e.g. ``"115-153"``."""
        return f"{int(round(self.lower))}-{int(round(self.upper))}"

    @property
    def total_cycles(self) -> int:
        """Total cycles across all stages in this bucket."""
        return sum(self.stage_cycles.values())

    def percentages(self) -> Dict[Stage, float]:
        """Per-stage share of this bucket's total latency (0..100)."""
        total = self.total_cycles
        if total == 0:
            return {stage: 0.0 for stage in Stage}
        return {
            stage: 100.0 * cycles / total
            for stage, cycles in self.stage_cycles.items()
        }


@dataclass
class BreakdownResult:
    """The complete latency breakdown (all buckets) for one workload run."""

    buckets: List[LatencyBucket]
    total_requests: int
    min_latency: int
    max_latency: int

    def non_empty_buckets(self) -> List[LatencyBucket]:
        """Buckets that contain at least one request."""
        return [bucket for bucket in self.buckets if bucket.count]

    def stage_totals(self) -> Dict[Stage, int]:
        """Cycles per stage summed over all requests."""
        totals = {stage: 0 for stage in Stage}
        for bucket in self.buckets:
            for stage, cycles in bucket.stage_cycles.items():
                totals[stage] += cycles
        return totals

    def stage_fractions(self) -> Dict[Stage, float]:
        """Fraction of all lifetime cycles spent in each stage (0..1)."""
        totals = self.stage_totals()
        grand_total = sum(totals.values())
        if grand_total == 0:
            return {stage: 0.0 for stage in Stage}
        return {stage: cycles / grand_total for stage, cycles in totals.items()}

    def queueing_and_arbitration_fraction(
        self, latency_threshold: Optional[float] = None
    ) -> float:
        """Share of lifetime cycles spent in the two stages the paper singles out.

        The paper identifies the L1 miss queue ("L1toICNT") and DRAM access
        scheduling ("DRAM(QtoSch)") as the two key contributors for
        long-latency requests.  ``latency_threshold`` restricts the
        computation to buckets whose lower bound is at least that latency
        (defaults to the median of the observed range).
        """
        if latency_threshold is None:
            latency_threshold = (self.min_latency + self.max_latency) / 2
        selected = 0
        total = 0
        for bucket in self.buckets:
            if bucket.lower < latency_threshold:
                continue
            total += bucket.total_cycles
            selected += bucket.stage_cycles[Stage.L1_TO_ICNT]
            selected += bucket.stage_cycles[Stage.DRAM_Q_TO_SCH]
        return selected / total if total else 0.0

    def format_table(self, include_empty: bool = False) -> str:
        """Render the breakdown as a text table (one row per bucket)."""
        headers = ["Latency", "Requests"] + [stage.value for stage in STAGE_ORDER]
        rows = []
        for bucket in self.buckets:
            if not include_empty and bucket.count == 0:
                continue
            percentages = bucket.percentages()
            rows.append(
                [bucket.label, str(bucket.count)]
                + [f"{percentages[stage]:5.1f}" for stage in STAGE_ORDER]
            )
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
        ]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append("  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                                    for i, cell in enumerate(row)))
        return "\n".join(lines)


def _bucket_edges(min_latency: int, max_latency: int,
                  num_buckets: int) -> List[Tuple[float, float]]:
    if num_buckets < 1:
        raise ConfigurationError("num_buckets must be >= 1")
    span = max(max_latency - min_latency, 1)
    width = span / num_buckets
    return [
        (min_latency + index * width, min_latency + (index + 1) * width)
        for index in range(num_buckets)
    ]


def compute_breakdown(
    records: Sequence[RequestRecord],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    spaces: Iterable[str] = ("global", "local"),
    clip_percentile: float = 99.5,
) -> BreakdownResult:
    """Compute the Figure 1 breakdown from completed request records.

    ``clip_percentile`` bounds the bucket range: the handful of requests
    beyond that latency percentile are folded into the last bucket so that
    rare stragglers do not stretch the axis and flatten the histogram.
    The records' timestamps are classified as rows, exactly as
    :func:`breakdown_from_tracker` classifies a tracker's columns.
    """
    allowed = set(spaces)
    rows = [timestamp_row(record.timestamps) for record in records
            if not record.is_write and record.space in allowed]
    return breakdown_from_rows(
        np.array(rows, dtype=np.int64).reshape(-1, NUM_EVENTS),
        num_buckets=num_buckets, clip_percentile=clip_percentile)


def breakdown_from_rows(
    rows: np.ndarray,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    clip_percentile: float = 99.5,
) -> BreakdownResult:
    """The Figure 1 breakdown of read-request timestamp rows (an
    ``(n, NUM_EVENTS)`` int64 array, see :func:`classify_rows`).

    Every row is classified in one NumPy pass.  Bucket indices use the
    same float arithmetic as a per-request ``int((latency - min) / span
    * num_buckets)``, and stage sums stay integers, so the result does
    not depend on how the rows were collected.
    """
    if not len(rows):
        return BreakdownResult(buckets=[], total_requests=0,
                               min_latency=0, max_latency=0)
    if not 0 < clip_percentile <= 100:
        raise ConfigurationError("clip_percentile must be in (0, 100]")
    stage_cycles = classify_rows(rows)
    latency = rows[:, _COMPLETE] - rows[:, _ISSUE]
    ordered = np.sort(latency)
    min_latency = int(ordered[0])
    clip_index = min(
        len(ordered) - 1,
        int(round(clip_percentile / 100.0 * (len(ordered) - 1))),
    )
    max_latency = max(int(ordered[clip_index]), min_latency + 1)
    edges = _bucket_edges(min_latency, max_latency, num_buckets)
    span = max(max_latency - min_latency, 1)
    index = ((latency - min_latency).astype(np.float64) / span
             * num_buckets).astype(np.int64)
    np.minimum(index, num_buckets - 1, out=index)
    counts = np.bincount(index, minlength=num_buckets).tolist()
    sums = np.zeros((num_buckets, len(STAGE_ORDER)), dtype=np.int64)
    np.add.at(sums, index, stage_cycles)
    buckets = []
    for (lower, upper), count, cycles in zip(edges, counts, sums.tolist()):
        buckets.append(LatencyBucket(
            lower=lower, upper=upper, count=count,
            stage_cycles=dict(zip(STAGE_ORDER, cycles))))
    return BreakdownResult(
        buckets=buckets,
        total_requests=len(rows),
        min_latency=min_latency,
        max_latency=max_latency,
    )


def breakdown_from_tracker(
    tracker: LatencyTracker,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    spaces: Iterable[str] = ("global", "local"),
    clip_percentile: float = 99.5,
) -> BreakdownResult:
    """The breakdown straight from a tracker's timestamp columns."""
    return breakdown_from_rows(tracker.read_rows(spaces),
                               num_buckets=num_buckets,
                               clip_percentile=clip_percentile)
