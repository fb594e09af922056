"""Tests for the Figure 1 breakdown and Figure 2 exposure analyses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.breakdown import breakdown_from_tracker, compute_breakdown
from repro.core.exposure import ExposureBucket, ExposureResult, compute_exposure
from repro.core.stages import EVENT_ORDER, Event, Stage, classify_lifetime
from repro.core.tracker import LatencyTracker, RequestRecord
from repro.utils.errors import ConfigurationError
from repro.workloads import create_workload


def make_record(latency, l1_hit=False, is_write=False, space="global"):
    """Build a synthetic request record with a plausible event sequence."""
    timestamps = {Event.ISSUE: 0}
    if l1_hit:
        timestamps[Event.L1_ACCESS] = min(8, latency)
    else:
        timestamps[Event.L1_ACCESS] = min(8, latency)
        timestamps[Event.ICNT_INJECT] = min(16, latency)
        timestamps[Event.ROP_ARRIVE] = min(40, latency)
        timestamps[Event.L2Q_ARRIVE] = min(80, latency)
        timestamps[Event.DRAM_Q_ARRIVE] = min(100, latency)
        timestamps[Event.DRAM_SCHEDULED] = min(latency // 2 + 100, latency)
        timestamps[Event.DRAM_DATA] = min(latency // 2 + 150, latency)
    timestamps[Event.COMPLETE] = latency
    return RequestRecord(
        request_id=0, address=0x1000, is_write=is_write, space=space,
        sm_id=0, warp_id=0, pc=0, timestamps=timestamps,
    )


class TestBreakdown:
    def test_empty_records(self):
        result = compute_breakdown([])
        assert result.total_requests == 0
        assert result.buckets == []

    def test_bucket_percentages_sum_to_100(self):
        records = [make_record(latency) for latency in (50, 300, 700, 1200)]
        result = compute_breakdown(records, num_buckets=8)
        for bucket in result.non_empty_buckets():
            assert sum(bucket.percentages().values()) == pytest.approx(100.0)

    def test_l1_hits_are_pure_sm_base(self):
        records = [make_record(45, l1_hit=True) for _ in range(10)]
        result = compute_breakdown(records, num_buckets=4)
        fractions = result.stage_fractions()
        assert fractions[Stage.SM_BASE] == pytest.approx(1.0)

    def test_requests_land_in_correct_buckets(self):
        records = [make_record(100), make_record(1000)]
        result = compute_breakdown(records, num_buckets=2)
        assert result.buckets[0].count == 1
        assert result.buckets[-1].count == 1
        assert result.min_latency == 100
        assert result.max_latency == 1000

    def test_writes_and_other_spaces_filtered(self):
        records = [make_record(100), make_record(100, is_write=True),
                   make_record(100, space="shared")]
        result = compute_breakdown(records, num_buckets=2)
        assert result.total_requests == 1

    def test_clipping_folds_outliers_into_last_bucket(self):
        records = [make_record(100) for _ in range(99)] + [make_record(100000)]
        result = compute_breakdown(records, num_buckets=4, clip_percentile=95)
        assert result.max_latency < 100000
        assert sum(bucket.count for bucket in result.buckets) == 100

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_breakdown([make_record(10)], num_buckets=0)
        with pytest.raises(ConfigurationError):
            compute_breakdown([make_record(10)], clip_percentile=0)

    def test_stage_totals_and_queueing_metric(self):
        records = [make_record(1500) for _ in range(5)]
        result = compute_breakdown(records, num_buckets=4)
        totals = result.stage_totals()
        assert totals[Stage.DRAM_Q_TO_SCH] > 0
        fraction = result.queueing_and_arbitration_fraction(latency_threshold=0)
        assert 0 <= fraction <= 1

    def test_format_table_lists_stage_names(self):
        records = [make_record(100), make_record(900)]
        table = compute_breakdown(records, num_buckets=4).format_table()
        assert "SM Base" in table
        assert "DRAM(QtoSch)" in table

    @given(st.lists(st.integers(min_value=10, max_value=3000), min_size=1,
                    max_size=60),
           st.integers(min_value=1, max_value=24))
    @settings(max_examples=40)
    def test_counts_conserved(self, latencies, num_buckets):
        records = [make_record(latency) for latency in latencies]
        result = compute_breakdown(records, num_buckets=num_buckets)
        assert sum(bucket.count for bucket in result.buckets) == len(latencies)
        total_cycles = sum(bucket.total_cycles for bucket in result.buckets)
        assert total_cycles == sum(latencies)


def loop_classify(timestamps):
    """The per-request loop the columnar classifier replaced: gaps
    between consecutive recorded events, by the stage of the earlier
    one; a request without ICNT_INJECT books its post-L1 gap as SM
    Base."""
    gap_stage = {
        Event.ISSUE: Stage.SM_BASE, Event.L1_ACCESS: Stage.L1_TO_ICNT,
        Event.ICNT_INJECT: Stage.ICNT_TO_ROP,
        Event.ROP_ARRIVE: Stage.ROP_TO_L2Q,
        Event.L2Q_ARRIVE: Stage.L2Q_TO_DRAMQ,
        Event.L2_DATA: Stage.FETCH_TO_SM,
        Event.DRAM_Q_ARRIVE: Stage.DRAM_Q_TO_SCH,
        Event.DRAM_SCHEDULED: Stage.DRAM_SCH_TO_A,
        Event.DRAM_DATA: Stage.FETCH_TO_SM,
    }
    present = [(event, timestamps[event]) for event in EVENT_ORDER
               if event in timestamps]
    breakdown = {stage: 0 for stage in Stage}
    for (event, time), (_, next_time) in zip(present, present[1:]):
        stage = gap_stage[event]
        if event is Event.L1_ACCESS and Event.ICNT_INJECT not in timestamps:
            stage = Stage.SM_BASE
        breakdown[stage] += next_time - time
    return breakdown


def loop_buckets(records, num_buckets):
    """Per-bucket (count, stage cycles) of ``records``, bucketed one
    request at a time as the columnar breakdown replaced it."""
    latencies = sorted(record.latency for record in records)
    low = latencies[0]
    clip = min(len(latencies) - 1, int(round(0.995 * (len(latencies) - 1))))
    high = max(latencies[clip], low + 1)
    span = max(high - low, 1)
    buckets = [[0, {stage: 0 for stage in Stage}]
               for _ in range(num_buckets)]
    for record in records:
        index = min(int((record.latency - low) / span * num_buckets),
                    num_buckets - 1)
        buckets[index][0] += 1
        for stage, cycles in loop_classify(record.timestamps).items():
            buckets[index][1][stage] += cycles
    return low, high, buckets


#: Random lifetimes: ISSUE, COMPLETE and any subset of the events between,
#: at non-decreasing cycles.
LIFETIMES = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=400)),
    min_size=len(EVENT_ORDER), max_size=len(EVENT_ORDER))


class TestColumnarMatchesLoop:
    """The one-pass array classification and bucketing give exactly what
    the per-request loop gives."""

    @given(LIFETIMES)
    @settings(max_examples=200)
    def test_classification_matches_the_loop(self, draws):
        timestamps = {}
        time = 0
        for index, (event, (keep, delta)) in enumerate(zip(EVENT_ORDER,
                                                          draws)):
            time += delta
            if keep or index in (0, len(EVENT_ORDER) - 1):
                timestamps[event] = time
        assert classify_lifetime(timestamps) == loop_classify(timestamps)

    def test_simulated_breakdown_matches_the_loop(self, fast_gpu):
        workload = create_workload("bfs", num_nodes=256, avg_degree=6,
                                   block_dim=64, seed=3)
        workload.run(fast_gpu)
        records = fast_gpu.tracker.read_requests()
        result = breakdown_from_tracker(fast_gpu.tracker, num_buckets=24)
        low, high, buckets = loop_buckets(records, 24)
        assert (result.min_latency, result.max_latency) == (low, high)
        assert result.total_requests == len(records) > 0
        assert [(bucket.count, bucket.stage_cycles)
                for bucket in result.buckets] == [tuple(b) for b in buckets]


class TestExposure:
    @staticmethod
    def tracked_loads(loads, busy_cycles=(), sm_id=0):
        tracker = LatencyTracker()
        for cycle in busy_cycles:
            tracker.note_issue_cycle(sm_id, cycle)
        for issue, complete in loads:
            tracker.record_load(sm_id, 0, 0, "global", issue, complete, 1, False)
        return tracker

    def test_empty(self):
        tracker = LatencyTracker()
        result = compute_exposure(tracker)
        assert result.total_loads == 0
        assert result.overall_exposed_fraction == 0.0

    def test_fully_exposed_when_sm_idle(self):
        tracker = self.tracked_loads([(0, 100), (0, 200)])
        result = compute_exposure(tracker, num_buckets=4)
        assert result.overall_exposed_fraction == pytest.approx(1.0)
        assert result.fraction_of_loads_mostly_exposed() == 1.0

    def test_fully_hidden_when_sm_always_busy(self):
        tracker = self.tracked_loads([(0, 100)], busy_cycles=range(0, 100))
        result = compute_exposure(tracker, num_buckets=4)
        assert result.overall_exposed_fraction == pytest.approx(0.0)
        assert result.fraction_of_loads_mostly_exposed() == 0.0

    def test_partial_exposure(self):
        tracker = self.tracked_loads([(0, 100)], busy_cycles=range(0, 25))
        result = compute_exposure(tracker, num_buckets=2)
        assert result.overall_exposed_fraction == pytest.approx(0.75)

    def test_bucket_totals_and_percentages(self):
        tracker = self.tracked_loads([(0, 100), (0, 1000)],
                                     busy_cycles=range(0, 50))
        result = compute_exposure(tracker, num_buckets=2)
        non_empty = result.non_empty_buckets()
        assert len(non_empty) == 2
        for bucket in non_empty:
            assert bucket.exposed_percent + bucket.hidden_percent == pytest.approx(100.0)
        assert result.total_loads == 2

    def test_space_filter(self):
        tracker = LatencyTracker()
        tracker.record_load(0, 0, 0, "shared", 0, 50, 1, True)
        tracker.record_load(0, 0, 0, "global", 0, 50, 1, False)
        result = compute_exposure(tracker)
        assert result.total_loads == 1

    def test_invalid_parameters(self):
        tracker = LatencyTracker()
        with pytest.raises(ConfigurationError):
            compute_exposure(tracker, num_buckets=0)
        with pytest.raises(ConfigurationError):
            compute_exposure(tracker, clip_percentile=200)

    def test_format_table(self):
        tracker = self.tracked_loads([(0, 100), (0, 900)])
        text = compute_exposure(tracker, num_buckets=4).format_table()
        assert "Exposed %" in text
        assert "Hidden %" in text

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=500),
                              st.integers(min_value=1, max_value=800)),
                    min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_exposed_plus_hidden_equals_total(self, raw_loads):
        loads = [(issue, issue + duration) for issue, duration in raw_loads]
        tracker = self.tracked_loads(loads, busy_cycles=range(0, 600, 3))
        result = compute_exposure(tracker, num_buckets=8)
        total = sum(bucket.total_cycles for bucket in result.buckets)
        assert total == sum(complete - issue for issue, complete in loads)
        assert 0.0 <= result.overall_exposed_fraction <= 1.0


class TestExposureEdgeCases:
    """Boundary behaviour the sensitivity metrics depend on."""

    def test_mostly_exposed_threshold_is_strict(self):
        # Exactly-at-threshold loads do not count as "mostly exposed":
        # the comparison is strictly greater-than.
        result = ExposureResult(buckets=[], total_loads=2,
                                per_load=[(100, 50), (100, 51)])
        assert result.fraction_of_loads_mostly_exposed(50.0) == 0.5
        assert result.fraction_of_loads_mostly_exposed(51.0) == 0.0
        assert result.fraction_of_loads_mostly_exposed(50.999) == 0.5

    def test_mostly_exposed_zero_threshold_needs_some_exposure(self):
        # At threshold 0 a fully hidden load (exposed == 0) still does
        # not count; any positive exposure does.
        result = ExposureResult(buckets=[], total_loads=2,
                                per_load=[(100, 0), (100, 1)])
        assert result.fraction_of_loads_mostly_exposed(0.0) == 0.5

    def test_mostly_exposed_skips_zero_latency_loads(self):
        # Zero-latency loads have no exposure ratio; they stay in the
        # denominator but can never be "mostly exposed".
        result = ExposureResult(buckets=[], total_loads=2,
                                per_load=[(0, 0), (100, 100)])
        assert result.fraction_of_loads_mostly_exposed() == 0.5

    def test_mostly_exposed_with_no_loads(self):
        assert ExposureResult(
            buckets=[], total_loads=0).fraction_of_loads_mostly_exposed() == 0.0

    def test_overall_exposed_fraction_empty_buckets(self):
        # No buckets at all, and buckets holding zero cycles, both
        # yield 0.0 instead of dividing by zero.
        assert ExposureResult(buckets=[],
                              total_loads=0).overall_exposed_fraction == 0.0
        empty = ExposureBucket(lower=0.0, upper=10.0)
        assert ExposureResult(buckets=[empty],
                              total_loads=0).overall_exposed_fraction == 0.0
        assert empty.exposed_percent == 0.0
        assert empty.hidden_percent == 0.0

    def test_format_table_include_empty_lists_every_bucket(self):
        tracker = TestExposure.tracked_loads([(0, 100), (0, 900)])
        result = compute_exposure(tracker, num_buckets=6)
        dense = result.format_table(include_empty=True).splitlines()
        sparse = result.format_table().splitlines()
        # Header + separator + one row per bucket when empties included.
        assert len(dense) == 2 + len(result.buckets)
        assert len(sparse) == 2 + len(result.non_empty_buckets())
        assert len(result.non_empty_buckets()) < len(result.buckets)
        for bucket in result.buckets:
            assert any(line.startswith(bucket.label) for line in dense)

    def test_format_table_with_no_buckets(self):
        text = ExposureResult(buckets=[], total_loads=0).format_table(
            include_empty=True)
        lines = text.splitlines()
        assert lines[0].startswith("Latency")
        assert len(lines) == 2
