import pytest

from perfbench import stats


def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.beyond(100, 90) == 10


def test_tail_needs_ten_samples_beyond():
    # 160 samples: p90 leaves 16 beyond, p95 only 8.
    assert stats.tail_percentile(160) == 90.0
    # 100 samples: p90 leaves exactly 10 beyond.
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    # Too few for any ladder percentile.
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(39) is None
    assert stats.tail_percentile(2) is None


def test_summarize_reports_sample_count():
    summary = stats.summarize([float(v) for v in range(160)])
    assert summary["n"] == 160
    assert summary["tail_q"] == 90.0
    assert summary["tail"] == 143.0
    assert summary["median"] == 79.5
    small = stats.summarize([1.0, 2.0])
    assert small == {"median": 1.5, "tail_q": None, "tail": None, "n": 2}

