import pytest

from metrics import (
    END_TO_END,
    PER_LAYER,
    TAIL_LEVELS,
    percentile,
    rank,
    result_line,
    spread,
    tail,
    tail_level,
    tail_mean,
)


def beyond(n, level):
    return n - rank(n, level)


@pytest.mark.parametrize(
    "n, level",
    [
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (2000, 99.5),
        (10000, 99.9),
    ],
)
def test_tail_is_the_highest_level_with_ten_samples_beyond(n, level):
    assert tail_level(n) == level
    assert beyond(n, level) >= 10
    higher = [lv for lv in TAIL_LEVELS if lv > level]
    if higher:
        assert beyond(n, higher[0]) < 10


def test_thin_samples_fall_back_to_the_median_with_their_count():
    level, value, count = tail([3.0, 1.0, 2.0])
    assert (level, value, count) == (50.0, 2.0, 3)


def test_tail_reports_value_and_sample_count():
    samples = [float(i) for i in range(1, 101)]
    level, value, count = tail(samples)
    assert (level, count) == (90.0, 100)
    assert value == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_mean_averages_the_samples_beyond_the_tail_percentile():
    samples = [float(i) for i in range(200, 0, -1)]
    # p95 of 200 leaves ten samples beyond it: 191..200.
    assert tail_mean(samples) == pytest.approx(195.5)
    assert tail_mean([3.0, 1.0, 2.0]) == 3.0
    assert tail_mean([4.0]) == 4.0


def test_nearest_rank_percentile():
    assert percentile([5.0, 1.0, 4.0, 2.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 75) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)


def test_result_line_has_exactly_the_declared_metrics():
    values = {m.name: 1.5 for m in END_TO_END}
    line = result_line(True, 3, 0, {**values, "extra": 2.0}, END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(KeyError):
        result_line(True, 1, 0, {}, PER_LAYER)
