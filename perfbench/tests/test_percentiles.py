import math

import pytest

from percentiles import beyond, median, percentile, tail, tail_level


@pytest.mark.parametrize(
    "count, level",
    [(200, 95), (240, 95), (1000, 99), (100, 90), (20, 50), (11, 9)],
)
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert tail_level(count) == level
    assert beyond(count, level) >= 10
    assert beyond(count, level + 1) < 10


def test_no_tail_for_ten_samples_or_fewer():
    assert tail_level(10) is None
    assert tail(range(10)) is None


def test_tail_reports_level_value_and_count():
    values = list(range(1, 201))  # 1..200
    assert tail(values) == (95, 190, 200)


def test_failures_count_against_the_tail():
    values = [1.0] * 189 + [math.inf] * 11
    level, value, count = tail(values)
    assert (level, count) == (95, 200)
    assert value == math.inf


def test_nearest_rank_percentile_and_median():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 100) == 5
    assert percentile([5, 1, 4, 2, 3], 0) == 1
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])
