"""The cross refuses a value that is not finite, and a sample log a count mismatch."""

import itertools
import math

import pytest

from tetraopt.cross import SampleLog, tt_cross


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_the_cross_names_the_first_index_whose_value_is_not_finite(bad):
    with pytest.raises(ValueError, match=r"the value at index \(0, 3, 0\) is not finite"):
        tt_cross(lambda batch: [bad] * len(batch), [4, 4, 4], 2, 1, 0)


def test_a_cached_value_that_is_not_finite_is_refused_too():
    cache = {index: math.nan for index in itertools.product(range(3), repeat=2)}

    def never(batch):
        raise AssertionError("every value is cached")

    with pytest.raises(ValueError, match=r"the value at index \(0, [0-2]\) is not finite"):
        tt_cross(never, [3, 3], 1, 1, 0, cache=cache)


@pytest.mark.parametrize(
    "indices, values",
    [
        ([(1, 2), (3, 4)], [0.5]),
        ([(1, 2)], [0.5, 0.7]),
        ([1, 2], [0.5, 0.7]),
        ([[[1, 2]], [[3, 4]]], [0.5, 0.7]),
        ([], [0.5]),
    ],
)
def test_a_sample_log_wants_one_index_row_per_value(indices, values):
    log = SampleLog()
    with pytest.raises(ValueError, match="one index row per value"):
        log.extend(indices, values, log.new_batch())
    assert log.entries == []


def test_a_sample_log_takes_an_empty_block_and_a_matching_one():
    log = SampleLog()
    log.extend([], [], log.new_batch())
    log.extend([(1, 2), (3, 4)], [0.5, 0.7], log.new_batch())
    assert log.entries == [((1, 2), 0.5, 1), ((3, 4), 0.7, 1)]
