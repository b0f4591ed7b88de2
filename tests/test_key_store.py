"""One key store per cross: the cache the caller passes, and a log that counts on read."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import (
    EvaluationError,
    SampleLog,
    TensorTrain,
    pointwise_oracle,
    tensor_oracle,
    tt_cross,
)

small_trains = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 2**16),
)


def _distinct(log: SampleLog) -> int:
    return len({idx for idx, _, _ in log.entries})


@settings(max_examples=30, deadline=None)
@given(train=small_trains, rank=st.integers(1, 3), seeds=st.lists(st.integers(0, 99), min_size=2, max_size=2))
def test_unique_count_of_a_log_shared_by_two_crosses(train, rank, seeds):
    shape, train_rank, train_seed = train
    source = TensorTrain.random(shape, train_rank, np.random.default_rng(train_seed))
    log = SampleLog()
    for seed in seeds:
        tt_cross(tensor_oracle(source), shape, rank, 1, seed, log=log)
        assert log.unique_count == _distinct(log)


@settings(max_examples=50, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12), max_size=5
    )
)
def test_unique_count_of_extended_logs_with_repeats(batches):
    log = SampleLog()
    for indices in batches:
        log.extend(indices, [float(sum(idx)) for idx in indices], log.new_batch())
        assert log.unique_count == _distinct(log)
    assert log.unique_count == len({idx for indices in batches for idx in indices})


def test_values_already_in_a_callers_dict_are_read_not_evaluated():
    source = TensorTrain.random([4, 5, 3], 2, np.random.default_rng(3))
    oracle = tensor_oracle(source)
    first: dict = {}
    expected, expected_log = tt_cross(oracle, [4, 5, 3], 2, 1, seed=7, cache=first)
    evaluated = []

    def counting(indices):
        evaluated.extend(indices)
        return oracle(indices)

    prefilled = dict(first)
    approx, log = tt_cross(counting, [4, 5, 3], 2, 1, seed=7, cache=prefilled)
    assert evaluated == []
    assert prefilled == first
    assert log.entries == expected_log.entries
    assert log.unique_count == expected_log.unique_count == len(first)
    for a, b in zip(approx.cores, expected.cores):
        np.testing.assert_array_equal(a, b)


def test_a_partly_filled_dict_is_filled_in_place_under_index_tuples():
    source = TensorTrain.random([3, 4, 3], 2, np.random.default_rng(5))
    oracle = tensor_oracle(source)
    known = {(0, 0, 0): 0.5, (1, 2, 0): -2.0}
    evaluated = []

    def counting(indices):
        evaluated.extend(indices)
        return oracle(indices)

    _, log = tt_cross(counting, [3, 4, 3], 2, 1, seed=1, cache=known)
    requested = {idx for idx, _, _ in log.entries}
    assert set(evaluated) == requested - {(0, 0, 0), (1, 2, 0)}
    assert len(evaluated) == len(set(evaluated))
    assert set(known) == requested | {(0, 0, 0), (1, 2, 0)}
    assert all(isinstance(idx, tuple) for idx in known)
    for idx, value, _ in log.entries:
        assert value == known[idx]


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: tt_cross(lambda batch: [0.0] * len(batch), [3.7, 3], 1, 1, 0), "shape"),
        (lambda: TensorTrain.random([2.9, 3], 2, np.random.default_rng(0)), "shape"),
        (lambda: TensorTrain.random([3, 3], 2.5, np.random.default_rng(0)), "rank"),
        (lambda: TensorTrain.random([3, 3], True, np.random.default_rng(0)), "rank"),
        (lambda: TensorTrain.random([3, 0], 2, np.random.default_rng(0)), "shape"),
    ],
)
def test_mode_sizes_and_ranks_must_be_whole_numbers(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_numpy_integer_mode_sizes_and_ranks_are_accepted():
    shape = [np.int64(3), np.int32(4)]
    source = TensorTrain.random(shape, np.int64(2), np.random.default_rng(0))
    assert source.mode_sizes == (3, 4)
    approx, _ = tt_cross(tensor_oracle(source), shape, np.int64(2), 1, 0)
    assert approx.mode_sizes == (3, 4)


def test_text_values_are_refused_by_the_cross():
    with pytest.raises(TypeError, match="real number"):
        tt_cross(lambda batch: ["0.5"] * len(batch), [2, 2], 1, 1, 0)


def test_text_from_a_pointwise_function_is_an_evaluation_error():
    with pytest.raises(EvaluationError) as err:
        tt_cross(pointwise_oracle(lambda idx: "0.25"), [2, 2], 1, 1, 0)
    assert isinstance(err.value.cause, TypeError)
    assert len(err.value.index) == 2
