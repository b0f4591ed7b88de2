"""Edge cases and refusals of the library that no other test reaches."""

import struct
import warnings

import numpy as np
import pytest

from tetraopt import (
    EvaluationError,
    OptimizationTrace,
    SearchGrid,
    SectionField,
    TensorTrain,
    load_tt,
    mixer_surrogate,
    pointwise_oracle,
    save_tt,
    section_from_csv,
    seeded_failure_model,
    tt_add,
    tt_full,
    tt_round,
)


def test_tt_add_of_order_one_trains_adds_the_vectors():
    a = TensorTrain.from_vectors([[1.0, 2.0, 3.0]])
    b = TensorTrain.from_vectors([[0.5, -1.0, 4.0]])
    total = tt_add(a, b)
    assert total.ranks == (1, 1)
    np.testing.assert_array_equal(tt_full(total), [1.5, 1.0, 7.0])


@pytest.mark.parametrize("rel_tol", [0.0, 0.3])
def test_tt_round_of_an_order_one_train_is_a_copy(rel_tol):
    train = TensorTrain.from_vectors([[3.0, -4.0, 0.0, 1e-9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rounded = tt_round(train, 1, rel_tol=rel_tol)
    assert rounded is not train
    assert rounded.ranks == (1, 1)
    np.testing.assert_array_equal(rounded.cores[0], train.cores[0])


@pytest.mark.parametrize(
    "cores, message",
    [
        ([np.ones((1, 3))], "3 axes"),
        ([np.ones((1, 0, 1))], "empty axis"),
    ],
)
def test_tensor_train_refuses_malformed_cores(cores, message):
    with pytest.raises(ValueError, match=message):
        TensorTrain(cores)


def test_tt_add_refuses_different_mode_sizes():
    with pytest.raises(ValueError, match="mode sizes differ"):
        tt_add(TensorTrain.constant([2, 3], 1.0), TensorTrain.constant([2, 4], 1.0))


def test_load_tt_refuses_another_format_version(tmp_path):
    path = tmp_path / "train.tt"
    save_tt(TensorTrain.constant([2, 2], 1.0), path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="version 2"):
        load_tt(path)


def test_grid_points_of_no_index_is_an_empty_block():
    grid = SearchGrid([(0.0, 1.0, 3), (-1.0, 1.0, 5)])
    assert grid.points([]).shape == (0, 2)


def test_grid_points_refuses_a_flat_index():
    grid = SearchGrid([(0.0, 1.0, 3), (-1.0, 1.0, 5)])
    with pytest.raises(ValueError, match="multi-indices"):
        grid.points([1, 2])


@pytest.mark.parametrize("k", [-1, 3])
def test_grid_coordinate_refuses_an_index_off_the_axis(k):
    grid = SearchGrid([(0.0, 1.0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        grid.coordinate(0, k)


def test_pointwise_oracle_passes_an_evaluation_error_through():
    inner = EvaluationError((7, 7))

    def fn(idx):
        raise inner

    with pytest.raises(EvaluationError) as caught:
        pointwise_oracle(fn)([(0, 1)])
    assert caught.value is inner
    assert caught.value.index == (7, 7)


def test_trace_refuses_an_incumbent_that_gets_worse():
    trace = OptimizationTrace()
    trace.record(1, 0.0, 2.0, [0.0])
    with pytest.raises(ValueError, match="never increase"):
        trace.record(2, 0.1, 3.0, [1.0])


def test_seeded_failure_model_refuses_a_rate_above_one():
    with pytest.raises(ValueError, match="rate"):
        seeded_failure_model(1.5, 0)


def test_section_field_refuses_weights_of_another_length():
    with pytest.raises(ValueError, match="weights"):
        SectionField(fractions=[0.2, 0.4], weights=[1.0])


@pytest.mark.parametrize(
    "text, message", [("", "empty section file"), ("0.5,1.0,2.0\n", "1 or 2 columns")]
)
def test_section_from_csv_refuses_malformed_files(tmp_path, text, message):
    path = tmp_path / "section.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        section_from_csv(path)


def test_mixer_surrogate_refuses_a_two_vector():
    with pytest.raises(ValueError, match="4-vector"):
        mixer_surrogate([10.0, 0.3])
