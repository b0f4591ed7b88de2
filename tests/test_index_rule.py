"""One rule for grid indices, shared by every entry point that takes them.

``tt_eval``, ``tt_eval_many``, ``SearchGrid.points``, ``grid_point``,
``SearchGrid.coordinate`` and ``pack_keys`` read indices through
``tetraopt.tt.multi_indices``: any integer dtype reads like int64, and a
float or bool index is refused, never truncated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import SearchGrid, TensorTrain, grid_point, tt_eval, tt_eval_many
from tetraopt.cross import pack_keys

INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
]


@st.composite
def blocks(draw):
    """A shape of small modes and an (N, d) int64 block of indices into it, N >= 1."""
    shape = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in shape]), min_size=1, max_size=5))
    return shape, np.array(rows, dtype=np.int64)


def readers(shape):
    """Each entry point as a function of an (N, d) block, its result as comparable data."""
    tt = TensorTrain.random(shape, 2, np.random.default_rng(len(shape)))
    grid = SearchGrid([(0.0, 1.0, n) for n in shape])

    def coordinates(block):
        return [grid.coordinate(axis, k) for row in block for axis, k in enumerate(row)]

    return {
        "tt_eval": lambda block: [tt_eval(tt, tuple(row)) for row in block],
        "tt_eval_many": lambda block: tt_eval_many(tt, block).tobytes(),
        "SearchGrid.points": lambda block: grid.points(block).tobytes(),
        "grid_point": lambda block: [grid_point(grid, row).tobytes() for row in block],
        "SearchGrid.coordinate": coordinates,
        "pack_keys": pack_keys,
    }


@settings(max_examples=60, deadline=None)
@given(case=blocks(), dtype=st.sampled_from(INTEGER_DTYPES), shift=st.floats(0.25, 0.75))
def test_integer_dtypes_read_alike_and_floats_and_bools_are_refused(case, dtype, shift):
    shape, block = case
    for name, read in readers(shape).items():
        assert read(block.astype(dtype)) == read(block), name
        for bad in (block + shift, block.astype(np.float64), block > 0):
            with pytest.raises(ValueError, match="integers"):
                read(bad)


@pytest.mark.parametrize("big", [2**63, 2**64, 2**70])
def test_a_python_int_past_intp_is_out_of_range(big):
    shape = [3, 4]
    for name, read in readers(shape).items():
        with pytest.raises(ValueError, match="out of range"):
            read([[0, 1], [big, 0]])


def test_an_empty_block_reads_as_no_index_whatever_its_dtype():
    tt = TensorTrain.random([3, 4], 2, np.random.default_rng(0))
    grid = SearchGrid([(0.0, 1.0, 3), (0.0, 1.0, 4)])
    for empty in ([], np.zeros((0, 2)), np.zeros((0, 2), dtype=np.uint8)):
        assert tt_eval_many(tt, empty).shape == (0,)
        assert grid.points(empty).shape == (0, 2)
        assert pack_keys(empty) == []
