"""An evaluator's values must be real numbers, whether they come as a list or an array."""

import numpy as np
import pytest

from tetraopt import tt_cross
from tetraopt.cross import IndexCache


@pytest.mark.parametrize(
    "make",
    [
        lambda count: np.array(["0.25"] * count),
        lambda count: np.array([b"0.25"] * count),
        lambda count: np.array(["0.25"] * count, dtype=object),
        lambda count: ["0.25"] * count,
    ],
    ids=["str", "bytes", "object-of-str", "list-of-str"],
)
def test_text_values_are_refused(make):
    with pytest.raises(TypeError, match="expected a real number"):
        tt_cross(lambda idx: make(len(idx)), [2, 2], 1, 1, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int8, np.uint16, np.bool_])
def test_numeric_arrays_give_float64_values(dtype):
    cache = IndexCache()
    train, _ = tt_cross(
        lambda idx: (np.arange(len(idx)) % 2 + 1).astype(dtype), [2, 2], 1, 1, 0, cache=cache
    )
    values = [cache[key] for key in cache]
    assert values and all(type(value) is float for value in values)
    assert all(core.dtype == np.float64 for core in train.cores)
