"""Number arguments go through the shared validators: a bool, text, NaN or a
negative raises a ``ValueError`` naming the argument, and a numpy integer
acts as the plain integer it holds."""

import math

import numpy as np
import pytest

from tetraopt import TensorTrain
from tetraopt.cross import cross_requests, tensor_oracle, tt_cross
from tetraopt.gp import Kernel
from tetraopt.objectives import seeded_failure_model
from tetraopt.power import PowerConfig, tt_power_argmax

BAD = {"bool": True, "text": "1", "nan": math.nan, "negative": -1}


def _train():
    return TensorTrain.random([3, 3, 3], 2, np.random.default_rng(0), nonnegative=True)


def _cross(seed):
    return tt_cross(tensor_oracle(_train()), [3, 3, 3], 2, 1, seed)[0]


def _requests(seed):
    return next(cross_requests([3, 3, 3], 2, 1, seed, cache=None, log=None))


def _power(seed):
    return tt_power_argmax(_train(), PowerConfig(steps=2, max_rank=4), seed=seed)


@pytest.mark.parametrize("value", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize(
    "call",
    [_cross, _requests, _power, lambda seed: seeded_failure_model(0.1, seed)],
    ids=["tt_cross", "cross_requests", "tt_power_argmax", "seeded_failure_model"],
)
def test_bad_seed_is_refused_by_name(call, value):
    with pytest.raises(ValueError, match="seed"):
        call(value)


@pytest.mark.parametrize("value", BAD.values(), ids=BAD.keys())
def test_bad_failure_rate_is_refused_by_name(value):
    with pytest.raises(ValueError, match="rate"):
        seeded_failure_model(value, 1)


@pytest.mark.parametrize("value", [*BAD.values(), 0], ids=[*BAD.keys(), "zero"])
@pytest.mark.parametrize("field", ["length_scale", "signal_variance"])
def test_bad_kernel_hyperparameter_is_refused_by_name(field, value):
    with pytest.raises(ValueError, match=f"hyperparameters: {field}"):
        Kernel(**{field: value})


def test_numpy_integer_seeds_act_as_integers():
    assert _cross(np.int64(3)).cores[0].tobytes() == _cross(3).cores[0].tobytes()
    assert _requests(np.int64(3)).keys == _requests(3).keys
    assert _power(np.int64(3)) == _power(3)
    points = np.random.default_rng(0).random((50, 2))
    numpy_seed, plain_seed = seeded_failure_model(0.5, np.int64(3)), seeded_failure_model(0.5, 3)
    assert [numpy_seed(p) for p in points] == [plain_seed(p) for p in points]


def test_numpy_numbers_are_stored_as_floats():
    kernel = Kernel(np.int64(2), np.float32(0.5))
    assert kernel == Kernel(2.0, 0.5)
    assert type(kernel.length_scale) is float and type(kernel.signal_variance) is float
    assert seeded_failure_model(np.int64(1), 0)(np.zeros(2))
