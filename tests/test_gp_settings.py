"""Bad GP settings fail when the object is built, before any evaluation."""

import math

import numpy as np
import pytest

from tetraopt import BayesConfig, Kernel, bayes_minimize, gp_fit, gp_predict, propose_next
from tetraopt.objectives import BlackBoxObjective

UNIT = ((0.0, 1.0),)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_kappa_must_be_finite_and_nonnegative(kappa):
    with pytest.raises(ValueError, match="kappa"):
        BayesConfig(bounds=UNIT, kappa=kappa)


@pytest.mark.parametrize("noise_variance", [math.nan, math.inf, -1.0])
def test_noise_variance_must_be_finite_and_nonnegative(noise_variance):
    with pytest.raises(ValueError, match="noise_variance"):
        BayesConfig(bounds=UNIT, noise_variance=noise_variance)


@pytest.mark.parametrize(
    "fields, name",
    [({"n_initial": 2.5}, "n_initial"), ({"n_iterations": 3.0}, "n_iterations"),
     ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"n_iterations": True}, "n_iterations")],
    ids=["n_initial_float", "n_iterations_float", "seed_negative", "seed_float", "n_iterations_bool"],
)
def test_counts_and_seed_must_be_integers(fields, name):
    with pytest.raises(ValueError, match=name):
        BayesConfig(bounds=UNIT, **fields)


def test_numpy_integer_counts_are_accepted():
    config = BayesConfig(bounds=UNIT, n_initial=np.int64(3), n_iterations=np.int32(2), seed=np.uint16(7))
    assert (config.n_initial, config.n_iterations, config.seed) == (3, 2, 7)
    assert all(type(n) is int for n in (config.n_initial, config.n_iterations, config.seed))


@pytest.mark.parametrize(
    "fields",
    [
        {"length_scale": math.nan},
        {"length_scale": math.inf},
        {"signal_variance": math.nan},
        {"signal_variance": math.inf},
    ],
    ids=["length_scale_nan", "length_scale_inf", "signal_variance_nan", "signal_variance_inf"],
)
def test_kernel_hyperparameters_must_be_finite(fields):
    with pytest.raises(ValueError, match="hyperparameters"):
        Kernel(**fields)


@pytest.mark.parametrize(
    "bounds",
    [((0.0, math.inf),), ((-math.inf, 1.0),), ((math.nan, 1.0),), ((0.0, 1.0), (0.0, math.nan))],
    ids=["hi_inf", "lo_minus_inf", "lo_nan", "second_hi_nan"],
)
def test_bounds_must_be_finite(bounds):
    with pytest.raises(ValueError, match="bounds"):
        BayesConfig(bounds=bounds)


def test_reversed_bounds_are_rejected():
    with pytest.raises(ValueError, match="bounds"):
        BayesConfig(bounds=((0.0, 1.0), (2.0, 1.0)))


def test_a_fixed_axis_is_allowed():
    objective = BlackBoxObjective(
        name="tilted", dimension=2, bounds=((0.0, 1.0), (0.5, 0.5)), evaluator=lambda x: float(x[0])
    )
    trace = bayes_minimize(objective, BayesConfig(bounds=objective.bounds, n_iterations=3))
    assert trace.total_calls == 8
    assert all(event.best_point[1] == 0.5 for event in trace.events)


def test_gp_fit_rejects_nan_noise():
    with pytest.raises(ValueError, match="noise_variance"):
        gp_fit([[0.0]], [1.0], noise_variance=math.nan)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("query", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflowing"])
def test_gp_predict_rejects_a_query_without_a_finite_posterior(query):
    model = gp_fit([[0.2], [0.8]], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        gp_predict(model, [query])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "bounds, kappa",
    [([(0.0, np.inf)], 1.0), ([(np.nan, 1.0)], 1.0), ([(0.0, 1e200)], 1.0), ([(0.0, 1.0)], np.nan)],
    ids=["hi_inf", "lo_nan", "overflowing", "kappa_nan"],
)
def test_propose_next_rejects_a_non_finite_acquisition(bounds, kappa):
    model = gp_fit([[0.2], [0.8]], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        propose_next(model, bounds, kappa=kappa, seed=0)
