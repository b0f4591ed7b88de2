"""Each library type checks the settings it takes: a bad one raises a
``ValueError`` that names the field, and numpy numbers are accepted."""

import math

import numpy as np
import pytest

from tetraopt import BayesConfig, PowerConfig, SearchGrid, TensorTrain, TetraOptConfig, objectives
from tetraopt.cross import IndexCache, pack_keys, tensor_oracle, tt_cross
from tetraopt.harness import effective_parallelism, parallel_scaling_report
from tetraopt.objectives import BlackBoxObjective, benchmark, shifted_quadratic, with_latency

UNIT = ((0.0, 1.0),)


def objective(**fields):
    settings = {"name": "probe", "dimension": 1, "bounds": UNIT, "evaluator": lambda x: 0.0}
    return BlackBoxObjective(**{**settings, **fields})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SearchGrid([(0, 1)]), "dimension 0"),
        (lambda: SearchGrid([(0, 1, 3), 5]), "dimension 1"),
        (lambda: SearchGrid([("0", 1, 3)]), "dimension 0: lower"),
        (lambda: SearchGrid([(0, True, 3)]), "dimension 0: upper"),
        (lambda: TetraOptConfig(grid=SearchGrid([(0, 1, 3)]), minimize="no"), "minimize"),
        (lambda: effective_parallelism(1.5), "max_parallel"),
        (lambda: effective_parallelism(True), "max_parallel"),
        (lambda: effective_parallelism("2"), "max_parallel"),
        (lambda: PowerConfig(steps=2.5), "steps"),
        (lambda: PowerConfig(max_rank=True), "max_rank"),
        (lambda: PowerConfig(rel_tol="0"), "rel_tol"),
        (lambda: PowerConfig(shift="1"), "shift"),
        (lambda: BayesConfig(bounds=UNIT, kappa=True), "kappa"),
        (lambda: BayesConfig(bounds=UNIT, noise_variance="1e-6"), "noise_variance"),
        (lambda: BayesConfig(bounds=((0.0, 1.0, 2.0),)), "bounds"),
        (lambda: benchmark("rastrigin", True), "dimension"),
        (lambda: benchmark("rastrigin", 2.0), "dimension"),
        (lambda: shifted_quadratic([math.nan]), "center"),
        (lambda: shifted_quadratic(["0.5"]), "center"),
        (lambda: objective(bounds=((0.0, 1.0), (0.0, 1.0))), "bounds"),
        (lambda: objective(bounds=((1.0, 0.0),)), "bounds"),
        (lambda: objective(bounds=((0.0, math.inf),)), "bounds"),
        (lambda: objective(dimension=1.0), "dimension"),
        (lambda: objective(latency_s=-1.0), "latency_s"),
        (lambda: objective(latency_s=True), "latency_s"),
        (lambda: with_latency(objective(), "0.1"), "delay_s"),
        (lambda: parallel_scaling_report(objective(), 2.5, [1]), "batch_size"),
        (lambda: parallel_scaling_report(objective(), 2, [0]), "parallelism_levels"),
        (lambda: parallel_scaling_report(objective(), 2, [1], seed=-1), "seed"),
        (lambda: tt_cross(lambda batch: [0.0] * len(batch), [3, 3], 1.5, 1, 0), "rank"),
        (lambda: tt_cross(lambda batch: [0.0] * len(batch), [3, 3], 1, True, 0), "sweeps"),
    ],
    ids=[
        "grid_pair", "grid_scalar", "grid_text_lower", "grid_bool_upper", "minimize_text",
        "parallel_float", "parallel_bool", "parallel_text", "power_steps_float",
        "power_max_rank_bool", "power_rel_tol_text", "power_shift_text", "bayes_kappa_bool",
        "bayes_noise_text", "bayes_triple", "benchmark_bool", "benchmark_float",
        "center_nan", "center_text", "objective_bounds_count", "objective_bounds_reversed",
        "objective_bounds_inf", "objective_dimension_float", "objective_latency_negative",
        "objective_latency_bool", "with_latency_text", "report_batch_float",
        "report_level_zero", "report_seed_negative", "cross_rank_float", "cross_sweeps_bool",
    ],
)
def test_bad_setting_names_its_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_numpy_numbers_are_accepted_and_stored_as_python_numbers():
    grid = SearchGrid([(np.float32(0.0), np.float64(1.0), np.int64(3))])
    assert grid.dims == ((0.0, 1.0, 3),)
    assert effective_parallelism(np.int64(1)) == 1
    power = PowerConfig(steps=np.int32(2), max_rank=np.uint8(4), rel_tol=np.float32(0.5), shift=np.int64(1))
    assert (power.steps, power.max_rank, power.rel_tol, power.shift) == (2, 4, 0.5, 1.0)
    bayes = BayesConfig(bounds=np.array([[0.0, 1.0]]), kappa=np.float32(1.5), noise_variance=np.float64(0))
    assert (bayes.bounds, bayes.kappa, bayes.noise_variance) == (UNIT, 1.5, 0.0)
    obj = objective(dimension=np.int64(1), bounds=np.array([[0, 1]]), latency_s=np.float32(0))
    assert (obj.dimension, obj.bounds, obj.latency_s) == (1, UNIT, 0.0)
    assert shifted_quadratic(np.array([0.5])).evaluate([1.5]) == 1.0
    assert benchmark("ackley", np.int16(3)).dimension == 3
    config = TetraOptConfig(grid=grid, minimize=np.False_)
    assert config.minimize is False
    assert all(
        type(value) is float
        for value in (power.rel_tol, power.shift, bayes.kappa, obj.latency_s, *obj.bounds[0])
    )


def test_number_helpers_reject_what_floats_would_swallow():
    with pytest.raises(ValueError, match="big"):
        objectives.finite_number("big", 10**400)
    with pytest.raises(ValueError, match="small"):
        objectives.finite_number("small", -0.5, 0)
    assert objectives.finite_number("any", -0.5) == -0.5
    assert objectives.bound_pairs("box", [(1, 1)]) == ((1.0, 1.0),)


def test_largest_cached_value_breaks_ties_on_the_smallest_index():
    cache = IndexCache()
    rows = np.array([[2, 0], [0, 3], [1, 1], [0, 0]])
    cache.update(zip(pack_keys(rows), [5.0, 5.0, -1.0, 4.0]))
    assert cache.largest() == (pack_keys(rows[1:2])[0], 5.0)


def test_cross_sampled_largest_matches_a_scan_of_its_log():
    source = TensorTrain.random([4, 5, 3], 2, np.random.default_rng(3))
    cache = IndexCache()
    _, log = tt_cross(tensor_oracle(source), source.mode_sizes, 2, 2, 1, cache=cache)
    best_value = max(value for _, value, _ in log.entries)
    best_index = min(idx for idx, value, _ in log.entries if value == best_value)
    assert cache.largest() == (pack_keys([best_index])[0], best_value)
