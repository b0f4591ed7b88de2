import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tetraopt.optimizer
from tetraopt import (
    MIXER_BOUNDS,
    PENALTY_VALUE,
    BlackBoxObjective,
    benchmark,
    mixer_objective,
    mixer_surrogate,
    seeded_failure_model,
    shifted_quadratic,
    tt_cross,
)
from tetraopt.harness import evaluate_point
from tetraopt.optimizer import (
    SearchGrid,
    TetraOptConfig,
    grid_point,
    tetraopt_minimize,
)


def constant_objective(value, dimension=2):
    return BlackBoxObjective(
        name="constant",
        dimension=dimension,
        bounds=tuple((0.0, 1.0) for _ in range(dimension)),
        evaluator=lambda x: float(value),
    )


class TestSearchGrid:
    def test_endpoints_exact(self):
        grid = SearchGrid([(0.0, 30.0, 5)])
        assert grid_point(grid, (0,))[0] == 0.0
        assert grid_point(grid, (4,))[0] == 30.0

    def test_midpoint(self):
        grid = SearchGrid([(0.2, 0.6, 5)])
        assert grid_point(grid, (2,))[0] == pytest.approx(0.4)

    def test_mixer_grid_second_nodes(self, mixer_grid):
        point = grid_point(mixer_grid, (1, 1, 1, 1))
        np.testing.assert_allclose(point, [7.5, 0.275, 0.75, 0.3])

    def test_monotone_coordinates(self):
        grid = SearchGrid([(-1.0, 2.0, 7)])
        coords = [grid.coordinate(0, k) for k in range(7)]
        assert coords == sorted(coords)
        assert coords[0] == -1.0 and coords[-1] == 2.0

    def test_single_point_dimension(self):
        grid = SearchGrid([(0.5, 0.5, 1)])
        assert grid_point(grid, (0,))[0] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid([(1.0, 0.0, 5)])
        with pytest.raises(ValueError):
            SearchGrid([(0.0, 1.0, 0)])
        grid = SearchGrid([(0.0, 1.0, 3)])
        with pytest.raises(ValueError):
            grid_point(grid, (3,))
        with pytest.raises(ValueError):
            grid_point(grid, (0, 0))
        with pytest.raises(ValueError):
            grid_point(grid, (2**70,))


@settings(max_examples=30, deadline=None)
@given(
    lower=st.floats(-10, 10),
    width=st.floats(0.1, 20),
    points=st.integers(2, 9),
)
def test_grid_corners_property(lower, width, points):
    grid = SearchGrid([(lower, lower + width, points)])
    assert grid.coordinate(0, 0) == lower
    assert grid.coordinate(0, points - 1) == lower + width


axis_specs = st.tuples(
    st.floats(-10, 10), st.floats(0.1, 20), st.integers(1, 6)
).map(lambda spec: (spec[0], spec[0] + spec[1], spec[2]))


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(axis_specs, min_size=1, max_size=4), data=st.data())
def test_grid_points_match_coordinates(dims, data):
    grid = SearchGrid(dims)
    indices = grid.all_indices()
    points = grid.points(indices)
    assert points.shape == (len(indices), grid.dimension)
    for idx, point in zip(indices, points):
        reference = np.array([grid.coordinate(axis, k) for axis, k in enumerate(idx)])
        assert point.tobytes() == reference.tobytes()
        assert grid_point(grid, idx).tobytes() == reference.tobytes()
    assert points[0].tolist() == [lower for lower, _ in grid.bounds]
    corner = [upper if n > 1 else lower for (lower, upper), n in zip(grid.bounds, grid.shape)]
    assert points[-1].tolist() == corner

    idx = list(data.draw(st.sampled_from(indices)))
    axis = data.draw(st.integers(0, grid.dimension - 1))
    size = grid.shape[axis]
    for bad_k in (-1, -size, size, size + data.draw(st.integers(0, 100))):
        bad = idx.copy()
        bad[axis] = bad_k
        with pytest.raises(ValueError, match="out of range"):
            grid.points([tuple(idx), tuple(bad)])
        with pytest.raises(ValueError, match="out of range"):
            grid_point(grid, bad)
    for bad in (idx[:-1], idx + [0]):
        with pytest.raises(ValueError, match="index length"):
            grid.points([bad])
        with pytest.raises(ValueError, match="index length"):
            grid_point(grid, bad)


class TestTetraOpt:
    def test_constant_objective(self):
        grid = SearchGrid([(0.0, 1.0, 3), (0.0, 1.0, 3)])
        trace = tetraopt_minimize(
            constant_objective(7.0), TetraOptConfig(grid=grid, rank=2, seed=0), max_parallel=1
        )
        assert trace.best_value == 7.0
        assert trace.total_calls > 0

    def test_separable_quadratic_hits_grid_minimum(self):
        # Oracle: brute force over all 5^4 grid points (the centers sit on
        # the grid, so the exact minimum is zero).
        centers = [0.25, 0.5, 0.75, 0.5]
        grid = SearchGrid([(0.0, 1.0, 5)] * 4)
        objective = shifted_quadratic(centers, bounds=[(0.0, 1.0)] * 4)
        brute = min(
            objective.evaluate(grid_point(grid, idx)) for idx in grid.all_indices()
        )
        assert brute == 0.0
        wins = 0
        for seed in range(10):
            trace = tetraopt_minimize(
                objective,
                TetraOptConfig(grid=grid, rank=4, iterations=2, seed=seed),
                max_parallel=1,
            )
            wins += trace.best_value <= 1e-12
        assert wins >= 9

    def test_mixer_within_five_percent(self, mixer_grid, mixer_grid_min):
        objective = mixer_objective()
        wins = 0
        for seed in range(10):
            trace = tetraopt_minimize(
                objective,
                TetraOptConfig(grid=mixer_grid, rank=4, iterations=2, seed=seed),
                max_parallel=1,
            )
            wins += trace.best_value <= mixer_grid_min["value"] * 1.05
        assert wins >= 9

    def test_incumbent_monotone_and_dominant(self, mixer_grid):
        objective = mixer_objective()
        trace = tetraopt_minimize(
            objective, TetraOptConfig(grid=mixer_grid, seed=5), max_parallel=1
        )
        values = [event.best_value for event in trace.events]
        assert values == sorted(values, reverse=True)
        # Dominance: the final incumbent equals the exact minimum over every
        # point the run sampled; reconstruct that set from a rerun with a
        # recording objective.
        seen = []
        recording = BlackBoxObjective(
            name="recording",
            dimension=4,
            bounds=MIXER_BOUNDS,
            evaluator=lambda x: (seen.append(tuple(x)), mixer_surrogate(x))[1],
        )
        replay = tetraopt_minimize(
            recording, TetraOptConfig(grid=mixer_grid, seed=5), max_parallel=1
        )
        assert replay.best_value == trace.best_value
        assert replay.best_value == pytest.approx(
            min(mixer_surrogate(p) for p in set(seen)), abs=1e-15
        )
        assert replay.total_calls == len(set(seen))

    def test_budget_bound(self, mixer_grid):
        trace = tetraopt_minimize(
            mixer_objective(), TetraOptConfig(grid=mixer_grid, seed=1), max_parallel=1
        )
        assert trace.total_calls <= 2 * 2 * 4 * 5 * 16

    def test_deterministic_given_seed(self, mixer_grid):
        def run():
            trace = tetraopt_minimize(
                mixer_objective(), TetraOptConfig(grid=mixer_grid, seed=9), max_parallel=2
            )
            return [
                (e.unique_calls_so_far, e.best_value, e.best_point) for e in trace.events
            ], trace.total_calls

        assert run() == run()

    def test_penalized_failures_never_become_incumbents(self):
        # The failing point is the global minimizer; the optimizer must
        # settle on the best healthy point instead.
        grid = SearchGrid([(0.0, 1.0, 5)] * 3)
        target = np.array([0.25, 0.5, 0.75])

        def failure_model(x):
            return bool(np.allclose(x, target))

        objective = BlackBoxObjective(
            name="trapped",
            dimension=3,
            bounds=((0.0, 1.0),) * 3,
            evaluator=lambda x: float(np.sum((x - target) ** 2)),
            failure_model=failure_model,
        )
        trace = tetraopt_minimize(
            objective, TetraOptConfig(grid=grid, rank=3, seed=0), max_parallel=2
        )
        assert trace.best_value > 0
        assert trace.best_value < 1e30
        assert not np.allclose(trace.best_point, target)

    def test_numeric_text_is_a_failure(self, numeric_text):
        # Points below 0.5 return "0.3" as text: failures, never the incumbent.
        grid = SearchGrid([(0.0, 1.0, 5)])
        trace = tetraopt_minimize(
            numeric_text, TetraOptConfig(grid=grid, rank=1, iterations=1, seed=0), max_parallel=1
        )
        assert numeric_text.calls == trace.total_calls == 5
        assert trace.best_value == 0.5
        assert trace.best_point == (0.5,)

    def test_non_finite_objective_values_excluded(self):
        # NaN at the would-be optimum: the run must not crash and the
        # incumbent must settle on a healthy point.
        grid = SearchGrid([(0.0, 1.0, 5)] * 2)
        target = np.array([0.5, 0.5])
        objective = BlackBoxObjective(
            name="nan-hole",
            dimension=2,
            bounds=((0.0, 1.0),) * 2,
            evaluator=lambda x: (
                float("nan") if np.allclose(x, target) else float(np.sum((x - target) ** 2))
            ),
        )
        trace = tetraopt_minimize(
            objective, TetraOptConfig(grid=grid, rank=3, seed=0), max_parallel=2
        )
        assert 0 < trace.best_value < 1e30
        assert not np.allclose(trace.best_point, target)

    def test_maximize_flag(self):
        grid = SearchGrid([(0.0, 1.0, 5)] * 2)
        objective = BlackBoxObjective(
            name="bump",
            dimension=2,
            bounds=((0.0, 1.0),) * 2,
            evaluator=lambda x: float(-np.sum((x - 0.5) ** 2)),
        )
        trace = tetraopt_minimize(
            objective,
            TetraOptConfig(grid=grid, rank=3, seed=0, minimize=False),
            max_parallel=1,
        )
        assert trace.best_value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(trace.best_point, [0.5, 0.5])

    def test_dimension_mismatch_rejected(self, mixer_grid):
        with pytest.raises(ValueError, match="dimension"):
            tetraopt_minimize(
                constant_objective(1.0, dimension=3), TetraOptConfig(grid=mixer_grid)
            )

    def test_tie_break_prefers_smallest_index(self):
        grid = SearchGrid([(0.0, 1.0, 3)] * 2)
        trace = tetraopt_minimize(
            constant_objective(2.0), TetraOptConfig(grid=grid, rank=2, seed=4), max_parallel=1
        )
        np.testing.assert_allclose(trace.best_point, [0.0, 0.0])

    def test_frozen_dimension_in_grid(self):
        grid = SearchGrid([(0.0, 1.0, 5), (0.7, 0.7, 1), (0.0, 1.0, 5)])
        objective = shifted_quadratic(
            [0.5, 0.7, 0.25], bounds=[(0, 1), (0.7, 0.7), (0, 1)]
        )
        trace = tetraopt_minimize(
            objective, TetraOptConfig(grid=grid, rank=3, seed=0), max_parallel=1
        )
        assert trace.best_value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(trace.best_point, [0.5, 0.7, 0.25])


@settings(max_examples=6, deadline=None)
@given(failure_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
def test_results_independent_of_parallelism(failure_seed, seed):
    objective = dataclasses.replace(
        benchmark("rastrigin", 4), failure_model=seeded_failure_model(0.1, failure_seed)
    )
    grid = SearchGrid([(lo, hi, 6) for lo, hi in objective.bounds])
    config = TetraOptConfig(grid=grid, rank=3, iterations=2, seed=seed)

    def run(max_parallel):
        trace = tetraopt_minimize(objective, config, max_parallel=max_parallel)
        events = [(e.unique_calls_so_far, e.best_value, e.best_point) for e in trace.events]
        return events, trace.total_calls, trace.best_value, trace.best_point

    assert run(1) == run(2)


def _random_landscape(grid: SearchGrid, coef_seed: int, failure_seed=None) -> BlackBoxObjective:
    """A seeded non-separable function over ``grid``'s box, optionally with 10% failures."""
    rng = np.random.default_rng(coef_seed)
    amp, freq = rng.normal(size=grid.dimension), rng.uniform(0.2, 2.0, size=grid.dimension)
    return BlackBoxObjective(
        name="landscape",
        dimension=grid.dimension,
        bounds=grid.bounds,
        evaluator=lambda x: float(np.sum(amp * np.cos(freq * x)) + 0.1 * np.prod(np.sin(x))),
        failure_model=None if failure_seed is None else seeded_failure_model(0.1, failure_seed),
    )


random_runs = st.tuples(
    st.lists(axis_specs, min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(run=random_runs, failure_seed=st.integers(0, 2**16))
def test_call_budget_on_random_grids(run, failure_seed):
    dims, rank, iterations, seed, coef_seed = run
    grid = SearchGrid(dims)
    objective = _random_landscape(grid, coef_seed, failure_seed)
    config = TetraOptConfig(grid=grid, rank=rank, iterations=iterations, seed=seed)
    trace = tetraopt_minimize(objective, config, max_parallel=1)
    budget = 2 * iterations * grid.dimension * max(grid.shape) * rank**2
    assert trace.total_calls <= min(budget, int(np.prod(grid.shape)))


@settings(max_examples=30, deadline=None)
@given(run=random_runs, failure_seed=st.integers(0, 2**16))
def test_incumbent_is_min_over_healthy_evaluations(run, failure_seed):
    dims, rank, iterations, seed, coef_seed = run
    grid = SearchGrid(dims)
    objective = _random_landscape(grid, coef_seed, failure_seed)
    recording = _Recording(objective)
    config = TetraOptConfig(grid=grid, rank=rank, iterations=iterations, seed=seed)
    trace = tetraopt_minimize(recording, config, max_parallel=1)
    outcomes = [evaluate_point(objective, np.array(x)) for x in set(recording.seen)]
    healthy = [value for value, failed in outcomes if not failed]
    assert trace.best_value == min(healthy, default=float("inf"))
    if healthy:
        assert objective.evaluate(trace.best_point) == trace.best_value


@settings(max_examples=40, deadline=None)
@given(run=random_runs)
def test_maximizing_mirrors_minimizing_the_negation(run):
    dims, rank, iterations, seed, coef_seed = run
    grid = SearchGrid(dims)
    objective = _random_landscape(grid, coef_seed)
    negated = dataclasses.replace(objective, evaluator=lambda x: -objective.evaluate(x))
    config = TetraOptConfig(grid=grid, rank=rank, iterations=iterations, seed=seed)
    maximized = tetraopt_minimize(
        objective, dataclasses.replace(config, minimize=False), max_parallel=1
    )
    minimized = tetraopt_minimize(negated, config, max_parallel=1)
    assert maximized.total_calls == minimized.total_calls
    assert [(e.unique_calls_so_far, e.best_point) for e in maximized.events] == [
        (e.unique_calls_so_far, e.best_point) for e in minimized.events
    ]
    assert [e.best_value for e in maximized.events] == [-e.best_value for e in minimized.events]


@settings(max_examples=40, deadline=None)
@given(run=random_runs, failure_seed=st.integers(0, 2**16))
def test_maximizing_mirrors_minimizing_the_negation_under_failures(run, failure_seed):
    dims, rank, iterations, seed, coef_seed = run
    grid = SearchGrid(dims)
    objective = dataclasses.replace(
        _random_landscape(grid, coef_seed), failure_model=seeded_failure_model(0.2, failure_seed)
    )
    # Same failure model, so both runs fail at the same points.
    negated = dataclasses.replace(objective, evaluator=lambda x: -objective.evaluator(x))
    config = TetraOptConfig(grid=grid, rank=rank, iterations=iterations, seed=seed)
    maximized = tetraopt_minimize(
        objective, dataclasses.replace(config, minimize=False), max_parallel=1
    )
    minimized = tetraopt_minimize(negated, config, max_parallel=1)
    assert maximized.total_calls == minimized.total_calls
    assert [(e.unique_calls_so_far, e.best_point) for e in maximized.events] == [
        (e.unique_calls_so_far, e.best_point) for e in minimized.events
    ]
    assert [e.best_value for e in maximized.events] == [-e.best_value for e in minimized.events]


class _Recording:
    """Objective proxy that records every point it is asked to evaluate."""

    def __init__(self, objective):
        self.objective = objective
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.objective, name)

    def evaluate(self, x):
        self.seen.append(tuple(float(v) for v in x))
        return self.objective.evaluate(x)


def _sequential_reference(objective, config):
    """The optimizer's passes run one after another through ``tt_cross``.

    Returns the evaluated points, the unique-call count, and the minimum
    over healthy points with the smallest index winning ties.
    """
    grid = config.grid
    cache: dict = {}
    failed = set()
    seen = set()

    def evaluate(indices):
        values = []
        for idx in indices:
            point = grid_point(grid, idx)
            seen.add(tuple(float(v) for v in point))
            try:
                value = objective.evaluate(point)
            except Exception:
                value = float("nan")
            if not np.isfinite(value):
                failed.add(idx)
                value = PENALTY_VALUE
            values.append(value)
        return values

    pass_seeds = np.random.default_rng(config.seed).integers(0, 2**63, size=config.iterations)
    for pass_seed in pass_seeds:
        tt_cross(evaluate, grid.shape, config.rank, 1, int(pass_seed), cache=cache)
    best_value, best_index = min((v, idx) for idx, v in cache.items() if idx not in failed)
    return seen, len(cache), best_value, tuple(float(v) for v in grid_point(grid, best_index))


@settings(max_examples=12, deadline=None)
@given(
    failure_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    iterations=st.integers(1, 3),
    max_parallel=st.sampled_from([1, 2]),
)
def test_lockstep_matches_sequential_passes(failure_seed, seed, iterations, max_parallel):
    objective = dataclasses.replace(
        benchmark("rastrigin", 4), failure_model=seeded_failure_model(0.1, failure_seed)
    )
    grid = SearchGrid([(lo, hi, 6) for lo, hi in objective.bounds])
    config = TetraOptConfig(grid=grid, rank=3, iterations=iterations, seed=seed)
    recording = _Recording(objective)
    trace = tetraopt_minimize(recording, config, max_parallel=max_parallel)
    assert (set(recording.seen), trace.total_calls, trace.best_value, trace.best_point) == (
        _sequential_reference(objective, config)
    )


class TestLockstepRounds:
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_each_point_evaluated_once(self, mixer_grid, iterations):
        recording = _Recording(mixer_objective())
        trace = tetraopt_minimize(
            recording,
            TetraOptConfig(grid=mixer_grid, iterations=iterations, seed=0),
            max_parallel=2,
        )
        assert len(recording.seen) == len(set(recording.seen)) == trace.total_calls

    def test_one_batch_per_round(self, mixer_grid, monkeypatch):
        batches = []
        original = tetraopt.optimizer.evaluate_batch

        def counted(objective, request, *args, **kwargs):
            batches.append(request.indices)
            return original(objective, request, *args, **kwargs)

        monkeypatch.setattr(tetraopt.optimizer, "evaluate_batch", counted)
        for seed in range(5):
            batches.clear()
            trace = tetraopt_minimize(
                mixer_objective(),
                TetraOptConfig(grid=mixer_grid, iterations=2, seed=seed),
                max_parallel=2,
            )
            # One round per core request of a single sweep: 2 * d - 1.
            assert len(batches) <= 2 * mixer_grid.dimension - 1
            merged = [idx for batch in batches for idx in batch]
            assert len(merged) == len(set(merged)) == trace.total_calls
            # Events carry the unique-call count at the end of a round.
            ends = set(np.cumsum([len(batch) for batch in batches]).tolist())
            assert trace.events
            assert all(event.unique_calls_so_far in ends for event in trace.events)


    @pytest.mark.parametrize("minimize", [True, False])
    def test_one_cache_per_run(self, mixer_grid, monkeypatch, minimize):
        caches = []
        original = tetraopt.optimizer.evaluate_batch

        def recorded(objective, request, *args, **kwargs):
            caches.append(kwargs.get("cache"))
            return original(objective, request, *args, **kwargs)

        monkeypatch.setattr(tetraopt.optimizer, "evaluate_batch", recorded)
        objective = dataclasses.replace(
            mixer_objective(), failure_model=seeded_failure_model(0.2, 3)
        )
        trace = tetraopt_minimize(
            objective,
            TetraOptConfig(grid=mixer_grid, iterations=2, seed=1, minimize=minimize),
            max_parallel=2,
        )
        assert caches and caches[0] is not None
        assert all(cache is caches[0] for cache in caches)
        assert len(caches[0]) == trace.total_calls


class TestTraceCsv:
    def test_header_and_rows(self, tmp_path, mixer_grid):
        trace = tetraopt_minimize(
            mixer_objective(), TetraOptConfig(grid=mixer_grid, seed=0), max_parallel=1
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "calls,wall_time_s,best_value,x0,x1,x2,x3"
        assert len(lines) == len(trace.events) + 1

    def test_empty_trace_rejected(self, tmp_path):
        from tetraopt import OptimizationTrace

        with pytest.raises(ValueError):
            OptimizationTrace().write_csv(tmp_path / "x.csv")


@pytest.mark.parametrize(
    "dim", [(0.0, float("inf"), 3), (float("-inf"), 0.0, 3), (float("nan"), 1.0, 3), (0.0, float("nan"), 1)]
)
def test_grid_rejects_non_finite_bounds(dim):
    with pytest.raises(ValueError, match="finite"):
        SearchGrid([(0.0, 1.0, 2), dim])


@pytest.mark.parametrize(
    "fields, name",
    [({"rank": 2.5}, "rank"), ({"iterations": 1.5}, "iterations"), ({"seed": -1}, "seed"),
     ({"seed": 0.5}, "seed"), ({"rank": True}, "rank")],
    ids=["rank_float", "iterations_float", "seed_negative", "seed_float", "rank_bool"],
)
def test_config_rejects_bad_counts_and_seeds(fields, name):
    grid = SearchGrid([(0.0, 1.0, 3)])
    with pytest.raises(ValueError, match=name):
        TetraOptConfig(grid=grid, **fields)


def test_config_accepts_numpy_integers():
    grid = SearchGrid([(0.0, 1.0, np.int64(3))])
    config = TetraOptConfig(grid=grid, rank=np.int32(2), iterations=np.int64(1), seed=np.uint8(4))
    assert (grid.shape, config.rank, config.iterations, config.seed) == ((3,), 2, 1, 4)
    assert all(type(n) is int for n in (grid.shape[0], config.rank, config.iterations, config.seed))


@pytest.mark.parametrize("points", [5.5, 5.0, "5"], ids=["fraction", "float", "text"])
def test_grid_rejects_non_integer_point_counts(points):
    with pytest.raises(ValueError, match="dimension 1: points"):
        SearchGrid([(0.0, 1.0, 2), (0.0, 1.0, points)])
