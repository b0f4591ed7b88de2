"""The trace's events are the running minimum of (value, index) over the rounds' healthy points."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tetraopt.optimizer
from tetraopt import BlackBoxObjective, seeded_failure_model
from tetraopt.optimizer import SearchGrid, TetraOptConfig, tetraopt_minimize

axis_specs = st.tuples(
    st.floats(-10, 10), st.floats(0.1, 20), st.integers(1, 5)
).map(lambda spec: (spec[0], spec[0] + spec[1], spec[2]))


def _landscape(grid: SearchGrid, coef_seed: int, failure_seed: int) -> BlackBoxObjective:
    """A seeded function over ``grid``'s box, rounded so equal values are common, 20% failing."""
    rng = np.random.default_rng(coef_seed)
    amp, freq = rng.normal(size=grid.dimension), rng.uniform(0.2, 2.0, size=grid.dimension)
    return BlackBoxObjective(
        name="landscape",
        dimension=grid.dimension,
        bounds=grid.bounds,
        evaluator=lambda x: round(float(np.sum(amp * np.cos(freq * x))), 1),
        failure_model=seeded_failure_model(0.2, failure_seed),
    )


def _recorded_run(objective, config):
    """The run's trace and, per round, its keys, points, values, failed positions and call count."""
    rounds = []
    evaluate_batch = tetraopt.optimizer.evaluate_batch

    def recording(objective, request, max_parallel, *, cache):
        result = evaluate_batch(objective, request, max_parallel, cache=cache)
        rounds.append((
            list(request.indices),
            np.array(request.points),
            list(result.values),
            set(result.failures),
            len(cache),
        ))
        return result

    with mock.patch.object(tetraopt.optimizer, "evaluate_batch", recording):
        trace = tetraopt_minimize(objective, config, max_parallel=1)
    return trace, rounds


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(axis_specs, min_size=1, max_size=4),
    rank=st.integers(1, 3),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    coef_seed=st.integers(0, 2**16),
    failure_seed=st.integers(0, 2**16),
    minimize=st.booleans(),
)
def test_events_replay_the_rounds(dims, rank, iterations, seed, coef_seed, failure_seed, minimize):
    grid = SearchGrid(dims)
    config = TetraOptConfig(
        grid=grid, rank=rank, iterations=iterations, seed=seed, minimize=minimize
    )
    trace, rounds = _recorded_run(_landscape(grid, coef_seed, failure_seed), config)

    # Values in a round are those the optimizer minimized: negated when it maximizes.
    best, expected = (math.inf, b""), []
    for keys, points, values, failures, calls in rounds:
        healthy = [(values[pos], keys[pos], pos) for pos in range(len(keys)) if pos not in failures]
        if healthy and min(healthy)[:2] < best:
            value, key, pos = min(healthy)
            best = (value, key)
            expected.append((calls, value if minimize else -value, tuple(map(float, points[pos]))))

    assert [(e.unique_calls_so_far, e.best_value, e.best_point) for e in trace.events] == expected
    assert trace.total_calls == rounds[-1][-1]
