"""parallel_scaling_report: the points it evaluates and the memory it holds per point."""

import tracemalloc

import numpy as np
import pytest

from tetraopt import BlackBoxObjective, parallel_scaling_report
from tetraopt.cli import _POINT_OVERHEAD_BYTES


def recording_objective(bounds):
    seen = []  # list.append is atomic, so worker threads may share it

    def evaluator(x):
        seen.append(x.tobytes())
        return 0.0

    return BlackBoxObjective("recorded", len(bounds), bounds, evaluator), seen


@pytest.mark.parametrize("batch_size", [1, 2, 57])
@pytest.mark.parametrize("seed", [0, 11])
def test_points_are_those_of_one_draw_per_point(batch_size, seed):
    bounds = ((-2.0, 3.0), (0.5, 0.75), (10.0, 20.0))
    objective, seen = recording_objective(bounds)
    levels = [1, 2]
    parallel_scaling_report(objective, batch_size, levels, seed=seed)

    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    drawn = [lows + rng.random(len(bounds)) * (highs - lows) for _ in range(batch_size)]
    expected = sorted(point.tobytes() for point in drawn)
    # Each level evaluates every point once: at parallelism 1 in draw order.
    assert seen[:batch_size] == [point.tobytes() for point in drawn]
    assert sorted(seen[batch_size:]) == expected


@pytest.mark.parametrize("d", [1, 8])
def test_peak_per_point_is_within_the_cli_count(d):
    # 43,691 points sit just past a dict resize, where a point costs the most.
    batch_size = 43_691
    objective = BlackBoxObjective("zero", d, ((0.0, 1.0),) * d, lambda x: 0.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parallel_scaling_report(objective, batch_size, [1, 2], seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / batch_size < _POINT_OVERHEAD_BYTES + 8 * d
