import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import (
    PENALTY_VALUE,
    BatchRequest,
    BatchResult,
    BlackBoxObjective,
    benchmark,
    evaluate_batch,
    parallel_scaling_report,
    seeded_failure_model,
    with_latency,
)
from tetraopt.harness import _pull, effective_parallelism

CORES = os.cpu_count() or 1


def counting_objective(dimension=2):
    calls = []
    lock = threading.Lock()

    def evaluator(x):
        with lock:
            calls.append(tuple(x))
        return float(np.sum(x))

    obj = BlackBoxObjective(
        name="counting",
        dimension=dimension,
        bounds=tuple((0.0, 1.0) for _ in range(dimension)),
        evaluator=evaluator,
    )
    return obj, calls


def request_for(indices, points, batch_id=0):
    return BatchRequest(batch_id=batch_id, indices=indices, points=points)


class TestEvaluateBatch:
    def test_duplicates_evaluated_once(self):
        obj, calls = counting_objective(1)
        request = request_for([(0,), (1,), (0,), (1,), (0,)], [np.array([0.1])] * 5)
        result = evaluate_batch(obj, request, max_parallel=1)
        assert len(calls) == 2
        assert len(result.values) == 5
        assert result.values[0] == result.values[2] == result.values[4]

    def test_cache_served_across_batches(self):
        obj, calls = counting_objective(1)
        cache: dict = {}
        first = request_for([(0,), (1,)], [np.array([0.0]), np.array([1.0])])
        evaluate_batch(obj, first, 1, cache=cache)
        second = request_for([(1,), (2,)], [np.array([1.0]), np.array([2.0])], batch_id=1)
        result = evaluate_batch(obj, second, 1, cache=cache)
        assert len(calls) == 3  # (1,) came from cache
        assert result.served_from_cache == 1

    def test_parallel_speedup_with_latency(self):
        delay = 0.05
        obj = with_latency(benchmark("quadratic", 1), delay)
        points = [np.array([k / 32]) for k in range(32)]
        request = request_for([(k,) for k in range(32)], points)
        serial_per_point = delay  # lower bound by construction
        result = evaluate_batch(obj, request, max_parallel=8)
        workers = effective_parallelism(8)
        expected = math.ceil(32 / workers) * delay
        assert result.wall_time_s >= expected * 0.9
        assert result.wall_time_s <= expected * 1.8 + 0.2
        effective = result.wall_time_s / 32
        if workers >= 4:
            assert effective <= 0.3 * serial_per_point
        else:
            assert effective <= 1.2 * serial_per_point / workers

    def test_failure_isolated_with_penalty(self):
        def evaluator(x):
            return float(x[0])

        bad_point = 3

        def failure_model(x):
            return bool(abs(x[0] - bad_point) < 1e-9)

        obj = BlackBoxObjective(
            name="flaky",
            dimension=1,
            bounds=((0.0, 10.0),),
            evaluator=evaluator,
            failure_model=failure_model,
        )
        indices = [(k,) for k in range(6)]
        points = [np.array([float(k)]) for k in range(6)]
        failed: set = set()
        result = evaluate_batch(obj, request_for(indices, points), 2, failed=failed)
        assert result.failures == [bad_point]
        assert result.values[bad_point] == PENALTY_VALUE
        for k in range(6):
            if k != bad_point:
                assert result.values[k] == float(k)
        assert failed == {(bad_point,)}

    def test_non_finite_return_gets_penalty(self):
        def evaluator(x):
            return float("nan") if x[0] > 1.5 else float(x[0])

        obj = BlackBoxObjective(
            name="nan-prone",
            dimension=1,
            bounds=((0.0, 4.0),),
            evaluator=evaluator,
        )
        indices = [(k,) for k in range(4)]
        points = [np.array([float(k)]) for k in range(4)]
        failed: set = set()
        result = evaluate_batch(obj, request_for(indices, points), 2, failed=failed)
        assert result.failures == [2, 3]
        assert result.values[2] == PENALTY_VALUE
        assert result.values[3] == PENALTY_VALUE
        assert result.values[:2] == [0.0, 1.0]

    def test_every_failure_kind_gets_penalty(self, half_broken):
        indices = [(0,), (1,), (2,), (0,)]
        points = [np.array([0.25]), np.array([0.75]), np.array([1.0]), np.array([0.25])]
        failed: set = set()
        result = evaluate_batch(half_broken, request_for(indices, points), 2, failed=failed)
        assert result.values == [PENALTY_VALUE, 0.75, 1.0, PENALTY_VALUE]
        assert result.failures == [0, 3]
        assert failed == {(0,)}

    def test_order_independence_under_random_delays(self):
        rng = np.random.default_rng(0)
        delays = {k: float(rng.random() * 0.01) for k in range(12)}

        def evaluator(x):
            time.sleep(delays[int(x[0])])
            return float(x[0]) ** 2

        obj = BlackBoxObjective(
            name="jittery",
            dimension=1,
            bounds=((0.0, 20.0),),
            evaluator=evaluator,
        )
        indices = [(k,) for k in range(12)]
        points = [np.array([float(k)]) for k in range(12)]
        results = [
            evaluate_batch(obj, request_for(indices, points, batch_id=i), 4, cache={}).values
            for i in range(3)
        ]
        assert results[0] == results[1] == results[2]

    def test_worker_threads_bounded(self):
        seen = set()
        lock = threading.Lock()

        def evaluator(x):
            with lock:
                seen.add(threading.get_ident())
            time.sleep(0.002)
            return float(x[0])

        obj = BlackBoxObjective(
            name="thread-recording", dimension=1, bounds=((0.0, 30.0),), evaluator=evaluator
        )
        indices = [(k,) for k in range(24)]
        points = [np.array([float(k)]) for k in range(24)]
        for max_parallel in sorted({1, 2, 3, CORES, 4 * CORES}):
            seen.clear()
            evaluate_batch(obj, request_for(indices, points), max_parallel, cache={})
            assert 1 <= len(seen) <= effective_parallelism(max_parallel)
            if max_parallel == 1:
                assert seen == {threading.get_ident()}
        seen.clear()
        evaluate_batch(obj, request_for(indices[:1], points[:1]), 4 * CORES, cache={})
        assert seen == {threading.get_ident()}

    def test_pull_claims_every_position_once_under_contention(self):
        claims = [0] * 3000
        lock = threading.Lock()

        def run_one(pos):
            with lock:
                claims[pos] += 1
            return -pos

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = _pull(run_one, list(range(len(claims))), 8)
        finally:
            sys.setswitchinterval(interval)
        assert claims == [1] * len(claims)
        assert outcomes == [-pos for pos in range(len(claims))]

    def test_alignment_validation(self):
        with pytest.raises(ValueError, match="aligned"):
            BatchRequest(batch_id=0, indices=[(0,)], points=[])

    def test_result_dataclass_shape(self):
        result = BatchResult(values=[1.0], wall_time_s=0.0, served_from_cache=0)
        assert result.failures == []


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=30),
    cached=st.sets(st.integers(0, 11), max_size=6),
    pre_failed=st.sets(st.integers(0, 11), max_size=3),
    nan_at=st.sets(st.integers(0, 11), max_size=4),
    failure_seed=st.integers(0, 2**16),
)
def test_results_independent_of_parallelism(picks, cached, pre_failed, nan_at, failure_seed):
    def evaluator(x):
        k = int(x[0])
        time.sleep(1e-4 * (k % 3))
        return float("nan") if k in nan_at else float(k) ** 2 - 3.0

    obj = BlackBoxObjective(
        name="mixed",
        dimension=1,
        bounds=((0.0, 11.0),),
        evaluator=evaluator,
        failure_model=seeded_failure_model(0.3, failure_seed),
    )
    indices = [(k,) for k in picks]
    points = [np.array([float(k)]) for k in picks]
    runs = []
    for max_parallel in (1, 2):
        cache = {(k,): -float(k) for k in cached}
        failed = {(k,) for k in pre_failed}
        result = evaluate_batch(
            obj, request_for(indices, points), max_parallel, cache=cache, failed=failed
        )
        runs.append((result.values, result.failures, result.served_from_cache, cache, failed))
    assert runs[0] == runs[1]


class TestScalingReport:
    def test_one_row_per_level_and_serial_time(self):
        obj = with_latency(benchmark("quadratic", 2), 0.05)
        rows = parallel_scaling_report(obj, batch_size=8, parallelism_levels=[1, 2])
        assert [level for level, _ in rows] == [1, 2]
        level1 = rows[0][1]
        assert level1 == pytest.approx(0.05, rel=0.2)

    def test_monotone_then_plateau(self):
        obj = with_latency(benchmark("quadratic", 2), 0.05)
        levels = sorted({1, CORES, 2 * CORES, 4 * CORES})
        rows = dict(parallel_scaling_report(obj, batch_size=16, parallelism_levels=levels))
        assert rows[CORES] <= rows[1] * 1.15
        # Beyond the core count the worker pool is clamped, so the effective
        # time flattens out.
        assert rows[4 * CORES] >= rows[CORES] * 0.85

    def test_invalid_levels(self):
        obj = with_latency(benchmark("quadratic", 2), 0.01)
        with pytest.raises(ValueError):
            parallel_scaling_report(obj, 4, [0])
        with pytest.raises(ValueError):
            parallel_scaling_report(obj, 0, [1])
