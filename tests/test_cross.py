import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import (
    EvaluationError,
    SampleLog,
    TensorTrain,
    cross_requests,
    pointwise_oracle,
    tensor_oracle,
    tt_cross,
    tt_eval_many,
    tt_full,
)
from tetraopt.cross import _select_pivots, initial_index_sets


def probe_error(source, approx, n_probes=1000, seed=99):
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.integers(0, n, n_probes) for n in source.mode_sizes], axis=1)
    truth = tt_eval_many(source, idx)
    guess = tt_eval_many(approx, idx)
    return float(np.max(np.abs(guess - truth)) / np.max(np.abs(truth)))


class TestRecovery:
    def test_exact_rank_one_product(self):
        oracle = pointwise_oracle(lambda idx: (idx[0] + 1) * (idx[1] + 1) * (idx[2] + 1))
        approx, log = tt_cross(oracle, [4, 4, 4], rank=1, sweeps=2, seed=0)
        dense = tt_full(approx)
        truth = np.fromfunction(lambda i, j, k: (i + 1) * (j + 1) * (k + 1), (4, 4, 4))
        assert np.max(np.abs(dense - truth)) / truth.max() <= 1e-10

    def test_random_rank_three_recovery(self):
        rng = np.random.default_rng(42)
        source = TensorTrain.random([8] * 5, 3, rng)
        approx, _ = tt_cross(tensor_oracle(source), [8] * 5, rank=3, sweeps=3, seed=7)
        assert probe_error(source, approx) <= 1e-8

    def test_single_mode_tensor(self):
        source = TensorTrain([np.arange(1.0, 7.0).reshape(1, 6, 1)])
        approx, log = tt_cross(tensor_oracle(source), [6], rank=2, sweeps=1, seed=0)
        np.testing.assert_allclose(tt_full(approx), np.arange(1.0, 7.0))
        assert log.unique_count == 6

    def test_constant_tensor_survives_degeneracy(self):
        oracle = pointwise_oracle(lambda idx: 7.0)
        approx, _ = tt_cross(oracle, [4, 4, 4], rank=2, sweeps=2, seed=1)
        np.testing.assert_allclose(tt_full(approx), 7.0, atol=1e-9)

    def test_unit_mode_sizes(self):
        source = TensorTrain.random([4, 1, 5], 2, np.random.default_rng(0))
        approx, _ = tt_cross(tensor_oracle(source), [4, 1, 5], rank=2, sweeps=2, seed=0)
        np.testing.assert_allclose(tt_full(approx), tt_full(source), atol=1e-12)

    def test_rank_above_shape_capacity(self):
        # Index-set sizes clip at what the mode products allow; the whole
        # 8-entry tensor gets sampled and reproduced.
        source = TensorTrain.random([2, 2, 2], 2, np.random.default_rng(0))
        approx, log = tt_cross(tensor_oracle(source), [2, 2, 2], rank=10, sweeps=2, seed=0)
        np.testing.assert_allclose(tt_full(approx), tt_full(source), atol=1e-12)
        assert max(approx.ranks) <= 2
        assert log.unique_count == 8


class TestBudget:
    def test_paper_shape_call_count(self):
        rng = np.random.default_rng(0)
        source = TensorTrain.random([5, 5, 5, 5], 4, rng)
        _, log = tt_cross(tensor_oracle(source), [5, 5, 5, 5], rank=4, sweeps=2, seed=0)
        # One sweep requests at most 2*d*n*r^2 entries, so with the budget
        # constant c=2 the unique-call count stays under c * I*d*n*r^2.
        assert log.unique_count <= 2 * 2 * 4 * 5 * 16

    def test_batch_sizes_bounded_by_mode_times_rank_squared(self):
        rng = np.random.default_rng(3)
        source = TensorTrain.random([6, 6, 6, 6], 3, rng)
        rank = 3
        _, log = tt_cross(tensor_oracle(source), [6] * 4, rank=rank, sweeps=2, seed=5)
        sizes: dict[int, int] = {}
        for _, _, batch_id in log.entries:
            sizes[batch_id] = sizes.get(batch_id, 0) + 1
        assert max(sizes.values()) <= 6 * rank * rank
        assert list(sizes) == sorted(sizes)

    def test_total_unique_bound_generic(self):
        for d, n, rank, sweeps in [(4, 5, 4, 2), (6, 8, 3, 2), (3, 10, 5, 1)]:
            rng = np.random.default_rng(d)
            source = TensorTrain.random([n] * d, rank, rng)
            _, log = tt_cross(tensor_oracle(source), [n] * d, rank, sweeps, seed=d)
            assert log.unique_count <= 2 * sweeps * d * n * rank * rank


class TestLog:
    def test_log_is_complete(self):
        seen = set()
        source = TensorTrain.random([5, 5, 5], 2, np.random.default_rng(1))
        inner = tensor_oracle(source)

        def recording(indices):
            seen.update(indices)
            return inner(indices)

        _, log = tt_cross(recording, [5, 5, 5], rank=2, sweeps=2, seed=2)
        logged = {idx for idx, _, _ in log.entries}
        assert seen <= logged
        assert log.unique_count == len(logged)

    def test_cached_repeats_counted_once(self):
        calls = []
        source = TensorTrain.random([5, 5, 5], 2, np.random.default_rng(4))
        inner = tensor_oracle(source)

        def counting(indices):
            calls.extend(indices)
            return inner(indices)

        _, log = tt_cross(counting, [5, 5, 5], rank=2, sweeps=3, seed=0)
        assert len(calls) == len(set(calls))
        assert log.unique_count == len(calls)

    def test_shared_cache_across_runs(self):
        source = TensorTrain.random([5, 5, 5], 2, np.random.default_rng(6))
        inner = tensor_oracle(source)
        evaluated = []

        def counting(indices):
            evaluated.extend(indices)
            return inner(indices)

        cache: dict = {}
        log = SampleLog()
        tt_cross(counting, [5, 5, 5], 2, 1, seed=0, cache=cache, log=log)
        first = len(evaluated)
        tt_cross(counting, [5, 5, 5], 2, 1, seed=1, cache=cache, log=log)
        assert len(evaluated) == len(set(evaluated))
        assert len(evaluated) < 2 * first
        assert log.unique_count == len(evaluated)

    def test_batch_ids_nondecreasing(self):
        source = TensorTrain.random([4, 4, 4], 2, np.random.default_rng(0))
        _, log = tt_cross(tensor_oracle(source), [4, 4, 4], 2, 2, seed=0)
        ids = [batch for _, _, batch in log.entries]
        assert ids == sorted(ids)


class TestDeterminism:
    def test_identical_runs_identical_output(self):
        source = TensorTrain.random([6, 6, 6, 6], 3, np.random.default_rng(2))
        a_tt, a_log = tt_cross(tensor_oracle(source), [6] * 4, 3, 2, seed=11)
        b_tt, b_log = tt_cross(tensor_oracle(source), [6] * 4, 3, 2, seed=11)
        assert a_log.entries == b_log.entries
        for ca, cb in zip(a_tt.cores, b_tt.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_different_seed_different_samples(self):
        source = TensorTrain.random([8, 8, 8, 8], 3, np.random.default_rng(2))
        _, a = tt_cross(tensor_oracle(source), [8] * 4, 3, 1, seed=0)
        _, b = tt_cross(tensor_oracle(source), [8] * 4, 3, 1, seed=1)
        assert {i for i, _, _ in a.entries} != {i for i, _, _ in b.entries}


class TestErrors:
    def test_failure_carries_index(self):
        bad = (1, 1, 1)

        def fn(idx):
            if idx == bad:
                raise RuntimeError("simulated solver crash")
            return float(sum(idx))

        with pytest.raises(EvaluationError) as err:
            tt_cross(pointwise_oracle(fn), [3, 3, 3], rank=3, sweeps=1, seed=0)
        assert err.value.index == bad

    def test_invalid_arguments(self):
        oracle = pointwise_oracle(lambda idx: 1.0)
        with pytest.raises(ValueError):
            tt_cross(oracle, [3, 3], rank=0, sweeps=1, seed=0)
        with pytest.raises(ValueError):
            tt_cross(oracle, [3, 3], rank=1, sweeps=0, seed=0)
        with pytest.raises(ValueError):
            tt_cross(oracle, [], rank=1, sweeps=1, seed=0)


class TestRequests:
    def test_yields_distinct_uncached_indices(self):
        source = TensorTrain.random([4, 5, 3, 4], 2, np.random.default_rng(4))
        oracle = tensor_oracle(source)
        cache: dict = {}
        requests = cross_requests([4, 5, 3, 4], 3, 2, 7, cache=cache, log=None)
        asked = []
        try:
            missing = next(requests)
            while True:
                assert missing, "an empty request was yielded"
                assert len(set(missing)) == len(missing)
                assert not any(idx in cache for idx in missing)
                asked.extend(missing)
                missing = requests.send(oracle(missing))
        except StopIteration as done:
            approx = done.value
        assert len(asked) == len(set(asked)) == len(cache)
        reference, log = tt_cross(oracle, [4, 5, 3, 4], 3, 2, seed=7)
        assert set(cache) == {idx for idx, _, _ in log.entries}
        for ca, cb in zip(approx.cores, reference.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_wrong_number_of_values_rejected(self):
        requests = cross_requests([3, 3, 3], 2, 1, 0, cache={}, log=None)
        missing = next(requests)
        with pytest.raises(ValueError, match="returned"):
            requests.send([0.0] * (len(missing) - 1))

    def test_short_evaluator_rejected_by_tt_cross(self):
        with pytest.raises(ValueError, match="returned"):
            tt_cross(lambda indices: [1.0] * (len(indices) + 1), [3, 3], 2, 1, seed=0)


class TestIndexSets:
    def test_initial_sets_respect_rank_and_shape(self):
        rng = np.random.default_rng(0)
        shape = [4, 5, 6, 3]
        sets = initial_index_sets(rng, shape, rank=3)
        assert len(sets.left_sets) == len(sets.right_sets) == 4
        assert sets.left_sets[0] == [()]
        for j, suffixes in enumerate(sets.right_sets):
            assert len(suffixes) <= 3
            assert len(set(suffixes)) == len(suffixes)
            for suffix in suffixes:
                assert len(suffix) == len(shape) - 1 - j
                for pos, value in enumerate(suffix):
                    assert 0 <= value < shape[j + 1 + pos]

    def test_tail_capped_by_space(self):
        rng = np.random.default_rng(0)
        sets = initial_index_sets(rng, [9, 2], rank=5)
        assert len(sets.right_sets[0]) == 2  # only two suffixes exist


def test_cross_interpolates_a_smooth_function():
    # Smooth low-rank-friendly function; moderate rank reaches 1e-6.
    def fn(idx):
        x, y, z = (i / 7 for i in idx)
        return math.exp(-x) * math.cos(2 * y) + 0.1 * x * z

    approx, _ = tt_cross(pointwise_oracle(fn), [8, 8, 8], rank=4, sweeps=3, seed=0)
    dense = tt_full(approx)
    rng = np.random.default_rng(5)
    for _ in range(200):
        idx = tuple(int(rng.integers(8)) for _ in range(3))
        expected = fn(idx)
        assert abs(dense[idx] - expected) <= 1e-6 * max(1.0, abs(expected))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), extra=st.integers(0, 40), data=st.data())
def test_deficient_pivots_do_not_depend_on_rounding(seed, m, extra, data):
    k = data.draw(st.integers(1, m - 1), label="rank")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m + extra, k)) @ rng.standard_normal((k, m))
    rows, coeffs = _select_pivots(a)
    noise = 1e-13 * np.abs(a).max() * rng.standard_normal(a.shape)
    assert _select_pivots(a + noise)[0] == rows
    rotation = np.linalg.qr(rng.standard_normal((m, m)))[0]
    assert _select_pivots(a @ rotation)[0] == rows

    assert rows == sorted(set(rows)) and len(rows) == m
    np.testing.assert_allclose(coeffs[rows], np.eye(m), atol=1e-12)
    np.testing.assert_allclose(coeffs @ a[rows], a, rtol=0, atol=1e-10 * np.abs(a).max())
