"""Packed index keys, the array-backed batch and the one evaluation cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import SampleLog, TensorTrain, cross_requests, tensor_oracle, tt_cross
from tetraopt.cross import IndexBatch, IndexCache, pack_keys, unpack_keys


@st.composite
def index_rows(draw, max_rows=30):
    """An (N, d) intp array of grid indices for a random shape."""
    shape = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    n_rows = draw(st.integers(0, max_rows))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.integers(0, n, size=n_rows) for n in shape], axis=1)
    return rows.astype(np.intp).reshape(n_rows, len(shape))


@settings(max_examples=100, deadline=None)
@given(rows=index_rows())
def test_unpacking_a_key_gives_back_its_row(rows):
    keys = pack_keys(rows)
    assert all(isinstance(key, bytes) for key in keys)
    np.testing.assert_array_equal(unpack_keys(keys, rows.shape[1]), rows)
    for key, row in zip(keys, rows):
        np.testing.assert_array_equal(unpack_keys([key], rows.shape[1])[0], row)


@settings(max_examples=100, deadline=None)
@given(rows=index_rows())
def test_keys_sort_like_tuples(rows):
    tuples = list(map(tuple, rows.tolist()))
    keys = pack_keys(rows)
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    assert [tuples[pos] for pos in by_key] == sorted(tuples)


@settings(max_examples=100, deadline=None)
@given(rows=index_rows())
def test_distinct_rows_give_distinct_keys(rows):
    keys = pack_keys(rows)
    assert len(set(keys)) == len(set(map(tuple, rows.tolist())))


@settings(max_examples=50, deadline=None)
@given(rows=index_rows())
def test_index_batch_reads_as_tuples(rows):
    batch = IndexBatch(rows, pack_keys(rows))
    tuples = list(map(tuple, rows.tolist()))
    assert len(batch) == len(tuples)
    assert list(batch) == tuples
    assert [batch[pos] for pos in range(len(batch))] == tuples
    assert list(batch[1:]) == tuples[1:]


def test_index_batch_array_skips_iteration(monkeypatch):
    rows = np.array([[0, 3, 1], [2, 0, 4]], dtype=np.intp)
    batch = IndexBatch(rows, pack_keys(rows))

    def refuse(self):
        raise AssertionError("__iter__ was called")

    monkeypatch.setattr(IndexBatch, "__iter__", refuse)
    assert np.asarray(batch, dtype=np.intp) is rows
    assert np.asarray(batch) is rows
    copied = np.array(batch, dtype=np.intp, copy=True)
    assert copied is not rows
    np.testing.assert_array_equal(copied, rows)


def test_keys_out_of_range_rejected():
    with pytest.raises(ValueError, match="indices"):
        pack_keys(np.array([[0, -1]]))
    with pytest.raises(ValueError, match="indices"):
        pack_keys(np.array([[2**32, 0]], dtype=np.int64))


def test_mode_of_size_two_to_the_32_rejected():
    requests = cross_requests([3, 2**32], 2, 1, 0, cache=None, log=None)
    with pytest.raises(ValueError, match="mode sizes"):
        next(requests)


def test_sample_log_extend_takes_tuples():
    log = SampleLog()
    batch = log.new_batch()
    log.extend([(1, 2), (0, 5), (1, 2)], [0.5, -1.0, 0.5], batch)
    assert log.unique_count == 2
    assert log.entries == [((1, 2), 0.5, 0), ((0, 5), -1.0, 0), ((1, 2), 0.5, 0)]
    log.extend([(3, 3)], [2.0], log.new_batch())
    assert log.entries[-1] == ((3, 3), 2.0, 1)
    assert log.unique_count == 3


small_trains = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.integers(1, 3),
    st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(train=small_trains, rank=st.integers(1, 4), sweeps=st.integers(1, 2), seed=st.integers(0, 99))
def test_dict_cache_matches_packed_cache(train, rank, sweeps, seed):
    shape, train_rank, train_seed = train
    source = TensorTrain.random(shape, train_rank, np.random.default_rng(train_seed))
    packed_tt, packed_log = tt_cross(tensor_oracle(source), shape, rank, sweeps, seed)
    cache: dict = {}
    dict_tt, dict_log = tt_cross(tensor_oracle(source), shape, rank, sweeps, seed, cache=cache)
    for a, b in zip(packed_tt.cores, dict_tt.cores):
        np.testing.assert_array_equal(a, b)
    assert packed_log.entries == dict_log.entries
    assert packed_log.unique_count == dict_log.unique_count == len(cache)
    assert cache == {idx: value for idx, value, _ in dict_log.entries}


def _lockstep(source, shape, rank, seeds, cache):
    """Run one generator per seed in lockstep over ``cache``; what each asked and returned."""
    oracle = tensor_oracle(source)
    logs = [SampleLog() for _ in seeds]
    passes = [
        cross_requests(shape, rank, 1, s, cache=cache, log=log) for s, log in zip(seeds, logs)
    ]
    asked = [[] for _ in seeds]
    pending = {}
    for k, p in enumerate(passes):
        try:
            pending[k] = next(p)
        except StopIteration:
            pass
    trains = {}
    values = {}
    while pending:
        merged = list(dict.fromkeys(idx for batch in pending.values() for idx in batch))
        values.update(zip(merged, oracle(np.array(merged, dtype=np.intp))))
        for k in list(pending):
            asked[k].append(list(pending[k]))
            try:
                pending[k] = passes[k].send([values[idx] for idx in pending[k]])
            except StopIteration as done:
                trains[k] = done.value
                del pending[k]
    return asked, [trains[k] for k in range(len(seeds))], [log.entries for log in logs]


@settings(max_examples=30, deadline=None)
@given(train=small_trains, rank=st.integers(1, 3), seeds=st.lists(st.integers(0, 99), min_size=2, max_size=2))
def test_lockstep_over_a_dict_matches_an_index_cache(train, rank, seeds):
    shape, train_rank, train_seed = train
    source = TensorTrain.random(shape, train_rank, np.random.default_rng(train_seed))
    shared: dict = {}
    over_dict = _lockstep(source, shape, rank, seeds, shared)
    over_cache = _lockstep(source, shape, rank, seeds, IndexCache())
    assert over_dict[0] == over_cache[0]
    assert over_dict[2] == over_cache[2]
    for a, b in zip(over_dict[1], over_cache[1]):
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)
    assert set(shared) == {idx for entries in over_dict[2] for idx, _, _ in entries}
