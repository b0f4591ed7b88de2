"""One write per sampled value: the harness fills the cache, and passes resume by reading it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tetraopt.optimizer
from tetraopt import (
    SampleLog,
    SearchGrid,
    TensorTrain,
    TetraOptConfig,
    benchmark,
    cross_requests,
    mixer_objective,
    seeded_failure_model,
    tensor_oracle,
    tetraopt_minimize,
)
from tetraopt.cross import IndexCache


class _CountingCache(IndexCache):
    """An :class:`IndexCache` that counts every value written into it."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = 0
        self.made.append(self)

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def update(self, items=(), **kwargs):
        items = list(items.items() if isinstance(items, dict) else items)
        self.writes += len(items) + len(kwargs)
        super().update(items, **kwargs)


def _rastrigin():
    objective = benchmark("rastrigin", 6)
    grid = SearchGrid([(lo, hi, 8) for lo, hi in objective.bounds])
    return objective, TetraOptConfig(grid=grid, rank=3, iterations=2, seed=0)


def _failing_mixer(mixer_grid):
    objective = dataclasses.replace(mixer_objective(), failure_model=seeded_failure_model(0.2, 3))
    return objective, TetraOptConfig(grid=mixer_grid, iterations=3, seed=1)


@pytest.mark.parametrize("problem", [_rastrigin, _failing_mixer])
def test_optimizer_writes_each_sampled_value_once(problem, mixer_grid, monkeypatch):
    objective, config = problem() if problem is _rastrigin else problem(mixer_grid)
    made = []
    monkeypatch.setattr(_CountingCache, "made", made)
    monkeypatch.setattr(tetraopt.optimizer, "IndexCache", _CountingCache)
    trace = tetraopt_minimize(objective, config, max_parallel=2)
    assert len(made) == 1
    assert made[0].writes == len(made[0]) == trace.total_calls


def _drive(source, shape, rank, seeds, *, fill):
    """Run one pass per seed in lockstep over one :class:`IndexCache`.

    Each round's values go into the cache before any pass resumes.  With
    ``fill`` the passes then resume with ``next``; without it each is sent
    its own values as well.  Returns what each pass asked, its train, its
    log entries and the cache.
    """
    oracle = tensor_oracle(source)
    cache = IndexCache()
    logs = [SampleLog() for _ in seeds]
    passes = [
        cross_requests(shape, rank, 1, s, cache=cache, log=log) for s, log in zip(seeds, logs)
    ]
    asked = [[] for _ in seeds]
    trains = [None] * len(seeds)
    pending = {k: None for k in range(len(seeds))}
    while pending:
        for k in list(pending):
            try:
                values = pending[k]
                pending[k] = next(passes[k]) if values is None else passes[k].send(values)
            except StopIteration as done:
                trains[k] = done.value
                del pending[k]
        if not pending:
            break
        for k, request in pending.items():
            asked[k].append(list(request.keys))
        merged = {}
        for request in pending.values():
            for key, row in zip(request.keys, request.array):
                merged.setdefault(key, row)
        cache.update(zip(merged, oracle(np.array(list(merged.values()))).tolist()))
        for k, request in pending.items():
            pending[k] = None if fill else [cache[key] for key in request.keys]
    return asked, trains, [log.entries for log in logs], cache


small_trains = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 2**16),
)


@settings(max_examples=30, deadline=None)
@given(train=small_trains, rank=st.integers(1, 3), seeds=st.lists(st.integers(0, 99), min_size=2, max_size=2))
def test_resuming_from_the_cache_matches_sending_values(train, rank, seeds):
    shape, train_rank, train_seed = train
    source = TensorTrain.random(shape, train_rank, np.random.default_rng(train_seed))
    read = _drive(source, shape, rank, seeds, fill=True)
    sent = _drive(source, shape, rank, seeds, fill=False)
    assert read[0] == sent[0]
    assert read[2] == sent[2]
    assert read[3] == sent[3]
    for a, b in zip(read[1], sent[1]):
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)


def test_resume_without_cached_values_is_refused():
    cache = IndexCache()
    requests = cross_requests([3, 3, 3], 2, 1, 0, cache=cache, log=None)
    missing = next(requests)
    cache.update(zip(missing.keys[1:], [0.0] * (len(missing) - 1)))
    with pytest.raises(ValueError, match=f"1 of {len(missing)} values not in the cache"):
        next(requests)


def test_resume_without_values_over_a_dict():
    cache: dict = {}
    requests = cross_requests([3, 3], 1, 1, 0, cache=cache, log=None)
    next(requests)
    with pytest.raises(ValueError, match="not in the cache"):
        next(requests)
