"""Pinned digests of sampled sets, cores and a trace.

``tests/data/cross_golden.json`` holds sha256 digests of two ``tt_cross``
runs (every log entry and every core byte) and of one ``tetraopt_minimize``
trace (every event but its wall time).  Any change to which indices the
cross asks for, in what batches, with what values, or to the pivots and
cores built from them, changes a digest.  Regenerate the file only for a
change that is meant to move the sampled sets:

    PYTHONPATH=src python tests/test_golden.py > tests/data/cross_golden.json
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tetraopt import (
    SearchGrid,
    TensorTrain,
    TetraOptConfig,
    benchmark,
    pointwise_oracle,
    seeded_failure_model,
    tensor_oracle,
    tetraopt_minimize,
    tt_cross,
)

GOLDEN = Path(__file__).parent / "data" / "cross_golden.json"


def _cross_digest(approx, log) -> str:
    h = hashlib.sha256()
    indices = [idx for idx, _, _ in log.entries]
    h.update(np.array(indices, dtype=np.int64).tobytes())
    h.update(np.array([v for _, v, _ in log.entries], dtype=np.float64).tobytes())
    h.update(np.array([b for _, _, b in log.entries], dtype=np.int64).tobytes())
    h.update(str(log.unique_count).encode())
    for core in approx.cores:
        h.update(str(core.shape).encode())
        h.update(np.ascontiguousarray(core).tobytes())
    return h.hexdigest()


def signed_train_cross() -> str:
    """A signed rank-3 train on [7, 5, 6, 4, 8], fresh cache and log."""
    source = TensorTrain.random([7, 5, 6, 4, 8], 3, np.random.default_rng(2024))
    return _cross_digest(*tt_cross(tensor_oracle(source), source.mode_sizes, 3, 2, seed=17))


def pointwise_dict_cross() -> str:
    """A smooth function on [6, 9, 5, 7] through a caller's dict cache, two runs, one log."""

    def fn(idx):
        x = [i / 5 for i in idx]
        return math.sin(x[0] + 2 * x[1]) * math.exp(-x[2]) + 0.3 * x[3] * x[0]

    cache: dict = {}
    approx, log = tt_cross(pointwise_oracle(fn), [6, 9, 5, 7], 3, 1, seed=4, cache=cache)
    approx, log = tt_cross(pointwise_oracle(fn), [6, 9, 5, 7], 4, 2, seed=5, cache=cache, log=log)
    digest = _cross_digest(approx, log)
    return hashlib.sha256(
        (digest + repr(sorted(cache.items()))).encode()
    ).hexdigest()


def optimizer_trace() -> str:
    """Rastrigin in 5-D with 10% seeded failures, 7 points per axis, 3 passes."""
    objective = dataclasses.replace(
        benchmark("rastrigin", 5), failure_model=seeded_failure_model(0.1, 3)
    )
    grid = SearchGrid([(lo, hi, 7) for lo, hi in objective.bounds])
    trace = tetraopt_minimize(
        objective, TetraOptConfig(grid=grid, rank=3, iterations=3, seed=5), max_parallel=1
    )
    record = [trace.total_calls] + [
        [e.unique_calls_so_far, e.best_value.hex(), [x.hex() for x in e.best_point]]
        for e in trace.events
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


CASES = {
    "signed_train_cross": signed_train_cross,
    "pointwise_dict_cross": pointwise_dict_cross,
    "optimizer_trace": optimizer_trace,
}


def test_sampled_sets_match_the_pinned_digests():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    assert {name: make() for name, make in CASES.items()} == pinned


if __name__ == "__main__":
    print(json.dumps({name: make() for name, make in CASES.items()}, indent=2))
