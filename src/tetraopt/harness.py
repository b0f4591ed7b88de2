"""Batch evaluation of objectives with bounded concurrency and memoization.

The harness presents a blocking interface: a batch goes in, all its values
come back.  Points inside a batch run on at most ``workers`` threads, where
``workers`` is ``max_parallel`` clamped to the machine's logical core count
(which is what bounds throughput for real simulation workloads).  Each worker
takes the next unevaluated point when it finishes its previous one, so points
of uneven latency stay balanced, and writes the outcome into that point's
slot.  Failed evaluations become a large penalty value and are flagged, never
raised.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .tt import MultiIndex

PENALTY_VALUE = 1e30


def effective_parallelism(max_parallel: int | None) -> int:
    cores = os.cpu_count() or 1
    if max_parallel is None:
        return cores
    if max_parallel < 1:
        raise ValueError("max_parallel must be >= 1")
    return min(int(max_parallel), cores)


@dataclass
class BatchRequest:
    """Aligned grid indices and real-space points to evaluate together."""

    batch_id: int
    indices: list[MultiIndex]
    points: list[np.ndarray]

    def __post_init__(self):
        if len(self.indices) != len(self.points):
            raise ValueError("indices and points must be aligned")


@dataclass
class BatchResult:
    """Values aligned with the request, plus timing and failure bookkeeping.

    ``failures`` lists request positions whose evaluation raised or returned
    a non-finite value; those positions hold the penalty value.
    ``served_from_cache`` counts positions answered without invoking the
    evaluator.
    """

    values: list[float]
    wall_time_s: float
    served_from_cache: int
    failures: list[int] = field(default_factory=list)


def evaluate_batch(
    objective,
    request: BatchRequest,
    max_parallel: int | None = None,
    *,
    cache: dict | None = None,
    failed: set | None = None,
    penalty: float = PENALTY_VALUE,
) -> BatchResult:
    """Evaluate a batch, deduplicating repeated indices and applying penalties.

    The evaluator runs once per distinct index; duplicates within the batch
    and indices present in ``cache`` are served from memory.  Exceptions are
    converted to ``penalty`` and reported in ``failures`` (and recorded in
    ``failed`` when given) rather than aborting the batch.  The returned
    values do not depend on the order in which workers finish.
    """
    workers = effective_parallelism(max_parallel)
    cache = {} if cache is None else cache
    start = time.perf_counter()

    positions: dict[MultiIndex, list[int]] = {}
    first_point: dict[MultiIndex, np.ndarray] = {}
    served_from_cache = 0
    for pos, (idx, point) in enumerate(zip(request.indices, request.points)):
        if idx in cache:
            served_from_cache += 1
        positions.setdefault(idx, []).append(pos)
        first_point.setdefault(idx, point)
    todo = [idx for idx in positions if idx not in cache]

    def run_one(idx: MultiIndex) -> tuple[float, bool]:
        try:
            value = objective.evaluate(first_point[idx])
        except Exception:
            return penalty, True
        if not np.isfinite(value):
            return penalty, True
        return float(value), False

    failed_positions: set[int] = set()
    if todo:
        if workers == 1 or len(todo) == 1:
            outcomes = [run_one(idx) for idx in todo]
        else:
            outcomes = _pull(run_one, todo, min(workers, len(todo)))
        for idx, (value, did_fail) in zip(todo, outcomes):
            cache[idx] = value
            if did_fail:
                if failed is not None:
                    failed.add(idx)
                failed_positions.update(positions[idx])
    if failed:
        for idx, spots in positions.items():
            if idx in failed:
                failed_positions.update(spots)

    values = [0.0] * len(request.indices)
    for idx, spots in positions.items():
        for pos in spots:
            values[pos] = cache[idx]
    return BatchResult(
        values=values,
        wall_time_s=time.perf_counter() - start,
        served_from_cache=served_from_cache,
        failures=sorted(failed_positions),
    )


def _pull(run_one, todo: list, workers: int) -> list:
    """``[run_one(item) for item in todo]`` on ``workers`` threads.

    Each thread repeatedly claims the next unclaimed position and stores its
    outcome in that position's slot, so the result is in ``todo`` order
    whatever order the threads finish in.
    """
    outcomes: list = [None] * len(todo)
    unclaimed = iter(range(len(todo)))
    claim = threading.Lock()

    def drain() -> None:
        while True:
            with claim:
                pos = next(unclaimed, None)
            if pos is None:
                return
            outcomes[pos] = run_one(todo[pos])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(drain) for _ in range(workers)]
    for task in tasks:
        task.result()
    return outcomes


def parallel_scaling_report(
    objective,
    batch_size: int,
    parallelism_levels: list[int],
    *,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Wall time per evaluation at each parallelism level.

    Each level evaluates a fresh batch of ``batch_size`` seeded points (no
    cache reuse across levels) and reports ``wall_time / batch_size``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if any(level < 1 for level in parallelism_levels):
        raise ValueError("parallelism levels must be >= 1")
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in objective.bounds])
    highs = np.array([b[1] for b in objective.bounds])
    points = [lows + rng.random(objective.dimension) * (highs - lows) for _ in range(batch_size)]
    rows: list[tuple[int, float]] = []
    for level_pos, level in enumerate(parallelism_levels):
        request = BatchRequest(
            batch_id=level_pos,
            indices=[(level_pos, i) for i in range(batch_size)],
            points=points,
        )
        result = evaluate_batch(objective, request, level, cache={})
        rows.append((level, result.wall_time_s / batch_size))
    return rows
