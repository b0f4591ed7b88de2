"""Batch evaluation of objectives with bounded concurrency and memoization.

The harness presents a blocking interface: a batch goes in, all its values
come back.  Points inside a batch run on at most ``workers`` threads, where
``workers`` is ``max_parallel`` clamped to the machine's logical core count
(which is what bounds throughput for real simulation workloads).  Each worker
takes the next unevaluated point when it finishes its previous one, so points
of uneven latency stay balanced, and writes the outcome into that point's
slot.  :func:`evaluate_point` is the one failure rule of both optimizers: a
raise, a return that is not a real number and a non-finite value all become
:data:`PENALTY_VALUE` and are flagged as failed, never raised.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .objectives import real_value, whole_number

PENALTY_VALUE = 1e30


def effective_parallelism(max_parallel: int | None) -> int:
    """Worker count: ``max_parallel`` (an integer >= 1) clamped to the core count.

    None means one worker per core; anything else that is not an integer
    >= 1 raises a ``ValueError`` naming ``max_parallel``.
    """
    cores = os.cpu_count() or 1
    if max_parallel is None:
        return cores
    return min(whole_number("max_parallel", max_parallel, 1), cores)


@dataclass
class BatchRequest:
    """Aligned grid indices and real-space points to evaluate together.

    An index is any hashable key naming its point: an int, a multi-index
    tuple, or the packed key (:func:`~tetraopt.cross.pack_keys`) the
    optimizer passes.  ``points`` is an ``(N, d)`` array or a sequence of
    ``N`` points; the objective gets one row or item per point.
    """

    indices: Sequence[Hashable]
    points: Sequence[np.ndarray] | np.ndarray

    def __post_init__(self):
        if len(self.indices) != len(self.points):
            raise ValueError("indices and points must be aligned")


@dataclass
class BatchResult:
    """Values aligned with the request, plus timing and failure bookkeeping.

    ``failures`` lists request positions whose evaluation failed under
    :func:`evaluate_point`; those positions hold ``PENALTY_VALUE``.
    ``served_from_cache`` counts positions answered without invoking the
    evaluator.
    """

    values: list[float]
    wall_time_s: float
    served_from_cache: int
    failures: list[int] = field(default_factory=list)


def evaluate_point(objective, point) -> tuple[float, bool]:
    """``(value, False)`` for a finite float ``value``, else ``(PENALTY_VALUE, True)``.

    A raise and a return that is not a real number (text that spells one
    included, see :func:`~tetraopt.objectives.real_value`) are failures too.
    """
    try:
        value = real_value(objective.evaluate(point))
    except Exception:
        return PENALTY_VALUE, True
    if not math.isfinite(value):
        return PENALTY_VALUE, True
    return value, False


def evaluate_batch(
    objective,
    request: BatchRequest,
    max_parallel: int | None = None,
    *,
    cache: dict | None = None,
    failed: set | None = None,
) -> BatchResult:
    """Evaluate a batch, deduplicating repeated indices.

    The objective runs once per distinct index, through :func:`evaluate_point`;
    duplicates within the batch and indices present in ``cache`` are served
    from memory, and every new value is written into ``cache``.  Failed
    indices are added to ``failed`` when given, and ``failures`` lists the
    positions whose index is in it.  The returned values do not depend on the
    order in which workers finish.
    """
    workers = effective_parallelism(max_parallel)
    cache = {} if cache is None else cache
    failed = set() if failed is None else failed
    start = time.perf_counter()

    todo: dict[Hashable, np.ndarray] = {}
    served_from_cache = 0
    for idx, point in zip(request.indices, request.points):
        if idx in cache:
            served_from_cache += 1
        else:
            todo.setdefault(idx, point)

    points = list(todo.values())
    if workers == 1 or len(points) <= 1:
        outcomes = [evaluate_point(objective, point) for point in points]
    else:
        outcomes = _pull(
            lambda point: evaluate_point(objective, point), points, min(workers, len(points))
        )
    for idx, (value, did_fail) in zip(todo, outcomes):
        cache[idx] = value
        if did_fail:
            failed.add(idx)

    return BatchResult(
        values=[cache[idx] for idx in request.indices],
        wall_time_s=time.perf_counter() - start,
        served_from_cache=served_from_cache,
        failures=[pos for pos, idx in enumerate(request.indices) if idx in failed],
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

    ``batch_size`` seeded points are drawn once, as one ``(batch_size, d)``
    array indexed ``0 .. batch_size - 1``; each level evaluates all of them
    with a fresh cache (no reuse across levels) and reports ``wall_time /
    batch_size``.  ``batch_size`` and every level are integers >= 1 and
    ``seed`` an integer >= 0; anything else raises a ``ValueError`` naming
    the field.
    """
    batch_size = whole_number("batch_size", batch_size, 1)
    parallelism_levels = [
        whole_number("parallelism_levels", level, 1) for level in parallelism_levels
    ]
    rng = np.random.default_rng(whole_number("seed", seed, 0))
    lows = np.array([b[0] for b in objective.bounds])
    highs = np.array([b[1] for b in objective.bounds])
    # One draw of batch_size * d numbers takes the stream in the order that
    # batch_size draws of d numbers would, so the points are the same.
    points = lows + rng.random((batch_size, objective.dimension)) * (highs - lows)
    request = BatchRequest(indices=range(batch_size), points=points)
    rows: list[tuple[int, float]] = []
    for level in parallelism_levels:
        result = evaluate_batch(objective, request, level)
        rows.append((level, result.wall_time_s / batch_size))
    return rows
