"""Grid discretization and the tensor-train optimization loop.

The optimizer lays a uniform grid over the search box and runs
``iterations`` cross-interpolation passes against the objective (fresh
random index sets each time, one shared evaluation cache).  The passes run
in lockstep: each round merges the cache misses of every live pass into one
batch, evaluates it, caches the values, and only then resumes the passes.
The incumbent is the best value over every point the passes touched.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cross import cross_requests
from .cross import tt_cross  # noqa: F401  -- bench/layers.py patches this name
from .harness import BatchRequest, evaluate_batch
from .objectives import BlackBoxObjective
from .trace import OptimizationTrace, TraceEvent
from .tt import MultiIndex


@dataclass(frozen=True)
class SearchGrid:
    """Per-dimension (lower, upper, points) with a uniform coordinate rule.

    Index ``k`` in a dimension maps to ``lower + k * (upper - lower) /
    (points - 1)``; the extreme indices land exactly on the box corners.  A
    single-point dimension maps index 0 to ``lower``.  :meth:`points` maps a
    whole batch of multi-indices at once, from coordinates computed by
    :meth:`coordinate` when the grid is built.
    """

    dims: tuple[tuple[float, float, int], ...]

    def __init__(self, dims: Sequence[Sequence]):
        parsed = []
        for pos, dim in enumerate(dims):
            lower, upper, points = float(dim[0]), float(dim[1]), int(dim[2])
            if points < 1:
                raise ValueError(f"dimension {pos}: points must be >= 1")
            if points > 1 and not lower < upper:
                raise ValueError(f"dimension {pos}: need lower < upper")
            parsed.append((lower, upper, points))
        object.__setattr__(self, "dims", tuple(parsed))
        # Every axis's coordinates back to back; axis a starts at _offsets[a].
        shape = np.array(self.shape, dtype=np.intp)
        object.__setattr__(self, "_offsets", np.cumsum(shape) - shape)
        object.__setattr__(self, "_coordinates", np.array(
            [self.coordinate(axis, k) for axis, n in enumerate(self.shape) for k in range(n)],
            dtype=np.float64,
        ))

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(points for _, _, points in self.dims)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple((lower, upper) for lower, upper, _ in self.dims)

    def coordinate(self, axis: int, k: int) -> float:
        lower, upper, points = self.dims[axis]
        if not 0 <= k < points:
            raise ValueError(f"index {k} out of range for axis {axis} with {points} points")
        if k == 0:
            return lower
        if k == points - 1:
            return upper
        return lower + k * (upper - lower) / (points - 1)

    def points(self, indices) -> np.ndarray:
        """Real-space points, shape ``(len(indices), dimension)``, one per multi-index."""
        try:
            idx = np.asarray(indices, dtype=np.intp)
        except OverflowError:
            raise ValueError("index out of range for the grid") from None
        if idx.shape == (0,):
            idx = idx.reshape(0, self.dimension)
        if idx.ndim != 2:
            raise ValueError(f"expected a sequence of multi-indices, got shape {idx.shape}")
        if idx.shape[1] != self.dimension:
            raise ValueError(f"index length {idx.shape[1]} != grid dimension {self.dimension}")
        bad = np.argwhere((idx < 0) | (idx >= np.array(self.shape, dtype=np.intp)))
        if len(bad):
            row, axis = bad[0]
            raise ValueError(
                f"index {idx[row, axis]} out of range for axis {axis}"
                f" with {self.dims[axis][2]} points"
            )
        return self._coordinates[idx + self._offsets]

    def all_indices(self) -> list[MultiIndex]:
        return list(itertools.product(*[range(points) for points in self.shape]))


def grid_point(grid: SearchGrid, idx) -> np.ndarray:
    """Real-space point for a grid multi-index."""
    return grid.points([tuple(idx)])[0]


@dataclass(frozen=True)
class TetraOptConfig:
    """Hyperparameters of the tensor-train optimizer.

    Defaults follow the reference setup for the mixer problem: rank 4, two
    iterations, five grid points per dimension.
    """

    grid: SearchGrid
    rank: int = 4
    iterations: int = 2
    seed: int = 0
    minimize: bool = True

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class _IncumbentTracker:
    """Streaming minimum over sampled grid points, with deterministic ties.

    Failed evaluations never become incumbents; among equal values the
    lexicographically smallest multi-index wins, so the final incumbent
    does not depend on the order in which points arrive.  Every batch that
    changes the incumbent, by value or by a tie on a smaller index, records
    one trace event.
    """

    grid: SearchGrid
    trace: OptimizationTrace
    started_at: float
    best_value: float = float("inf")
    best_index: MultiIndex | None = None

    def absorb(self, indices, values, failures, calls: int) -> None:
        """Take in one batch but its ``failures``; ``calls`` is the unique-call count after it."""
        changed = False
        skip = set(failures)
        for pos, (idx, value) in enumerate(zip(indices, values)):
            if pos in skip:
                continue
            if value < self.best_value or (
                value == self.best_value
                and (self.best_index is None or idx < self.best_index)
            ):
                self.best_value = value
                self.best_index = idx
                changed = True
        if changed:
            self.trace.record(
                calls,
                time.perf_counter() - self.started_at,
                self.best_value,
                grid_point(self.grid, self.best_index),
            )


def tetraopt_minimize(
    objective: BlackBoxObjective,
    config: TetraOptConfig,
    *,
    max_parallel: int | None = None,
) -> OptimizationTrace:
    """Optimize a black-box objective over a uniform grid.

    Runs ``config.iterations`` cross-interpolation passes with rank
    ``config.rank`` in lockstep, one :func:`evaluate_batch` call per round
    for the merged cache misses of all passes.  The points sampled, and so
    the result, are those of running the passes one after another.  All
    sampled grid points feed the incumbent; the trace records one event per
    round that changes it, timestamped at the round's completion, with the
    unique-call count after that round.  With ``minimize=False`` the negated
    objective is minimized and the trace reports the original sign.
    """
    grid = config.grid
    if objective.dimension != grid.dimension:
        raise ValueError(
            f"objective dimension {objective.dimension} != grid dimension {grid.dimension}"
        )
    sign = 1.0 if config.minimize else -1.0

    started_at = time.perf_counter()
    trace = OptimizationTrace()
    tracker = _IncumbentTracker(grid=grid, trace=trace, started_at=started_at)
    cache: dict[MultiIndex, float] = {}

    pass_seeds = np.random.default_rng(config.seed).integers(0, 2**63, size=config.iterations)
    passes = [
        cross_requests(grid.shape, config.rank, 1, int(s), cache=cache, log=None)
        for s in pass_seeds
    ]
    pending = [(p, misses) for p in passes if (misses := next(p, None)) is not None]
    rounds = 0
    while pending:
        indices = list(dict.fromkeys(idx for _, misses in pending for idx in misses))
        request = BatchRequest(batch_id=rounds, indices=indices, points=list(grid.points(indices)))
        rounds += 1
        result = evaluate_batch(objective, request, max_parallel)
        values = [sign * v for v in result.values]
        # Cache the whole round before resuming any pass; a pass resumed
        # earlier would otherwise re-request points a later pass received.
        cache.update(zip(indices, values))
        tracker.absorb(indices, values, result.failures, len(cache))
        pending = [
            (p, misses)
            for p, asked in pending
            if (misses := _resume(p, [cache[idx] for idx in asked])) is not None
        ]

    trace.total_calls = len(cache)
    trace.total_runtime_s = time.perf_counter() - started_at
    if not config.minimize and trace.events:
        trace.events = [
            TraceEvent(
                event.unique_calls_so_far,
                event.wall_time_s,
                -event.best_value,
                event.best_point,
            )
            for event in trace.events
        ]
    return trace


def _resume(requests, values):
    """Send a pass its values; its next cache misses, or None once it is done."""
    try:
        return requests.send(values)
    except StopIteration:
        return None
