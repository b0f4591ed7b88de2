"""Grid discretization and the tensor-train optimization loop.

The optimizer lays a uniform grid over the search box, runs cross
interpolation against the objective once per iteration (fresh random index
sets each time, one shared evaluation cache), and keeps the best value seen
across every point the interpolation touched.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cross import SampleLog, tt_cross
from .harness import PENALTY_VALUE, BatchRequest, evaluate_batch
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

    Penalized (failed) indices never become incumbents; among equal values
    the lexicographically smallest multi-index wins.
    """

    grid: SearchGrid
    trace: OptimizationTrace
    started_at: float
    failed: set = field(default_factory=set)
    unique_calls: int = 0
    best_value: float = float("inf")
    best_index: MultiIndex | None = None

    def absorb(self, indices, values) -> None:
        self.unique_calls += len(indices)
        improved = False
        for idx, value in zip(indices, values):
            if idx in self.failed or not np.isfinite(value):
                continue
            if value < self.best_value or (
                value == self.best_value
                and (self.best_index is None or idx < self.best_index)
            ):
                if value < self.best_value:
                    improved = True
                self.best_value = value
                self.best_index = idx
        if improved:
            self.trace.record(
                self.unique_calls,
                time.perf_counter() - self.started_at,
                self.best_value,
                grid_point(self.grid, self.best_index),
            )


def tetraopt_minimize(
    objective: BlackBoxObjective,
    config: TetraOptConfig,
    *,
    max_parallel: int | None = None,
    penalty: float = PENALTY_VALUE,
) -> OptimizationTrace:
    """Optimize a black-box objective over a uniform grid.

    Runs ``config.iterations`` cross-interpolation passes with rank
    ``config.rank``.  All sampled grid points feed the incumbent; the trace
    records one event per improvement, timestamped at batch completion.
    With ``minimize=False`` the negated objective is minimized and the trace
    reports the original sign.
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
    log = SampleLog()
    batch_counter = [0]

    def evaluate(indices: list[MultiIndex]) -> list[float]:
        request = BatchRequest(
            batch_id=batch_counter[0],
            indices=list(indices),
            points=list(grid.points(indices)),
        )
        batch_counter[0] += 1
        result = evaluate_batch(
            objective,
            request,
            max_parallel,
            cache={},
            failed=tracker.failed,
            penalty=penalty,
        )
        return [sign * v for v in result.values]

    pass_seeds = np.random.default_rng(config.seed).integers(0, 2**63, size=config.iterations)
    for pass_seed in pass_seeds:
        tt_cross(
            _observed(evaluate, tracker.absorb),
            grid.shape,
            config.rank,
            sweeps=1,
            seed=int(pass_seed),
            cache=cache,
            log=log,
        )

    trace.total_calls = log.unique_count
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


def _observed(evaluate, on_batch):
    """Wrap an evaluator so every cross batch updates the incumbent.

    The wrapper sees only cache misses; cached points already fed the
    incumbent when first evaluated, and the sample log keeps the complete
    record.
    """

    def wrapped(indices):
        values = evaluate(indices)
        on_batch(indices, values)
        return values

    return wrapped
