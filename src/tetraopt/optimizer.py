"""Grid discretization and the tensor-train optimization loop.

The optimizer lays a uniform grid over the search box and runs
``iterations`` cross-interpolation passes against the objective (fresh
random index sets each time, one evaluation cache per run).  The passes run
in lockstep: each round merges the cache misses of every live pass into one
batch, which the harness evaluates into the run's cache before any pass
resumes and reads its values from there.  The incumbent is the best value
over every point the passes touched.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cross import IndexBatch, IndexCache, cross_requests
from .cross import tt_cross  # noqa: F401  -- bench/layers.py patches this name
from .harness import BatchRequest, evaluate_batch
from .objectives import BlackBoxObjective, finite_number, real_value, whole_number
from .trace import OptimizationTrace
from .tt import MultiIndex, multi_indices


@dataclass(frozen=True)
class SearchGrid:
    """Per-dimension (lower, upper, points) with a uniform coordinate rule.

    Index ``k`` in a dimension maps to ``lower + k * (upper - lower) /
    (points - 1)``; the extreme indices land exactly on the box corners.  A
    single-point dimension maps index 0 to ``lower``.  The coordinates are
    computed once, when the grid is built; :meth:`coordinate` reads one and
    :meth:`points` maps a whole batch of multi-indices at once.

    Each item of ``dims`` is a ``(lower, upper, points)`` triple of finite
    numbers and an integer ``points >= 1``, with ``lower < upper`` when
    ``points > 1``; anything else raises a ``ValueError`` naming the
    dimension and the field.
    """

    dims: tuple[tuple[float, float, int], ...]

    def __init__(self, dims: Sequence[Sequence]):
        parsed = []
        for pos, dim in enumerate(dims):
            field = f"dimension {pos}"
            try:
                lower, upper, points = dim
            except (TypeError, ValueError):
                raise ValueError(f"{field}: expected (lower, upper, points), got {dim!r}") from None
            lower = finite_number(f"{field}: lower", lower)
            upper = finite_number(f"{field}: upper", upper)
            points = whole_number(f"{field}: points", points, 1)
            if points > 1 and not lower < upper:
                raise ValueError(f"{field}: need lower < upper")
            parsed.append((lower, upper, points))
        object.__setattr__(self, "dims", tuple(parsed))
        # Every axis's coordinates back to back; axis a starts at _offsets[a].
        shape = np.array(self.shape, dtype=np.intp)
        offsets = np.cumsum(shape) - shape
        coordinates = np.empty(int(shape.sum()))
        for (lower, upper, points), start in zip(self.dims, offsets.tolist()):
            axis = coordinates[start : start + points]
            # Inner points only: the ends are set exactly (a -0.0 kept), and a
            # one-point axis divides nothing.  A product past the float range
            # is inf, as in Python float arithmetic.
            with np.errstate(over="ignore"):
                axis[1:-1] = lower + np.arange(1, points - 1) * (upper - lower) / (points - 1)
            axis[-1] = upper
            axis[0] = lower
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_coordinates", coordinates)

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
        # A row of k's own dtype: points refuses a float or bool k as such.
        k = np.asarray(k)
        row = np.zeros((1, self.dimension), k.dtype)
        row[0, axis] = k[()]
        return float(self.points(row)[0, axis])

    def points(self, indices) -> np.ndarray:
        """Real-space points, shape ``(len(indices), dimension)``, one per multi-index."""
        return self._coordinates[multi_indices(indices, self.shape) + self._offsets]

    def all_indices(self) -> list[MultiIndex]:
        return list(itertools.product(*[range(points) for points in self.shape]))


def grid_point(grid: SearchGrid, idx) -> np.ndarray:
    """Real-space point for a grid multi-index."""
    return grid.points([tuple(idx)])[0]


@dataclass(frozen=True)
class TetraOptConfig:
    """Hyperparameters of the tensor-train optimizer.

    Defaults follow the reference setup for the mixer problem: rank 4 and two
    iterations (the CLI's default grid adds five points per dimension).
    ``rank`` and ``iterations`` are integers >= 1, ``seed`` an integer >= 0
    and ``minimize`` a bool; anything else raises a ``ValueError`` naming it.
    """

    grid: SearchGrid
    rank: int = 4
    iterations: int = 2
    seed: int = 0
    minimize: bool = True

    def __post_init__(self):
        for name, least in (("rank", 1), ("iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), least))
        if not isinstance(self.minimize, (bool, np.bool_)):
            raise ValueError(f"minimize must be a bool, got {self.minimize!r}")
        object.__setattr__(self, "minimize", bool(self.minimize))


def tetraopt_minimize(
    objective: BlackBoxObjective,
    config: TetraOptConfig,
    *,
    max_parallel: int | None = None,
) -> OptimizationTrace:
    """Optimize a black-box objective over a uniform grid.

    Runs ``config.iterations`` cross-interpolation passes with rank
    ``config.rank`` in lockstep: each round makes one :func:`evaluate_batch`
    call for the merged cache misses of all passes, which the harness writes
    into the run's one :class:`~tetraopt.cross.IndexCache`.  The points
    sampled, and so the result, are those of running the passes one after
    another.  The incumbent is the least ``(value, index)`` over the sampled
    points: failed points never become incumbents, and among equal values
    the smallest multi-index wins whatever order the points arrive in.  The
    trace records one event per round that lowers it, timestamped at the
    round's completion, with the unique-call count after that round.  With
    ``minimize=False`` the negated objective is minimized, failures
    included, and the trace reports the original sign.
    """
    grid = config.grid
    if objective.dimension != grid.dimension:
        raise ValueError(
            f"objective dimension {objective.dimension} != grid dimension {grid.dimension}"
        )
    if not config.minimize:
        objective = _Negated(objective)

    started_at = time.perf_counter()
    trace = OptimizationTrace()
    cache = IndexCache()

    pass_seeds = np.random.default_rng(config.seed).integers(0, 2**63, size=config.iterations)
    passes = [
        cross_requests(grid.shape, config.rank, 1, int(s), cache=cache, log=None)
        for s in pass_seeds
    ]
    # Packed keys compare like the indices they encode.
    best = (math.inf, b"")
    # The harness caches the whole round before any pass resumes and reads it
    # back; else one pass would re-request points another received.  A
    # finished pass gives None on every later ``next``.
    while batches := [misses for p in passes if (misses := next(p, None)) is not None]:
        keys, rows = _merged(batches)
        request = BatchRequest(indices=keys, points=grid.points(rows))
        result = evaluate_batch(objective, request, max_parallel, cache=cache)
        healthy = np.delete(np.arange(len(keys)), result.failures)
        if not healthy.size:
            continue
        values = np.asarray(result.values, dtype=np.float64)[healthy]
        lowest = values.min()
        pos = min(healthy[values == lowest].tolist(), key=keys.__getitem__)
        if (lowest, keys[pos]) < best:
            best = (float(lowest), keys[pos])
            trace.record(
                len(cache), time.perf_counter() - started_at, best[0], grid_point(grid, rows[pos])
            )

    trace.total_calls = len(cache)
    trace.total_runtime_s = time.perf_counter() - started_at
    if not config.minimize:
        trace.events = [replace(event, best_value=-event.best_value) for event in trace.events]
    return trace


@dataclass(frozen=True)
class _Negated:
    """An objective with its sign flipped: maximizing runs minimize this."""

    objective: BlackBoxObjective

    def evaluate(self, x) -> float:
        return -real_value(self.objective.evaluate(x))


def _merged(batches: list[IndexBatch]) -> tuple[list[bytes], np.ndarray]:
    """Keys and index rows of several batches, each key once, at its first occurrence."""
    keys = [key for batch in batches for key in batch.keys]
    rows = np.concatenate([batch.array for batch in batches])
    unique = list(dict.fromkeys(keys))
    if len(unique) < len(keys):
        # Filled back to front, each key ends up with its first position.
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        rows = rows[[first[key] for key in unique]]
    return unique, rows
