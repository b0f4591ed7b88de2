"""Cross interpolation: build a tensor train from a subset of tensor entries.

The algorithm keeps nested row/column index sets per bond.  A left-to-right
half sweep refreshes the row sets, a right-to-left half sweep refreshes the
column sets and assembles the cores; one sweep is the pair.  Every entry the
algorithm asks for goes through a memo cache and is recorded in a
:class:`SampleLog`.  :func:`cross_requests` is the algorithm as a generator
that yields each batch of cache misses and receives their values, so a
caller can merge the requests of several runs into one batch;
:func:`tt_cross` drives it with a blocking evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Generator, Sequence

import numpy as np

from .maxvol import _COMPLETION_SEED, maxvol
from .tt import MultiIndex, TensorTrain

_ENUMERATION_CAP = 10_000
_RANK_RTOL = 1e-10


class EvaluationError(RuntimeError):
    """An objective evaluation failed; carries the grid index that failed."""

    def __init__(self, index, cause=None):
        super().__init__(f"evaluation failed at grid index {tuple(index)}")
        self.index = tuple(index)
        self.cause = cause


@dataclass
class SampleLog:
    """Every index requested during cross interpolation, in request order.

    ``entries`` holds ``(multi_index, value, batch_id)`` triples; indices
    repeat when later batches re-request cached points.  ``batch_id`` is
    nondecreasing.  ``unique_count`` counts distinct indices.
    """

    entries: list[tuple[MultiIndex, float, int]] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)
    _next_batch: int = field(default=0, repr=False)

    @property
    def unique_count(self) -> int:
        return len(self._seen)

    def new_batch(self) -> int:
        batch = self._next_batch
        self._next_batch += 1
        return batch

    def extend(self, indices, values, batch_id: int) -> None:
        values = np.asarray(values, dtype=np.float64).tolist()
        self.entries.extend(zip(indices, values, itertools.repeat(batch_id)))
        self._seen.update(indices)


@dataclass
class NestedIndexSets:
    """Row prefixes and column suffixes maintained per core.

    ``left_sets[j]`` holds prefixes of length ``j`` (so ``left_sets[0]`` is
    the single empty prefix) and ``right_sets[j]`` holds suffixes of length
    ``d - 1 - j`` (so ``right_sets[d-1]`` is the single empty suffix).  Set
    sizes never exceed the configured rank.
    """

    left_sets: list[list[MultiIndex]]
    right_sets: list[list[MultiIndex]]


def _random_suffixes(rng, tail_shape: Sequence[int], count: int) -> list[MultiIndex]:
    """Distinct random suffixes (one coordinate per trailing mode)."""
    space = prod(tail_shape) if tail_shape else 1
    count = min(count, space)
    if not tail_shape:
        return [()]
    if space <= _ENUMERATION_CAP:
        universe = list(itertools.product(*[range(n) for n in tail_shape]))
        picks = rng.choice(space, size=count, replace=False)
        return [universe[int(p)] for p in picks]
    chosen: list[MultiIndex] = []
    seen = set()
    while len(chosen) < count:
        suffix = tuple(int(rng.integers(n)) for n in tail_shape)
        if suffix not in seen:
            seen.add(suffix)
            chosen.append(suffix)
    return chosen


def initial_index_sets(rng, shape: Sequence[int], rank: int) -> NestedIndexSets:
    """Seeded random column sets; row sets start as bare prefixes."""
    d = len(shape)
    left_sets: list[list[MultiIndex]] = [[()] for _ in range(d)]
    right_sets = [_random_suffixes(rng, shape[j + 1 :], rank) for j in range(d)]
    return NestedIndexSets(left_sets=left_sets, right_sets=right_sets)


def _select_pivots(matrix: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Maxvol pivot rows of a basis of the matrix's range, plus coefficients.

    Returns ``(rows, coeffs)`` with ``coeffs[rows] == I`` and
    ``matrix ≈ coeffs @ matrix[rows]``; the number of rows is
    ``m = min(matrix.shape)``.  With ``q, R = qr(matrix)``, the numerical
    rank ``k`` counts the singular values of ``R`` above ``1e-10`` times the
    largest.  At full rank the rows are ``maxvol(q)``'s, in its order.

    Below full rank, ``q``'s last ``m - k`` columns span directions the
    matrix does not have, chosen by rounding, so they take no part.  ``k``
    of the rows are ``maxvol``'s rows of the range ``q @ U_R[:, :k]``: the
    rows that carry the matrix, its extreme entries among them.  The other
    ``m - k`` are the first rows of a permutation of the remaining ones,
    drawn from a generator seeded with the fixed ``_COMPLETION_SEED``, so
    they spread over the whole index range instead of piling onto low mode
    indices.  All ``m`` rows are returned in ascending order.  They depend
    on the range alone, not on rounding or on the basis of the matrix's
    columns, unless maxvol's greedy search meets a near-tie in volume.
    """
    q, r_factor = np.linalg.qr(matrix)
    u, sv, _ = np.linalg.svd(r_factor)
    n, m = q.shape
    k = int(np.count_nonzero(sv > _RANK_RTOL * sv[0]))
    if k == m:
        result = maxvol(q)
        return result.row_indices, result.coefficients
    span = q @ u[:, :k]
    rows = maxvol(span).row_indices if k else []
    rest = np.setdiff1d(np.arange(n), rows)
    extra = np.random.default_rng(_COMPLETION_SEED).choice(rest, m - k, replace=False)
    # Unit columns at the extra rows complete the range: every selection
    # with a nonzero volume holds them, and the coefficients stay exact.
    basis = np.hstack([span, np.eye(n)[:, extra]])
    rows = sorted(rows + [int(a) for a in extra])
    return rows, np.linalg.solve(basis[rows].T, basis.T).T


def cross_requests(
    shape: Sequence[int],
    rank: int,
    sweeps: int,
    seed: int,
    *,
    cache: dict,
    log: SampleLog | None,
) -> Generator[list[MultiIndex], Sequence[float], TensorTrain]:
    """Cross interpolation as a generator of evaluation requests.

    Each core request yields its distinct cache misses, in request order,
    and expects their values to be sent back; requests fully served by
    ``cache`` yield nothing.  Received values are stored in ``cache`` and
    every requested entry goes to ``log`` (skipped when ``log`` is None).
    The generator returns the interpolant.  Several generators can share one
    cache and run in lockstep, provided every value of a round is cached
    before any of them is resumed; otherwise one re-requests points another
    has just received.  Arguments are as for :func:`tt_cross`, and are
    validated on the first ``next``.
    """
    shape = [int(n) for n in shape]
    d = len(shape)
    if d < 1 or min(shape) < 1:
        raise ValueError(f"invalid tensor shape {shape}")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")

    rng = np.random.default_rng(seed)
    sets = initial_index_sets(rng, shape, rank)

    def core_matrix(j: int, rows: list[MultiIndex], cols: list[MultiIndex]):
        indices = [p + (i,) + s for p in rows for i in range(shape[j]) for s in cols]
        batch = log.new_batch() if log is not None else None
        # Distinct prefixes x modes x distinct suffixes: no index repeats.
        missing = [idx for idx in indices if idx not in cache]
        if missing:
            values = list((yield missing))
            if len(values) != len(missing):
                raise ValueError(
                    f"evaluator returned {len(values)} values for {len(missing)} indices"
                )
            for idx, val in zip(missing, values):
                cache[idx] = float(val)
        out = np.array([cache[idx] for idx in indices], dtype=np.float64)
        if log is not None:
            log.extend(indices, out, batch)
        return out.reshape(len(rows) * shape[j], len(cols))

    cores: list[np.ndarray | None] = [None] * d
    for _ in range(sweeps):
        # Left-to-right: refresh row prefixes (nothing to pick after the last core).
        for j in range(d - 1):
            values = yield from core_matrix(j, sets.left_sets[j], sets.right_sets[j])
            pivots, _ = _select_pivots(values)
            extended = [
                p + (i,) for p in sets.left_sets[j] for i in range(shape[j])
            ]
            sets.left_sets[j + 1] = [extended[a] for a in pivots]

        # Right-to-left: refresh column suffixes and assemble the cores.
        for j in range(d - 1, 0, -1):
            n_cols = len(sets.right_sets[j])
            values = yield from core_matrix(j, sets.left_sets[j], sets.right_sets[j])
            # Same entries viewed as (prefixes) x (mode, suffix) pairs.
            mat = values.reshape(len(sets.left_sets[j]), shape[j] * n_cols)
            pivots, coeffs = _select_pivots(mat.T)
            extended = [
                (i,) + s for i in range(shape[j]) for s in sets.right_sets[j]
            ]
            sets.right_sets[j - 1] = [extended[b] for b in pivots]
            cores[j] = coeffs.T.reshape(len(pivots), shape[j], n_cols)
        values = yield from core_matrix(0, sets.left_sets[0], sets.right_sets[0])
        cores[0] = values.reshape(1, shape[0], len(sets.right_sets[0]))

    return TensorTrain(cores)


def tt_cross(
    evaluate: Callable[[list[MultiIndex]], Sequence[float]],
    shape: Sequence[int],
    rank: int,
    sweeps: int,
    seed: int,
    *,
    cache: dict | None = None,
    log: SampleLog | None = None,
) -> tuple[TensorTrain, SampleLog]:
    """Approximate a tensor given only point evaluations.

    Parameters
    ----------
    evaluate : callable
        Maps a list of multi-indices to their tensor values.  It is called
        once per batch and only with indices missing from the cache; values
        inside a batch may be computed concurrently by the callee.
    shape : sequence of int
        Mode sizes of the tensor.
    rank : int
        Target bond rank (index sets never grow beyond it).
    sweeps : int
        Number of left-to-right plus right-to-left rounds.
    seed : int
        Seeds the initial column sets; fixes the whole run.
    cache, log : optional
        Shared memo cache and sample log, e.g. to string several runs
        together.  Fresh ones are created when omitted.

    Returns
    -------
    (TensorTrain, SampleLog)
        The interpolant and the log of every requested index.
    """
    cache = {} if cache is None else cache
    log = SampleLog() if log is None else log
    requests = cross_requests(shape, rank, sweeps, seed, cache=cache, log=log)
    values = None
    while True:
        try:
            missing = requests.send(values)
        except StopIteration as done:
            return done.value, log
        values = evaluate(missing)


def tensor_oracle(tt: TensorTrain) -> Callable[[list[MultiIndex]], np.ndarray]:
    """Batch evaluator backed by an existing train (for synthetic tests)."""
    from .tt import tt_eval_many

    def evaluate(indices: list[MultiIndex]) -> np.ndarray:
        return tt_eval_many(tt, np.array(indices, dtype=np.intp))

    return evaluate


def pointwise_oracle(fn: Callable[[MultiIndex], float]) -> Callable[[list[MultiIndex]], list[float]]:
    """Batch evaluator from a per-index function.

    Exceptions raised at a point surface as :class:`EvaluationError`
    carrying the offending index.
    """

    def evaluate(indices: list[MultiIndex]) -> list[float]:
        values = []
        for idx in indices:
            try:
                values.append(float(fn(idx)))
            except EvaluationError:
                raise
            except Exception as err:
                raise EvaluationError(idx, cause=err) from err
        return values

    return evaluate
