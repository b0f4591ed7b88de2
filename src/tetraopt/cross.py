"""Cross interpolation: build a tensor train from a subset of tensor entries.

The algorithm keeps nested row/column index sets per bond.  A left-to-right
half sweep refreshes the row sets, a right-to-left half sweep refreshes the
column sets and assembles the cores; one sweep is the pair.  Every entry the
algorithm asks for goes through a memo cache and is recorded in a
:class:`SampleLog`.  :func:`cross_requests` is the algorithm as a generator
that yields each batch of cache misses and takes their values, or None
once they are cached, so a caller can merge the requests of several runs
into one batch; :func:`tt_cross` drives it with a blocking evaluator.

Inside, a batch of multi-indices is an ``(N, d)`` integer array, and each
index is known by a packed ``bytes`` key (:func:`pack_keys`): one byte per
coordinate below 128, and a prefix-free code of two to five bytes above,
so keys compare like the tuples they encode.  An :class:`IndexCache` and
the log hold keys and arrays; tuples are built for an evaluator that asks
for them, and for the log's entries each time they are read.  A caller's
plain ``dict`` is the cache itself: it is read and filled in place under
index tuples, and no second cache is kept beside it.  The log keeps no set
of its own; ``unique_count`` is counted when it is read.  Callers that do
not read the log pass None and none is kept.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import prod
from typing import Callable, Generator

import numpy as np

from .maxvol import maxvol
from .objectives import real_value, whole_number
from .tt import MultiIndex, TensorTrain, multi_indices

_ENUMERATION_CAP = 10_000
# Seeds the rows that complete a rank-deficient pivot matrix.
_COMPLETION_SEED = 0xC0317
_RANK_RTOL = 1e-10
_KEY_LIMIT = 2**32
_WIDE_CHUNK = 2**16  # coordinates a multi-byte pack works on at a time


class EvaluationError(RuntimeError):
    """An objective evaluation failed; carries the grid index that failed."""

    def __init__(self, index, cause=None):
        super().__init__(f"evaluation failed at grid index {tuple(index)}")
        self.index = tuple(index)
        self.cause = cause


def pack_keys(rows) -> list[bytes]:
    """One ``bytes`` key per row of an ``(N, d)`` array of grid indices.

    Each coordinate ``c`` is a prefix-free code whose leading byte gives its
    length: ``c`` itself below 128; ``0x80 | c >> 8`` and the low byte below
    ``2**14``; ``0xC0 | c >> 16`` and two bytes below ``2**21``; otherwise
    ``0xE0`` and four big-endian bytes.  Codes sort like the values they
    encode, so keys compare like the tuples they encode, and a key depends
    on its index alone.  Coordinates must lie in ``[0, 2**32)``: the rows
    pass :func:`~tetraopt.tt.multi_indices` with that limit on every mode.
    """
    d = np.shape(rows)[-1] if np.ndim(rows) else 0
    rows = multi_indices(rows, (_KEY_LIMIT,) * d)
    if not rows.size:
        return []
    if rows.max() < 2**7:
        packed = np.ascontiguousarray(rows, dtype=np.uint8)
        return packed.view(np.dtype((np.void, d))).ravel().tolist()
    # A few temporaries per coordinate: a fixed number of coordinates at a time.
    step = max(1, _WIDE_CHUNK // d)
    keys = []
    for start in range(0, len(rows), step):
        keys += _pack_wide(rows[start : start + step])
    return keys


def _pack_wide(rows: np.ndarray) -> list[bytes]:
    """:func:`pack_keys` of rows that hold a coordinate of 128 or more."""
    values = rows.astype(np.int64).ravel()
    below = [values < 2**7, values < 2**14, values < 2**21]
    length = np.select(below, [1, 2, 3], 5)
    tagged = values | np.select(below, [0, 0x80 << 8, 0xC0 << 16], 0xE0 << 32)
    # Each code is the last `length` bytes of its 8-byte big-endian word.
    words = tagged.astype(">i8").view(np.uint8).reshape(-1, 8)
    data = words[np.arange(8) >= 8 - length[:, None]].tobytes()
    ends = np.cumsum(length.reshape(rows.shape).sum(axis=1)).tolist()
    return list(map(data.__getitem__, map(slice, [0] + ends[:-1], ends)))


def unpack_keys(keys: Sequence[bytes], d: int) -> np.ndarray:
    """The ``(N, d)`` index array that :func:`pack_keys` encoded as ``keys``."""
    data = np.frombuffer(b"".join(keys), dtype=np.uint8)
    if len(data) == len(keys) * d:  # every coordinate took one byte
        return data.reshape(len(keys), d).astype(np.intp)
    # Decode coordinate j of every key at once; `pos` is where each code starts.
    data = data.astype(np.intp)
    sizes = np.fromiter(map(len, keys), np.intp, len(keys))
    pos = np.cumsum(sizes) - sizes
    out = np.empty((len(keys), d), dtype=np.intp)
    for j in range(d):
        lead = data[pos]
        classes = [lead < 0x80, lead < 0xC0, lead < 0xE0]
        length = np.select(classes, [1, 2, 3], 5)
        value = lead & np.select(classes, [0x7F, 0x3F, 0x1F], 0)
        for k in range(1, 5):  # fold in the code's following bytes
            more = length > k
            value[more] = value[more] << 8 | data[pos[more] + k]
        out[:, j] = value
        pos += length
    return out


class IndexBatch(Sequence):
    """Multi-indices backed by an ``(N, d)`` ``intp`` array and their packed keys.

    ``len``, iteration and indexing give tuples, built only when asked for;
    ``np.asarray(batch)`` is ``batch.array`` itself, with no Python loop.
    """

    __slots__ = ("array", "keys")

    def __init__(self, array: np.ndarray, keys: list[bytes]):
        self.array = array
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return IndexBatch(self.array[pos], self.keys[pos])
        return tuple(self.array[pos].tolist())

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.array, dtype=dtype)
        return self.array if dtype is None else self.array.astype(dtype, copy=False)


class IndexCache(dict):
    """Objective values keyed by the packed keys of their grid indices."""

    def largest(self) -> tuple[bytes, float]:
        """The largest value and its key; ties go to the smallest key, the smallest index."""
        top = max(self.values())
        return min(key for key, value in self.items() if value == top), top


class SampleLog:
    """Every index requested during cross interpolation, in request order.

    The log keeps one record per request: the indices' packed keys (shared
    with the cache that holds them), their values as an array, the batch id
    and the number of coordinates ``d``.  ``entries`` expands the records
    into a new list of ``(multi_index, value, batch_id)`` triples each time
    it is read; indices repeat when later batches re-request cached points,
    and ``batch_id`` is nondecreasing.  ``unique_count`` counts the distinct indices over the
    records each time it is read.
    """

    def __init__(self):
        self._records: list[tuple[list[bytes], np.ndarray, int, int]] = []
        self._next_batch = 0

    @property
    def entries(self) -> list[tuple[MultiIndex, float, int]]:
        entries = []
        for keys, values, batch, d in self._records:
            rows = unpack_keys(keys, d)
            entries.extend(zip(map(tuple, rows.tolist()), values.tolist(), itertools.repeat(batch)))
        return entries

    @property
    def unique_count(self) -> int:
        return len(set(itertools.chain.from_iterable(keys for keys, *_ in self._records)))

    def new_batch(self) -> int:
        batch = self._next_batch
        self._next_batch += 1
        return batch

    def extend(self, indices, values, batch_id: int) -> None:
        """Record ``indices`` (tuples or an :class:`IndexBatch`) with their values.

        ``indices`` must be a 2-D block with one row per value (or empty, with
        no values), else ``ValueError``.
        """
        values = np.asarray(values, dtype=np.float64)
        rows = np.asarray(indices)
        if len(rows) != len(values) or (len(rows) and rows.ndim != 2):
            raise ValueError(
                f"expected one index row per value: {len(values)} values, "
                f"indices of shape {rows.shape}"
            )
        if len(values):
            self._records.append((pack_keys(rows), values, batch_id, rows.shape[1]))


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
    units = np.zeros((n, m - k))
    units[extra, np.arange(m - k)] = 1.0
    basis = np.hstack([span, units])
    rows = sorted(rows + [int(a) for a in extra])
    return rows, np.linalg.solve(basis[rows].T, basis.T).T


def cross_requests(
    shape: Sequence[int],
    rank: int,
    sweeps: int,
    seed: int,
    *,
    cache: IndexCache | dict | None,
    log: SampleLog | None,
) -> Generator[IndexBatch, Sequence[float], TensorTrain]:
    """Cross interpolation as a generator of evaluation requests.

    Each core request yields its distinct cache misses, in request order, as
    an :class:`IndexBatch`: send the values, or resume with None once they are
    in the cache (else ``ValueError``); the request is then read from the
    cache, and a value that is not finite raises ``ValueError`` naming its
    index.  Requests the cache serves yield nothing.  The cache is filled with
    ``update``: an :class:`IndexCache` under packed keys, a plain ``dict`` in
    place under index tuples, and None stands for a fresh :class:`IndexCache`.
    Every requested entry goes to ``log`` unless it is None.  The generator
    returns the interpolant.  Generators sharing one cache can run in
    lockstep if every value of a round is cached before any of them resumes;
    otherwise one re-requests points another has just received.  Arguments
    are as for :func:`tt_cross`, and are validated on the first ``next``.
    """
    shape = [whole_number("shape", n, 1) for n in shape]
    d = len(shape)
    if d < 1:
        raise ValueError("invalid tensor shape []")
    if max(shape) >= _KEY_LIMIT:
        raise ValueError(f"mode sizes must be below {_KEY_LIMIT}")
    rank = whole_number("rank", rank, 1)
    sweeps = whole_number("sweeps", sweeps, 1)
    seed = whole_number("seed", seed, 0)
    if cache is None:
        cache = IndexCache()
    packed = isinstance(cache, IndexCache)

    rng = np.random.default_rng(seed)
    sets = initial_index_sets(rng, shape, rank)

    def core_matrix(j: int, prefixes: list[MultiIndex], suffixes: list[MultiIndex]):
        # Prefixes x modes x suffixes, in that nesting: no index repeats.
        n, a, c = shape[j], len(prefixes), len(suffixes)
        block = np.empty((a, n, c, d), dtype=np.intp)
        block[..., :j] = np.reshape(prefixes, (a, 1, 1, j))
        block[..., j] = np.arange(n).reshape(1, n, 1)
        block[..., j + 1 :] = np.reshape(suffixes, (1, 1, c, d - 1 - j))
        rows = block.reshape(-1, d)
        keys = pack_keys(rows)
        lookup = keys if packed else list(map(tuple, rows.tolist()))
        batch = log.new_batch() if log is not None else None
        missing = [pos for pos, value in enumerate(map(cache.get, lookup)) if value is None]
        if missing:
            request = IndexBatch(rows[missing], [keys[pos] for pos in missing])
            if (values := (yield request)) is not None:
                cache.update(zip(map(lookup.__getitem__, missing), _received(values, len(missing))))
        try:
            out = np.fromiter(map(cache.__getitem__, lookup), np.float64, len(lookup))
        except KeyError:
            absent = sum(key not in cache for key in lookup)
            raise ValueError(f"{absent} of {len(missing)} values not in the cache") from None
        if not (finite := np.isfinite(out)).all():
            bad = tuple(rows[np.argmin(finite)].tolist())
            raise ValueError(f"the value at index {bad} is not finite")
        if log is not None:
            log._records.append((keys, out, batch, d))
        return out.reshape(a * n, c)

    cores: list[np.ndarray | None] = [None] * d
    for _ in range(sweeps):
        # Left-to-right: refresh row prefixes (nothing to pick after the last core).
        for j in range(d - 1):
            prefixes, n = sets.left_sets[j], shape[j]
            values = yield from core_matrix(j, prefixes, sets.right_sets[j])
            pivots, _ = _select_pivots(values)
            # Row a of the matrix is prefix a // n with mode index a % n.
            sets.left_sets[j + 1] = [prefixes[a // n] + (a % n,) for a in pivots]

        # Right-to-left: refresh column suffixes and assemble the cores.
        for j in range(d - 1, 0, -1):
            suffixes = sets.right_sets[j]
            n_cols = len(suffixes)
            values = yield from core_matrix(j, sets.left_sets[j], suffixes)
            # Same entries viewed as (prefixes) x (mode, suffix) pairs.
            mat = values.reshape(len(sets.left_sets[j]), shape[j] * n_cols)
            pivots, coeffs = _select_pivots(mat.T)
            # Column b is mode index b // n_cols with suffix b % n_cols.
            sets.right_sets[j - 1] = [(b // n_cols,) + suffixes[b % n_cols] for b in pivots]
            cores[j] = coeffs.T.reshape(len(pivots), shape[j], n_cols)
        values = yield from core_matrix(0, sets.left_sets[0], sets.right_sets[0])
        cores[0] = values.reshape(1, shape[0], len(sets.right_sets[0]))

    return TensorTrain(cores)


def _received(values, count: int) -> list[float]:
    """An evaluator's answer to ``count`` indices as floats; text raises ``TypeError``."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        values = values.astype(np.float64, copy=False).reshape(-1).tolist()
    else:
        values = list(map(real_value, values))
    if len(values) != count:
        raise ValueError(f"evaluator returned {len(values)} values for {count} indices")
    return values


def tt_cross(
    evaluate: Callable[[IndexBatch], Sequence[float]],
    shape: Sequence[int],
    rank: int,
    sweeps: int,
    seed: int,
    *,
    cache: IndexCache | dict | None = None,
    log: SampleLog | None = None,
) -> tuple[TensorTrain, SampleLog]:
    """Approximate a tensor given only point evaluations.

    Parameters
    ----------
    evaluate : callable
        Maps an :class:`IndexBatch` of multi-indices (a sequence of tuples
        over an ``(N, d)`` index array) to their tensor values.  It is
        called once per batch and only with indices missing from the cache;
        values inside a batch may be computed concurrently by the callee.
        Every value, cached ones included, must be finite: the first that
        is not raises ``ValueError`` naming its index.
    shape : sequence of int
        Mode sizes of the tensor, each below ``2**32``.
    rank : int
        Target bond rank (index sets never grow beyond it).
    sweeps : int
        Number of left-to-right plus right-to-left rounds.
    seed : int
        Seeds the initial column sets; fixes the whole run.  An integer
        >= 0: anything else raises ``ValueError`` naming ``seed``.
    cache, log : optional
        Shared memo cache and sample log, e.g. to string several runs
        together.  The cache is an :class:`IndexCache`, or a ``dict`` keyed
        by index tuples that is read and filled in place.  Fresh ones are
        created when omitted.

    Returns
    -------
    (TensorTrain, SampleLog)
        The interpolant and the log of every requested index.
    """
    log = SampleLog() if log is None else log
    requests = cross_requests(shape, rank, sweeps, seed, cache=cache, log=log)
    return _drive_requests(requests, evaluate), log


def _drive_requests(requests, evaluate: Callable[[IndexBatch], Sequence[float]]) -> TensorTrain:
    """Run :func:`cross_requests` to its end, answering each batch with ``evaluate``."""
    values = None
    while True:
        try:
            missing = requests.send(values)
        except StopIteration as done:
            return done.value
        values = evaluate(missing)


def tensor_oracle(tt: TensorTrain) -> Callable[[IndexBatch], np.ndarray]:
    """Batch evaluator backed by an existing train (for synthetic tests)."""
    # Looked up when called, not at import: bench/layers.py patches
    # tetraopt.tt.tt_eval_many, and a module-level import would bypass that.
    from .tt import tt_eval_many

    def evaluate(indices) -> np.ndarray:
        return tt_eval_many(tt, indices)

    return evaluate


def pointwise_oracle(fn: Callable[[MultiIndex], float]) -> Callable[[IndexBatch], list[float]]:
    """Batch evaluator from a per-index function.

    Exceptions raised at a point, and values that are not real numbers
    (see :func:`~tetraopt.objectives.real_value`), surface as
    :class:`EvaluationError` carrying the offending index.
    """

    def evaluate(indices) -> list[float]:
        values = []
        for idx in indices:
            try:
                values.append(real_value(fn(idx)))
            except EvaluationError:
                raise
            except Exception as err:
                raise EvaluationError(idx, cause=err) from err
        return values

    return evaluate
