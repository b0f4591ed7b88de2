"""Tensor-train representation and the operations the optimizer needs.

A tensor train stores a d-dimensional array as a chain of 3-axis cores.
Core ``j`` has shape ``(r_j, n_j, r_{j+1})`` with boundary ranks
``r_0 = r_d = 1``; the entry at a multi-index is the product of the matrix
slices picked by that index.  Cores are read-only after construction, so a
``TensorTrain`` can be shared freely between threads.
"""

from __future__ import annotations

import os
import struct
from math import prod

import numpy as np

from .objectives import finite_number, whole_number

MultiIndex = tuple[int, ...]

DENSE_CAP = 1_000_000

_ROW_CHUNK = 512

_MAGIC = b"TTRN"
_FORMAT_VERSION = 1


class TensorTrain:
    """Chain of 3-axis cores representing a compressed d-dimensional tensor.

    Parameters
    ----------
    cores : sequence of ndarray
        Core ``j`` must have shape ``(r_j, n_j, r_{j+1})``; adjacent ranks
        must match and the boundary ranks must be 1.
    """

    __slots__ = ("cores",)

    def __init__(self, cores):
        # Copy unconditionally: the cores get frozen, and freezing a view of
        # the caller's array would freeze the caller's data too.
        cores = tuple(np.array(c, dtype=np.float64, order="C") for c in cores)
        if not cores:
            raise ValueError("a tensor train needs at least one core")
        for j, core in enumerate(cores):
            if core.ndim != 3:
                raise ValueError(f"core {j} must have 3 axes, got {core.ndim}")
            if min(core.shape) < 1:
                raise ValueError(f"core {j} has an empty axis: {core.shape}")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must equal 1")
        for j in range(len(cores) - 1):
            if cores[j].shape[2] != cores[j + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {j} and {j + 1}: "
                    f"{cores[j].shape[2]} vs {cores[j + 1].shape[0]}"
                )
        for core in cores:
            core.flags.writeable = False
        self.cores = cores

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """All bond ranks ``r_0 .. r_d`` including the unit boundaries."""
        return tuple(c.shape[0] for c in self.cores) + (1,)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def __repr__(self) -> str:
        return (
            f"TensorTrain(order={self.order}, mode_sizes={self.mode_sizes}, "
            f"ranks={self.ranks})"
        )

    @classmethod
    def from_vectors(cls, vectors) -> "TensorTrain":
        """Rank-1 train whose entries are products of the vectors' entries."""
        return cls([np.asarray(v, dtype=np.float64).reshape(1, -1, 1) for v in vectors])

    @classmethod
    def constant(cls, shape, value: float) -> "TensorTrain":
        cores = [np.ones((1, n, 1)) for n in shape]
        cores[0] = cores[0] * float(value)
        return cls(cores)

    @classmethod
    def random(cls, shape, rank, rng, *, nonnegative: bool = False) -> "TensorTrain":
        """Random train with bond ranks ``min(rank, unfolding bound)``.

        With ``nonnegative=True`` the cores are uniform on [0, 1), which makes
        every entry of the represented tensor nonnegative.
        """
        shape = [whole_number("shape", n, 1) for n in shape]
        ranks = bounded_ranks(shape, whole_number("rank", rank, 1))
        cores = []
        for j, n in enumerate(shape):
            size = (ranks[j], n, ranks[j + 1])
            core = rng.random(size) if nonnegative else rng.standard_normal(size)
            cores.append(core)
        return cls(cores)


def bounded_ranks(shape, rank: int) -> list[int]:
    """Clip the bond rank ``rank`` to the unfolding bounds of ``shape``."""
    caps = [min(prod(shape[: j + 1]), prod(shape[j + 1 :])) for j in range(len(shape) - 1)]
    return [1, *(max(1, min(rank, cap)) for cap in caps), 1]


def validate_index(tt: TensorTrain, idx) -> MultiIndex:
    idx = tuple(int(i) for i in idx)
    if len(idx) != tt.order:
        raise ValueError(f"index length {len(idx)} != tensor order {tt.order}")
    for j, (i, n) in enumerate(zip(idx, tt.mode_sizes)):
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of bounds for mode {j} of size {n}")
    return idx


def tt_eval(tt: TensorTrain, idx) -> float:
    """Entry at ``idx``: the chained product of the per-mode core slices."""
    idx = validate_index(tt, idx)
    v = tt.cores[0][:, idx[0], :]
    for j in range(1, tt.order):
        v = v @ tt.cores[j][:, idx[j], :]
    return float(v[0, 0])


def tt_eval_many(tt: TensorTrain, indices) -> np.ndarray:
    """Vectorized :func:`tt_eval` for an ``(N, d)`` integer index array.

    Rows are contracted left to right.  While fewer than half the rows have
    distinct prefixes, as in cross requests (prefixes x modes x suffixes),
    the partial product of each distinct prefix is computed once and shared
    by its rows; from the first core where that stops holding, rows go on
    one by one in fixed-size chunks.  Every row passes through the same
    products in the same order either way, so the result is bit-identical
    to evaluating each row on its own.
    """
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim != 2 or indices.shape[1] != tt.order:
        raise ValueError("expected an (N, d) index array")
    for j, n in enumerate(tt.mode_sizes):
        col = indices[:, j]
        if col.size and (col.min() < 0 or col.max() >= n):
            raise ValueError(f"index out of bounds for mode {j} of size {n}")
    n_rows = indices.shape[0]
    # Mode-major cores (n, r, s): gathering the slices of a mode is a row copy.
    cores = [np.ascontiguousarray(core.transpose(1, 0, 2)) for core in tt.cores]

    # v[g] is the partial product of distinct prefix g; row k has prefix group[k].
    keys, group = np.unique(indices[:, 0], return_inverse=True)
    v = cores[0][keys, 0, :]
    j = 1
    while j < tt.order:
        n_j = tt.mode_sizes[j]
        keys, inverse = np.unique(group * n_j + indices[:, j], return_inverse=True)
        if 2 * keys.size >= n_rows:
            break
        v = np.einsum("nr,nrs->ns", v[keys // n_j], cores[j][keys % n_j])
        group = inverse
        j += 1

    v = v[group]
    out = np.empty(n_rows)
    for start in range(0, n_rows, _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        w = v[rows]
        for k in range(j, tt.order):
            w = np.einsum("nr,nrs->ns", w, cores[k][indices[rows, k]])
        out[rows] = w[:, 0]
    return out


def tt_full(tt: TensorTrain, *, max_entries: int = DENSE_CAP) -> np.ndarray:
    """Materialize the dense tensor; refuses more than ``max_entries`` entries."""
    total = prod(tt.mode_sizes)
    if total > max_entries:
        raise ValueError(
            f"dense tensor would hold {total} entries, above the cap {max_entries}"
        )
    out = tt.cores[0].reshape(tt.mode_sizes[0], -1)
    for core in tt.cores[1:]:
        r, n, s = core.shape
        out = out @ core.reshape(r, n * s)
        out = out.reshape(-1, s)
    return out.reshape(tt.mode_sizes)


def tt_hadamard(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Elementwise product; bond ranks multiply (kron of the core slices)."""
    if a.mode_sizes != b.mode_sizes:
        raise ValueError(f"mode sizes differ: {a.mode_sizes} vs {b.mode_sizes}")
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        ra, n, sa = ca.shape
        rb, _, sb = cb.shape
        core = np.einsum("inj,knl->iknjl", ca, cb).reshape(ra * rb, n, sa * sb)
        cores.append(core)
    return TensorTrain(cores)


def tt_add(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Sum of two trains via block-diagonal cores; interior ranks add."""
    if a.mode_sizes != b.mode_sizes:
        raise ValueError(f"mode sizes differ: {a.mode_sizes} vs {b.mode_sizes}")
    if a.order == 1:
        return TensorTrain([a.cores[0] + b.cores[0]])
    cores = [np.concatenate([a.cores[0], b.cores[0]], axis=2)]
    for ca, cb in zip(a.cores[1:-1], b.cores[1:-1]):
        ra, n, sa = ca.shape
        rb, _, sb = cb.shape
        block = np.zeros((ra + rb, n, sa + sb))
        block[:ra, :, :sa] = ca
        block[ra:, :, sa:] = cb
        cores.append(block)
    cores.append(np.concatenate([a.cores[-1], b.cores[-1]], axis=0))
    return TensorTrain(cores)


def tt_scale(tt: TensorTrain, alpha: float) -> TensorTrain:
    cores = list(tt.cores)
    cores[0] = cores[0] * float(alpha)
    return TensorTrain(cores)


def tt_shift(tt: TensorTrain, offset: float) -> TensorTrain:
    """Add a constant to every entry."""
    return tt_add(tt, TensorTrain.constant(tt.mode_sizes, offset))


def frobenius_norm(tt: TensorTrain) -> float:
    """Frobenius norm via the transfer-matrix contraction of ``tt`` with itself."""
    g = np.einsum("inj,knl->ikjl", tt.cores[0], tt.cores[0])
    m = g.reshape(1, -1)
    for core in tt.cores[1:]:
        g = np.einsum("inj,knl->ikjl", core, core)
        r2 = core.shape[0] ** 2
        m = m @ g.reshape(r2, -1)
    return float(np.sqrt(max(m[0, 0], 0.0)))


def tt_round(tt: TensorTrain, max_rank: int, rel_tol: float = 0.0) -> TensorTrain:
    """Truncate bond ranks by a right-to-left QR pass and a left-to-right SVD pass.

    Every bond rank of the result is at most ``max_rank``.  When the input's
    exact rank already fits under ``max_rank`` the result reproduces it up to
    floating-point error; otherwise singular values are dropped so that the
    total relative Frobenius error stays near ``rel_tol`` (the per-bond
    threshold is ``rel_tol * ||tt|| / sqrt(d - 1)``).
    """
    max_rank = whole_number("max_rank", max_rank, 1)
    rel_tol = finite_number("rel_tol", rel_tol, 0)
    d = tt.order
    # Right-to-left orthogonalization (LQ via transposed QR).
    cores = [c.copy() for c in tt.cores]
    for j in range(d - 1, 0, -1):
        r, n, s = cores[j].shape
        mat = cores[j].reshape(r, n * s)
        q, rfac = np.linalg.qr(mat.T)
        k = q.shape[1]
        cores[j] = np.ascontiguousarray(q.T.reshape(k, n, s))
        cores[j - 1] = np.einsum("inj,kj->ink", cores[j - 1], rfac)

    norm = float(np.linalg.norm(cores[0]))
    threshold = rel_tol * norm / np.sqrt(d - 1) if rel_tol > 0 and d > 1 else 0.0

    # Left-to-right truncated SVD sweep.
    for j in range(d - 1):
        r, n, s = cores[j].shape
        u, sv, vt = np.linalg.svd(cores[j].reshape(r * n, s), full_matrices=False)
        keep = len(sv)
        if threshold > 0:
            tails = np.sqrt(np.cumsum(sv[::-1] ** 2))[::-1]
            above = np.nonzero(tails > threshold)[0]
            keep = int(above[-1]) + 1 if above.size else 1
        keep = max(1, min(keep, max_rank))
        cores[j] = np.ascontiguousarray(u[:, :keep].reshape(r, n, keep))
        carry = sv[:keep, None] * vt[:keep]
        rn, nn, sn = cores[j + 1].shape
        cores[j + 1] = (carry @ cores[j + 1].reshape(rn, nn * sn)).reshape(keep, nn, sn)
    return TensorTrain(cores)


def save_tt(tt: TensorTrain, path) -> None:
    """Write the train to ``path``.

    Layout (little-endian): magic ``TTRN``, format version (u32), order d
    (u32), d mode sizes (u64), d+1 bond ranks (u64), then the cores
    back-to-back as float64 in row-major order.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, tt.order))
        np.asarray(tt.mode_sizes, dtype="<u8").tofile(fh)
        np.asarray(tt.ranks, dtype="<u8").tofile(fh)
        for core in tt.cores:
            np.ascontiguousarray(core, dtype="<f8").tofile(fh)


def load_tt(path) -> TensorTrain:
    """Read a train written by :func:`save_tt`.

    Raises ``ValueError`` when the file is not a well-formed train: bad magic
    or version, a short header, or declared sizes that need more bytes than
    the file holds.  Sizes are checked before anything is allocated.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read_array(dtype: str, count: int) -> np.ndarray:
            if 8 * count > file_size - fh.tell():
                raise ValueError("truncated tensor-train file")
            return np.fromfile(fh, dtype=dtype, count=count)

        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a tensor-train file: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("truncated tensor-train file")
        version, order = struct.unpack("<II", header)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        mode_sizes = [int(n) for n in read_array("<u8", order)]
        ranks = [int(r) for r in read_array("<u8", order + 1)]
        cores = []
        for j in range(order):
            shape = (ranks[j], mode_sizes[j], ranks[j + 1])
            cores.append(read_array("<f8", prod(shape)).reshape(shape))
    return TensorTrain(cores)
