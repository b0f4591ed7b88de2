"""Greedy maximal-volume row selection in tall matrices.

Given an ``n x r`` matrix with ``n >= r``, :func:`maxvol` picks ``r`` rows
whose square submatrix has (locally) maximal absolute determinant.  The
selection drives cross interpolation: the coefficient matrix it returns
expresses every row of the input as a combination of the chosen rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SWAP_TOL = 1e-2
MAX_SWAP_ROUNDS = 100

_JITTER_SCALE = 1e-12
_JITTER_SEED = 0x7A11
# Seeds the rows that complete a rank-deficient pivot matrix in the cross.
_COMPLETION_SEED = 0xC0317
_RANDOM_STARTS = 6
_START_SEED = 0x5EED


@dataclass(frozen=True)
class MaxVolResult:
    """Outcome of a greedy maximal-volume search.

    ``coefficients`` holds ``m @ inv(m[row_indices])``; its rows at the
    selected indices form the identity.  ``degenerate`` flags inputs that
    needed a jitter fallback because they were not full column rank.
    """

    row_indices: list[int]
    volume: float
    swap_count: int
    degenerate: bool = False
    coefficients: np.ndarray = field(repr=False, default=None)


def _pivot_rows(m: np.ndarray) -> list[int]:
    """Row pivots of a partial-pivoting elimination; a nonsingular start."""
    work = np.array(m, dtype=np.float64)
    n, r = work.shape
    order = np.arange(n)
    for col in range(r):
        p = col + int(np.argmax(np.abs(work[col:, col])))
        if p != col:
            work[[col, p]] = work[[p, col]]
            order[[col, p]] = order[[p, col]]
        pivot = work[col, col]
        if pivot != 0.0:
            factors = work[col + 1 :, col] / pivot
            work[col + 1 :] -= np.outer(factors, work[col])
    return [int(i) for i in order[:r]]


def _greedy_swaps(work: np.ndarray, start: tuple[int, ...]) -> tuple[list[int], int]:
    """Swap rows until no single swap multiplies |det| by > 1 + DEFAULT_SWAP_TOL.

    ``coeffs = work @ inv(work[selected])`` is formed once; swapping row
    ``i`` into position ``j`` multiplies |det| by ``|coeffs[i, j]|`` and
    updates ``coeffs`` by a rank-1 correction (Goreinov et al., *How to find
    a good submatrix*, 2010), so a swap costs O(n r) and no solve.
    """
    selected = list(start)
    coeffs = work @ np.linalg.inv(work[selected])
    r = coeffs.shape[1]
    swap_count = 0
    while True:
        i, j = divmod(int(np.argmax(np.abs(coeffs))), r)
        pivot = coeffs[i, j]
        if abs(pivot) <= 1.0 + DEFAULT_SWAP_TOL or swap_count >= MAX_SWAP_ROUNDS:
            return selected, swap_count
        column = coeffs[:, j] / pivot
        row = coeffs[i].copy()
        row[j] -= 1.0
        coeffs -= np.outer(column, row)
        selected[j] = i
        swap_count += 1


def maxvol(m: np.ndarray) -> MaxVolResult:
    """Select rows forming a submatrix of locally maximal absolute determinant.

    Greedy row swapping is run from several deterministic starts: the
    partial-pivoting rows of the matrix and of its orthogonal factor, the
    largest-norm rows, and a few fixed-seed random subsets.  Each run stops
    once no single swap multiplies the volume by more than
    ``1 + DEFAULT_SWAP_TOL`` (0.01), or after ``MAX_SWAP_ROUNDS`` (100)
    swaps; both are fixed constants.  The best local optimum wins, which in
    practice almost always is the global one.  The result is deterministic
    for a given input.

    Ties: each swap takes the largest ``|coefficient|``, the first in
    row-major order on an exact tie, and among the starts the first one
    whose ``|det|`` is strictly largest wins.  Several starts often reach
    the same rows in different orders; which order is returned then
    depends on the rounding of ``det``, and a caller that needs an order
    independent of rounding sorts the rows (the cross does so below full
    rank).  Volume ratios and coefficients are the same for ``m`` and
    ``m @ M`` with ``M`` invertible; only the starts see the basis.

    Rank-deficient inputs are perturbed by a tiny fixed-seed jitter
    (``1e-12 * max|entry|``) and flagged ``degenerate``.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("maxvol expects a matrix")
    n, r = m.shape
    if r < 1 or n < r:
        raise ValueError(f"need n_rows >= r >= 1, got shape {m.shape}")

    degenerate = False
    work = m
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        degenerate = True
        scale = np.max(np.abs(m))
        jitter = _JITTER_SCALE * (scale if scale > 0 else 1.0)
        noise = np.random.default_rng(_JITTER_SEED).standard_normal(m.shape)
        work = m + jitter * noise

    starts = [_pivot_rows(work)]
    if n > r:
        starts.append(_pivot_rows(np.linalg.qr(work)[0]))
        starts.append([int(i) for i in np.argsort(-np.linalg.norm(work, axis=1))[:r]])
        rng = np.random.default_rng(_START_SEED)
        for _ in range(_RANDOM_STARTS):
            starts.append([int(i) for i in rng.choice(n, size=r, replace=False)])

    # A repeated start repeats its deterministic swaps and cannot strictly
    # beat its first run, so each distinct start runs once.
    best: tuple[list[int], int] | None = None
    best_volume = -1.0
    for start in dict.fromkeys(tuple(s) for s in starts):
        try:
            candidate = _greedy_swaps(work, start)
        except np.linalg.LinAlgError:
            continue
        volume = float(abs(np.linalg.det(work[candidate[0]])))
        if volume > best_volume:
            best_volume = volume
            best = candidate
    if best is None:
        raise np.linalg.LinAlgError("maxvol could not find a nonsingular submatrix")

    selected, swap_count = best
    # One solve for the winner: the returned coefficients carry no update drift.
    coeffs = np.linalg.solve(work[selected].T, work.T).T
    volume = float(abs(np.linalg.det(m[selected])))
    return MaxVolResult(
        row_indices=list(selected),
        volume=volume,
        swap_count=swap_count,
        degenerate=degenerate,
        coefficients=coeffs,
    )


def maxvol_element_bound_check(m: np.ndarray) -> tuple[float, float, bool]:
    """Check that the selected submatrix's top entry bounds the matrix's.

    Returns ``(j_hat_max, j_max, holds)`` where ``j_hat_max`` is the largest
    absolute entry of the selected ``r x r`` submatrix, ``j_max`` the largest
    absolute entry of the whole matrix, and ``holds`` whether
    ``j_hat_max * r**2 >= j_max``.
    """
    m = np.asarray(m, dtype=np.float64)
    result = maxvol(m)
    r = m.shape[1]
    j_hat_max = float(np.max(np.abs(m[result.row_indices])))
    j_max = float(np.max(np.abs(m)))
    return j_hat_max, j_max, j_hat_max * r * r >= j_max
