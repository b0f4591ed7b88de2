"""Locate a tensor's largest entry by repeated elementwise squaring.

Squaring a nonnegative tensor widens the gap between its top entry and the
rest; after a few squarings the dominant entry is easy to pick out of a
cheap cross interpolation of the iterate.  In train format each squaring
multiplies the bond ranks, so every step rounds back to a rank budget.  The
rounding is randomized (Al Daas, Ballard, Cazeaux et al., *Randomized
algorithms for rounding in the tensor-train format*, SIAM J. Sci. Comput.
2023, arXiv 2110.04393): a Gaussian sketch is contracted with the iterate's
own cores, so the rank-``r**2`` cores of the square are never formed.  The
sketch draws from its own seeded stream, separate from the one that picks
the shift and seeds the final cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .cross import IndexCache, _drive_requests, cross_requests, tensor_oracle, unpack_keys
from .cross import tt_cross  # noqa: F401  -- bench/layers.py patches this name
from .objectives import finite_number, whole_number
# tt_hadamard is no longer called here but stays a module attribute: the
# benchmark's layer tracing patches it by name.
from .tt import (
    TensorTrain,
    bounded_ranks,
    frobenius_norm,
    tt_eval,
    tt_eval_many,
    tt_hadamard,
    tt_round,
    tt_scale,
    tt_shift,
)

_PROBE_COUNT = 10_000


@dataclass(frozen=True)
class PowerConfig:
    """Squaring schedule and rank budget.

    ``shift`` is added to every entry before squaring so the iterate is
    nonnegative and the largest entry is also the largest in modulus.  Leave
    it ``None`` to estimate one from seeded probes: the estimate flips the
    probed minimum to sit slightly above zero, which also sharpens the
    contrast between the top entries.

    ``steps`` and ``max_rank`` are integers >= 1, ``rel_tol`` a finite
    number >= 0 and ``shift`` None or a finite number; anything else raises
    a ``ValueError`` naming the field.
    """

    steps: int = 8
    max_rank: int = 16
    rel_tol: float = 0.0
    shift: float | None = None

    def __post_init__(self):
        for name in ("steps", "max_rank"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), 1))
        object.__setattr__(self, "rel_tol", finite_number("rel_tol", self.rel_tol, 0))
        if self.shift is not None:
            object.__setattr__(self, "shift", finite_number("shift", self.shift))


def _probe_indices(rng, shape, count: int) -> np.ndarray:
    cols = [rng.integers(0, n, size=count) for n in shape]
    return np.stack(cols, axis=1)


def _estimate_shift(tt: TensorTrain, rng) -> float:
    count = min(_PROBE_COUNT, prod(tt.mode_sizes))
    values = tt_eval_many(tt, _probe_indices(rng, tt.mode_sizes, count))
    low, high = float(values.min()), float(values.max())
    margin = 1e-3 * (high - low) if high > low else 1.0
    return -low + margin


def _square_round(y: TensorTrain, max_rank: int, rel_tol: float, rng) -> TensorTrain:
    """``tt_round(tt_hadamard(y, y), max_rank, rel_tol)`` without forming ``y * y``.

    Randomize-then-orthogonalize rounding (Al Daas et al., arXiv 2110.04393)
    of the elementwise square, contracted against ``y``'s own cores: the
    Hadamard cores ``kron(G_k, G_k)`` of rank ``r_k ** 2`` are never built.
    A Gaussian train ``R`` with bond ranks ``l_k`` sketches the square from
    the right, ``W_k = <cores k.. of y * y, cores k.. of R>`` of shape
    ``(r_k, r_k, l_k)``.  A left-to-right pass then takes the range of each
    sketched unfolding by QR and projects the square onto it.  With ``l_k``
    at least the square's rank at bond ``k`` (the ranks cap at ``r_k ** 2``)
    the result is exact up to rounding error.
    """
    cores = y.cores
    d = y.order
    ranks = [
        min(cap, r * r)
        for cap, r in zip(bounded_ranks(y.mode_sizes, max_rank), y.ranks)
    ]

    # Right-to-left: w[k] contracts cores k.. of y * y with cores k.. of R.
    w = [None] * (d + 1)
    w[d] = np.ones((1, 1, 1))
    for k in range(d - 1, 0, -1):
        g = cores[k]
        sketch = rng.standard_normal((ranks[k], g.shape[1], ranks[k + 1]))
        t = np.einsum("bcm,lim->bcil", w[k + 1], sketch, optimize=True)
        t = np.einsum("aib,bcil->aicl", g, t, optimize=True)
        w[k] = np.einsum("aicl,eic->ael", t, g, optimize=True)

    # Left-to-right: carry (l, r, r) holds the projected square's left part.
    out = []
    carry = np.ones((1, 1, 1))
    for k, g in enumerate(cores):
        _, n, s = g.shape
        a = np.einsum("lab,aic->libc", carry, g, optimize=True)
        a = np.einsum("libc,bie->lice", a, g, optimize=True)
        a = a.reshape(-1, s * s)
        if k == d - 1:
            out.append(a.reshape(-1, n, 1))
        else:
            q, _ = np.linalg.qr(a @ w[k + 1].reshape(s * s, -1))
            out.append(q.reshape(-1, n, q.shape[1]))
            carry = (q.T @ a).reshape(-1, s, s)
    return tt_round(TensorTrain(out), max_rank, rel_tol)


def tt_power_argmax(
    tt: TensorTrain, config: PowerConfig, *, seed: int = 0
) -> tuple[tuple[int, ...], float]:
    """Index and value of (approximately) the largest entry of ``tt``.

    Iterates ``y <- round(y * y, max_rank, rel_tol)`` starting from the
    shifted tensor, normalizing each step.  Each square is rounded by a
    Gaussian sketch of ``y``'s cores (randomize-then-orthogonalize, Al Daas
    et al., arXiv 2110.04393) followed by :func:`tt_round`; it is exact
    whenever the square's rank fits under ``max_rank``.  The final iterate is
    cross sampled with maxvol pivoting, and the sampled index with the
    largest iterate value is returned together with the value of the
    ORIGINAL tensor there.

    ``seed`` drives two independent streams: one for the shift probes and
    the final cross's seed, and a child stream
    (``SeedSequence(seed).spawn(1)[0]``) for the sketches, so equal seeds
    give equal results.
    """
    rng = np.random.default_rng(seed)
    sketch_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    shift = config.shift if config.shift is not None else _estimate_shift(tt, rng)
    y = tt_shift(tt, shift)

    for step in range(config.steps):
        y = _square_round(y, config.max_rank, config.rel_tol, sketch_rng)
        norm = frobenius_norm(y)
        if not np.isfinite(norm) or norm == 0.0 or any(
            not np.all(np.isfinite(core)) for core in y.cores
        ):
            raise RuntimeError(
                f"power iteration produced a non-finite iterate at step {step + 1}"
            )
        y = tt_scale(y, 1.0 / norm)

    cross_rank = min(config.max_rank, max(y.ranks))
    sampled = IndexCache()
    cross_seed = int(rng.integers(0, 2**63))
    requests = cross_requests(y.mode_sizes, cross_rank, 2, cross_seed, cache=sampled, log=None)
    _drive_requests(requests, tensor_oracle(y))
    key, _ = sampled.largest()
    best_idx = tuple(unpack_keys([key], y.order)[0].tolist())
    return best_idx, tt_eval(tt, best_idx)


def rank_growth_probe(tt: TensorTrain, steps: int) -> list[int]:
    """Bond-rank growth of repeated squaring, before any lossy rounding.

    Entry 0 is the current maximal bond rank; each following entry squares
    every interior bond rank and clips it at that bond's unfolding bound
    (the largest rank a lossless representation can need).  With generous
    mode sizes the sequence is ``r, r**2, r**4, ...``.
    """
    steps = whole_number("steps", steps, 0)
    shape = tt.mode_sizes
    d = tt.order
    if d == 1:
        return [1] * (steps + 1)
    caps = [
        min(prod(shape[: j + 1]), prod(shape[j + 1 :])) for j in range(d - 1)
    ]
    ranks = list(tt.ranks[1:d])
    sequence = [max(ranks)]
    for _ in range(steps):
        ranks = [min(r * r, cap) for r, cap in zip(ranks, caps)]
        sequence.append(max(ranks))
    return sequence
