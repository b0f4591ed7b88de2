"""Sequential Bayesian optimization baseline: GP surrogate + UCB proposals.

The surrogate is a fixed-hyperparameter Gaussian process with a Matérn 5/2
kernel, the only kernel offered, and unit signal variance on standardized
targets.  The driver scales inputs to the unit cube, so a length scale of
0.25 spans a quarter of the box.  One objective evaluation happens per
iteration; the loop is sequential by nature.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .harness import evaluate_point
from .objectives import BlackBoxObjective, bound_pairs, finite_number, whole_number
from .trace import OptimizationTrace

DEFAULT_LENGTH_SCALE = 0.25
DEFAULT_NOISE_VARIANCE = 1e-6
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
PROPOSAL_CANDIDATES = 2048  # uniform candidates each proposal scores first


@dataclass(frozen=True)
class Kernel:
    """Stationary Matérn 5/2 covariance, the only kernel the GP uses.

    ``length_scale`` and ``signal_variance`` are positive finite numbers,
    stored as ``float``; anything else raises a ``ValueError`` naming them.
    """

    length_scale: float = DEFAULT_LENGTH_SCALE
    signal_variance: float = 1.0

    def __post_init__(self):
        for name in ("length_scale", "signal_variance"):
            field = f"kernel hyperparameters: {name}"
            value = finite_number(field, getattr(self, name), 0)
            if value == 0:
                raise ValueError(f"{field} must be positive, got {value!r}")
            object.__setattr__(self, name, value)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between the rows of ``a`` and ``b``."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        squared = _squared_distances(a.T[:, :, None], b.T, 0, a.shape[1])
        s = np.sqrt(squared, out=np.empty((len(a), len(b))))
        s *= np.sqrt(5.0)
        s /= self.length_scale
        # signal_variance * (1 + s + s**2 / 3) * exp(-s), rounded step by step
        # as that expression is, but in two buffers, not one per operation.
        poly = s + 1.0
        square = np.multiply(s, s)
        square /= 3.0
        poly += square
        poly *= self.signal_variance
        poly *= np.exp(np.negative(s, out=s), out=s)
        return poly


# numpy's pairwise summation (PW_BLOCKSIZE): longer runs are split in two.
_PAIRWISE_BLOCK = 128


def _squared_distances(a_cols: np.ndarray, b_rows: np.ndarray, start: int, count: int):
    """``np.sum((a[:, None] - b[None]) ** 2, axis=-1)`` over ``count``
    coordinates from ``start``, bit for bit.

    ``a_cols`` is ``a.T[:, :, None]`` and ``b_rows`` is ``b.T``.  The terms
    are added into ``(n, m)`` arrays one coordinate at a time, in the order
    numpy's pairwise summation adds them, so no ``(n, m, d)`` temporary is
    built.  With no coordinates the sum is the scalar 0.0.
    """
    if count > _PAIRWISE_BLOCK:
        half = count // 2 - (count // 2) % 8
        return _squared_distances(a_cols, b_rows, start, half) + _squared_distances(
            a_cols, b_rows, start + half, count - half
        )
    # Eight interleaved partial sums over the largest multiple of 8 terms,
    # combined as a tree, then the rest one by one.  Below 8 terms every
    # partial sum is empty and the terms are added one after another.
    whole = count - count % 8
    r = [0.0] * 8
    for i in range(whole):
        r[i % 8] = _plus_square(r[i % 8], a_cols[start + i], b_rows[start + i])
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for k in range(start + whole, start + count):
        total = _plus_square(total, a_cols[k], b_rows[k])
    return total


def _plus_square(total, a_col: np.ndarray, b_row: np.ndarray) -> np.ndarray:
    # ``total`` starts as 0.0, and 0.0 + t == t exactly for a square t:
    # numpy starts each partial sum at its first term instead.
    term = a_col - b_row
    return np.add(total, np.multiply(term, term, out=term), out=term)


@dataclass
class GaussianProcessModel:
    """Fitted GP posterior with a cached Cholesky factorization.

    Targets are standardized internally (zero mean, unit variance);
    predictions are returned on the original scale.
    """

    observed_x: np.ndarray
    kernel: Kernel
    y_shift: float
    y_scale: float
    _chol: tuple
    _alpha: np.ndarray


def gp_fit(x, y, kernel: Kernel | None = None, noise_variance: float = DEFAULT_NOISE_VARIANCE) -> GaussianProcessModel:
    """Fit a GP to observations; escalate diagonal jitter if ill-conditioned.

    Raises ``np.linalg.LinAlgError`` when even the largest jitter (1e-6)
    leaves the kernel matrix singular.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0] or y.size == 0:
        raise ValueError("need matching, nonempty observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("observations must be finite")
    noise_variance = finite_number("noise_variance", noise_variance, 0)
    kernel = kernel or Kernel()
    # Imported here, not at module level: only the GP baseline needs scipy,
    # and loading it would otherwise be paid by every ``import tetraopt``.
    from scipy.linalg import cho_factor, cho_solve

    y_shift = float(y.mean())
    spread = float(y.std())
    y_scale = spread if spread > 1e-12 else 1.0
    targets = (y - y_shift) / y_scale

    k = kernel(x, x)
    diag = np.arange(len(y))
    last_error: Exception | None = None
    for jitter in _JITTERS:
        mat = k.copy()
        mat[diag, diag] += noise_variance + jitter
        try:
            chol = cho_factor(mat, lower=True)
        except np.linalg.LinAlgError as err:
            last_error = err
            continue
        alpha = cho_solve(chol, targets)
        return GaussianProcessModel(
            observed_x=x,
            kernel=kernel,
            y_shift=y_shift,
            y_scale=y_scale,
            _chol=chol,
            _alpha=alpha,
        )
    raise np.linalg.LinAlgError(
        f"kernel matrix singular even with jitter {_JITTERS[-1]}"
    ) from last_error


def _predict_many(model: GaussianProcessModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # LAPACK's potrs, called as cho_solve calls it but without its finiteness
    # checks and batch wrapper: the kernel and the fitted model are checked
    # when built, and gp_predict and propose_next check what comes out.
    from scipy.linalg.lapack import dpotrs

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k_star = model.kernel(x, model.observed_x)
    mean = k_star @ model._alpha
    v, info = dpotrs(model._chol[0], k_star.T, lower=model._chol[1])
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    # Latent posterior variance, clamped: exact zeros come out as tiny
    # negatives in floating point.
    var = model.kernel.signal_variance - np.add.reduce(np.multiply(k_star, v.T, out=v.T), axis=1)
    std = np.sqrt(np.maximum(var, 0.0))
    return model.y_shift + model.y_scale * mean, model.y_scale * std


def gp_predict(model: GaussianProcessModel, x) -> tuple[float, float]:
    """Posterior mean and standard deviation at a single point."""
    mean, std = _predict_many(model, np.asarray(x, dtype=np.float64).reshape(1, -1))
    if not (math.isfinite(mean[0]) and math.isfinite(std[0])):
        raise ValueError("posterior is not finite at this point: the query is not finite or too far")
    return float(mean[0]), float(std[0])


def acquisition_ucb(model: GaussianProcessModel, x, kappa: float) -> float:
    """Upper confidence bound ``mean + kappa * std`` (maximization convention)."""
    mean, std = gp_predict(model, x)
    return mean + kappa * std


def propose_next(model: GaussianProcessModel, bounds, kappa: float, seed: int) -> np.ndarray:
    """Approximate acquisition argmax inside ``bounds``.

    ``PROPOSAL_CANDIDATES`` seeded uniform candidates, then three rounds of
    per-coordinate refinement with a halving step.  Deterministic given the
    seed.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    widths = highs - lows
    rng = np.random.default_rng(seed)

    candidates = lows + rng.random((PROPOSAL_CANDIDATES, len(bounds))) * widths
    mean, std = _predict_many(model, candidates)
    scores = mean + kappa * std
    top = int(np.argmax(scores))  # the first NaN, if there is one
    best = candidates[top].copy()
    best_score = float(scores[top])
    if not math.isfinite(best_score):
        raise ValueError("acquisition is not finite: non-finite kappa or bounds, or bounds too wide")

    step = widths / 8.0
    for _ in range(3):
        for axis, (lo, hi) in enumerate(bounds):
            for direction in (-1.0, 1.0):
                trial = best.copy()
                # The builtins clip exactly as np.clip does on non-NaN floats.
                trial[axis] = min(max(best[axis] + direction * step[axis], lo), hi)
                mean, std = _predict_many(model, trial[None])
                score = float(mean[0] + kappa * std[0])
                if score > best_score:
                    best_score = score
                    best = trial
        step = step / 2.0
    return best


@dataclass(frozen=True)
class BayesConfig:
    """Driver settings; defaults match the reference comparison setup.

    ``bounds`` holds finite ``(lower, upper)`` pairs with ``lower <= upper``
    (equal ends fix an axis).  ``n_initial`` is an integer >= 1,
    ``n_iterations`` and ``seed`` integers >= 0, and ``kappa`` and
    ``noise_variance`` finite numbers >= 0.  Anything else raises a
    ``ValueError`` naming the field.
    """

    bounds: tuple[tuple[float, float], ...]
    n_initial: int = 5
    n_iterations: int = 30
    kappa: float = 2.576
    seed: int = 0
    kernel: Kernel = Kernel()
    noise_variance: float = DEFAULT_NOISE_VARIANCE

    def __post_init__(self):
        for name, least in (("n_initial", 1), ("n_iterations", 0), ("seed", 0)):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), least))
        for name in ("kappa", "noise_variance"):
            object.__setattr__(self, name, finite_number(name, getattr(self, name), 0))
        object.__setattr__(self, "bounds", bound_pairs("bounds", self.bounds))


def bayes_minimize(objective: BlackBoxObjective, config: BayesConfig) -> OptimizationTrace:
    """Minimize with sequential GP/UCB proposals.

    Exactly ``n_initial + n_iterations`` objective evaluations happen, one at
    a time.  The GP is fit on unit-cube coordinates of the negated objective
    (so UCB maximization seeks low objective values).  Failures follow the
    harness's one rule, :func:`~tetraopt.harness.evaluate_point`: a failed
    evaluation gets ``PENALTY_VALUE``, counts as a call and never becomes the
    incumbent.
    """
    bounds = config.bounds
    if objective.dimension != len(bounds):
        raise ValueError(
            f"objective dimension {objective.dimension} != bounds dimension {len(bounds)}"
        )
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    widths = highs - lows
    # A fixed axis (lo == hi) keeps every point at lo, so it normalizes to 0.
    spans = np.where(widths > 0, widths, 1.0)
    # Unit-cube coordinates of every evaluated point, one row per call.
    unit_x = np.empty((config.n_initial + config.n_iterations, len(bounds)))

    rng = np.random.default_rng(config.seed)
    seeds = rng.integers(0, 2**63, size=config.n_iterations)

    started_at = time.perf_counter()
    trace = OptimizationTrace()
    raw: list[float] = []
    ok: list[bool] = []
    best = float("inf")
    best_point: np.ndarray | None = None

    def observe(point: np.ndarray) -> None:
        nonlocal best, best_point
        value, failed = evaluate_point(objective, point)
        unit_x[len(raw)] = (point - lows) / spans
        raw.append(value)
        ok.append(not failed)
        if not failed and value < best:
            best = value
            best_point = point
        # One trace row per evaluation: the incumbent curve is step-shaped.
        if best_point is not None:
            trace.record(len(raw), time.perf_counter() - started_at, best, best_point)

    for _ in range(config.n_initial):
        observe(lows + rng.random(len(bounds)) * widths)

    for iteration in range(config.n_iterations):
        train_x = unit_x[: len(raw)]
        # Failed points enter the surrogate at the worst observed value so the
        # acquisition avoids them without the penalty wrecking standardization.
        finite = [v for v, good in zip(raw, ok) if good]
        ceiling = max(finite) if finite else 0.0
        train_y = np.array([-(v if good else ceiling) for v, good in zip(raw, ok)])
        model = gp_fit(train_x, train_y, config.kernel, config.noise_variance)
        unit = propose_next(
            model,
            [(0.0, 1.0)] * len(bounds),
            config.kappa,
            int(seeds[iteration]),
        )
        candidate = lows + unit * widths
        if np.min(np.max(np.abs(train_x - unit), axis=1)) < 1e-12:
            # Repeated proposal: nudge by one part in 1e6 of the box.
            candidate = np.minimum(candidate + 1e-6 * spans, highs)
        observe(candidate)

    trace.total_calls = len(raw)
    trace.total_runtime_s = time.perf_counter() - started_at
    return trace
