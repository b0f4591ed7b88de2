"""Sequential Bayesian optimization baseline: GP surrogate + UCB proposals.

The surrogate is a fixed-hyperparameter Gaussian process (Matérn 5/2 by
default, unit signal variance on standardized targets).  The driver scales
inputs to the unit cube, so a length scale of 0.25 spans a quarter of the
box.  One objective evaluation happens per iteration; the loop is sequential
by nature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .harness import PENALTY_VALUE
from .objectives import BlackBoxObjective
from .trace import OptimizationTrace

DEFAULT_LENGTH_SCALE = 0.25
DEFAULT_NOISE_VARIANCE = 1e-6
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance: ``matern52`` or ``rbf``."""

    variant: str = "matern52"
    length_scale: float = DEFAULT_LENGTH_SCALE
    signal_variance: float = 1.0

    def __post_init__(self):
        if self.variant not in ("matern52", "rbf"):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.length_scale <= 0 or self.signal_variance <= 0:
            raise ValueError("kernel hyperparameters must be positive")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between the rows of ``a`` and ``b``."""
        diff = a[:, None, :] - b[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        if self.variant == "rbf":
            return self.signal_variance * np.exp(-0.5 * (dist / self.length_scale) ** 2)
        s = np.sqrt(5.0) * dist / self.length_scale
        return self.signal_variance * (1.0 + s + s**2 / 3.0) * np.exp(-s)


@dataclass
class GaussianProcessModel:
    """Fitted GP posterior with a cached Cholesky factorization.

    Targets are standardized internally (zero mean, unit variance);
    predictions are returned on the original scale.
    """

    observed_x: np.ndarray
    observed_y: np.ndarray
    kernel: Kernel
    noise_variance: float
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
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
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
            observed_y=y,
            kernel=kernel,
            noise_variance=noise_variance,
            y_shift=y_shift,
            y_scale=y_scale,
            _chol=chol,
            _alpha=alpha,
        )
    raise np.linalg.LinAlgError(
        f"kernel matrix singular even with jitter {_JITTERS[-1]}"
    ) from last_error


def _predict_many(model: GaussianProcessModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    from scipy.linalg import cho_solve

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k_star = model.kernel(x, model.observed_x)
    mean = k_star @ model._alpha
    v = cho_solve(model._chol, k_star.T)
    # Latent posterior variance, clamped: exact zeros come out as tiny
    # negatives in floating point.
    var = model.kernel.signal_variance - np.sum(k_star * v.T, axis=1)
    std = np.sqrt(np.clip(var, 0.0, None))
    return model.y_shift + model.y_scale * mean, model.y_scale * std


def gp_predict(model: GaussianProcessModel, x) -> tuple[float, float]:
    """Posterior mean and standard deviation at a single point."""
    mean, std = _predict_many(model, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return float(mean[0]), float(std[0])


def acquisition_ucb(model: GaussianProcessModel, x, kappa: float) -> float:
    """Upper confidence bound ``mean + kappa * std`` (maximization convention)."""
    mean, std = gp_predict(model, x)
    return mean + kappa * std


def propose_next(model: GaussianProcessModel, bounds, kappa: float, seed: int) -> np.ndarray:
    """Approximate acquisition argmax inside ``bounds``.

    2048 seeded uniform candidates, then three rounds of per-coordinate
    refinement with a halving step.  Deterministic given the seed.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    widths = highs - lows
    rng = np.random.default_rng(seed)

    candidates = lows + rng.random((2048, len(bounds))) * widths
    mean, std = _predict_many(model, candidates)
    scores = mean + kappa * std
    best = candidates[int(np.argmax(scores))].copy()
    best_score = float(np.max(scores))

    step = widths / 8.0
    for _ in range(3):
        for axis in range(len(bounds)):
            for direction in (-1.0, 1.0):
                trial = best.copy()
                trial[axis] = np.clip(trial[axis] + direction * step[axis], lows[axis], highs[axis])
                mean, std = _predict_many(model, trial.reshape(1, -1))
                score = float(mean[0] + kappa * std[0])
                if score > best_score:
                    best_score = score
                    best = trial
        step = step / 2.0
    return best


@dataclass(frozen=True)
class BayesConfig:
    """Driver settings; defaults match the reference comparison setup."""

    bounds: tuple[tuple[float, float], ...]
    n_initial: int = 5
    n_iterations: int = 30
    kappa: float = 2.576
    seed: int = 0
    kernel: Kernel = Kernel()
    noise_variance: float = DEFAULT_NOISE_VARIANCE

    def __post_init__(self):
        if self.n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        object.__setattr__(
            self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        )


def bayes_minimize(
    objective: BlackBoxObjective,
    config: BayesConfig,
    *,
    penalty: float = PENALTY_VALUE,
) -> OptimizationTrace:
    """Minimize with sequential GP/UCB proposals.

    Exactly ``n_initial + n_iterations`` objective evaluations happen, one at
    a time.  The GP is fit on unit-cube coordinates of the negated objective
    (so UCB maximization seeks low objective values).  Failed evaluations get
    the penalty value and never become incumbents.
    """
    bounds = config.bounds
    if objective.dimension != len(bounds):
        raise ValueError(
            f"objective dimension {objective.dimension} != bounds dimension {len(bounds)}"
        )
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    widths = highs - lows
    degenerate_axes = widths <= 0

    def normalize(p: np.ndarray) -> np.ndarray:
        u = np.zeros_like(p)
        live = ~degenerate_axes
        u[live] = (p[live] - lows[live]) / widths[live]
        return u

    rng = np.random.default_rng(config.seed)
    seeds = rng.integers(0, 2**63, size=config.n_iterations)

    started_at = time.perf_counter()
    trace = OptimizationTrace()
    xs: list[np.ndarray] = []
    raw: list[float] = []
    ok: list[bool] = []
    best = float("inf")
    best_point: np.ndarray | None = None

    def observe(point: np.ndarray) -> None:
        nonlocal best, best_point
        try:
            value = objective.evaluate(point)
            good = np.isfinite(value)
        except Exception:
            value, good = penalty, False
        value = float(value) if good else penalty
        xs.append(point)
        raw.append(value)
        ok.append(good)
        if good and value < best:
            best = value
            best_point = point
        # One trace row per evaluation: the incumbent curve is step-shaped.
        if best_point is not None:
            trace.record(len(xs), time.perf_counter() - started_at, best, best_point)

    for _ in range(config.n_initial):
        observe(lows + rng.random(len(bounds)) * widths)

    for iteration in range(config.n_iterations):
        train_x = np.array([normalize(p) for p in xs])
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
        if xs and min(float(np.max(np.abs(normalize(p) - unit))) for p in xs) < 1e-12:
            # Repeated proposal: nudge by one part in 1e6 of the box.
            candidate = np.minimum(candidate + 1e-6 * np.where(widths > 0, widths, 1.0), highs)
        observe(candidate)

    trace.total_calls = len(xs)
    trace.total_runtime_s = time.perf_counter() - started_at
    return trace
