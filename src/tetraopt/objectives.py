"""Objective functions: mixing-quality score, mixer surrogate, benchmarks.

Everything here is a pure function of its input vector, so objectives are
safe to evaluate concurrently.  Latency and failure behavior are carried as
data on :class:`BlackBoxObjective` and applied by ``evaluate``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import numbers
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class EvaluationFailure(RuntimeError):
    """Raised when an objective's failure model triggers at a point.

    The message is formatted only when asked for: callers such as the batch
    harness catch failures by the thousand and never read it.
    """

    def __init__(self, point):
        self.point = np.asarray(point, dtype=np.float64)
        super().__init__(self.point)

    def __str__(self) -> str:
        return f"objective evaluation failed at {self.point}"


def real_value(value) -> float:
    """``float(value)``, except that text raises ``TypeError`` even when it spells a number."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"expected a real number, got {type(value).__name__}")
    return float(value)


def whole_number(name: str, value, least: int) -> int:
    """``operator.index(value)``, so numpy integers pass too.

    Raises ``ValueError`` naming ``name`` for a bool, a value that is not an
    integer, or one below ``least``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or number < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return number


def finite_number(name: str, value, least: float = -math.inf) -> float:
    """``float(value)`` for a real number, numpy's included.

    Raises ``ValueError`` naming ``name`` for a bool, text or other
    non-number, a NaN, an infinity (an integer beyond float range counts as
    one), or a value below ``least``.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and number >= least):
        at_least = "" if least == -math.inf else f" >= {least:g}"
        raise ValueError(f"{name} must be a finite number{at_least}, got {value!r}")
    return number


def bound_pairs(name: str, bounds) -> tuple[tuple[float, float], ...]:
    """``bounds`` as ``(lower, upper)`` float pairs, each read by :func:`finite_number`.

    Raises ``ValueError`` naming ``name`` for an item that is not a pair or
    has ``lower > upper``.  ``lower == upper`` fixes an axis.
    """
    pairs = []
    for pos, pair in enumerate(bounds):
        field = f"{name}[{pos}]"
        try:
            lower, upper = pair
        except (TypeError, ValueError):
            raise ValueError(f"{field} must be a (lower, upper) pair, got {pair!r}") from None
        lower = finite_number(f"{field} lower", lower)
        upper = finite_number(f"{field} upper", upper)
        if lower > upper:
            raise ValueError(f"{field} needs lower <= upper, got {pair!r}")
        pairs.append((lower, upper))
    return tuple(pairs)


@dataclass(frozen=True)
class BlackBoxObjective:
    """A function known only through point evaluations.

    ``evaluator`` must be deterministic.  ``latency_s`` makes every call
    consume at least that much wall time (a stand-in for an expensive
    simulation).  ``failure_model``, when set, is a deterministic predicate
    marking points whose evaluation raises :class:`EvaluationFailure`.

    ``dimension`` must be an integer >= 1, ``bounds`` one finite
    ``(lower, upper)`` pair with ``lower <= upper`` per dimension, and
    ``latency_s`` a finite number >= 0; anything else raises a ``ValueError``
    naming the field.  They are stored as ``int``, float pairs and ``float``.
    """

    name: str
    dimension: int
    bounds: tuple[tuple[float, float], ...]
    evaluator: Callable[[np.ndarray], float]
    latency_s: float = 0.0
    failure_model: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self):
        dimension = whole_number("dimension", self.dimension, 1)
        bounds = bound_pairs("bounds", self.bounds)
        if len(bounds) != dimension:
            raise ValueError(f"bounds has {len(bounds)} pairs for dimension {dimension}")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "latency_s", finite_number("latency_s", self.latency_s, 0))

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.name}: expected a {self.dimension}-vector, got shape {x.shape}"
            )
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        if self.failure_model is not None and self.failure_model(x):
            raise EvaluationFailure(x)
        return real_value(self.evaluator(x))

    __call__ = evaluate


def with_latency(obj: BlackBoxObjective, delay_s: float) -> BlackBoxObjective:
    """Copy of ``obj`` whose every evaluation takes at least ``delay_s``."""
    return dataclasses.replace(obj, latency_s=finite_number("delay_s", delay_s, 0))


def seeded_failure_model(rate: float, seed: int) -> Callable[[np.ndarray], bool]:
    """Deterministic predicate failing a ``rate`` fraction of points.

    The decision depends only on (seed, point bytes), so repeated runs fail
    at exactly the same points.  ``rate`` is a finite number in ``[0, 1]``
    and ``seed`` an integer in ``[0, 2**64)``, numpy's included: it keys the
    hash as eight bytes.  Anything else raises a ``ValueError`` naming the
    argument.
    """
    rate = finite_number("rate", rate, 0)
    if rate > 1:
        raise ValueError(f"rate must lie in [0, 1], got {rate!r}")
    seed = whole_number("seed", seed, 0)
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed!r}")

    def fails(x: np.ndarray) -> bool:
        digest = hashlib.blake2b(
            np.ascontiguousarray(x, dtype=np.float64).tobytes(),
            key=seed.to_bytes(8, "little"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "little") / 2**64 < rate

    return fails


# ---------------------------------------------------------------------------
# Mixing-quality score


@dataclass(frozen=True)
class SectionField:
    """Phase fractions in [0, 1] on a cut plane, with optional finite positive area weights."""

    fractions: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        fractions = np.asarray(self.fractions, dtype=np.float64)
        if fractions.ndim != 1 or fractions.size == 0:
            raise ValueError("fractions must be a nonempty 1-D array")
        if not np.all((fractions >= 0) & (fractions <= 1)):
            raise ValueError("fractions must be numbers in [0, 1]")
        object.__setattr__(self, "fractions", fractions)
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=np.float64)
            if weights.shape != fractions.shape:
                raise ValueError("weights must match fractions in length")
            if not np.all((weights > 0) & (weights < np.inf)):
                raise ValueError("weights must be finite positive numbers")
            object.__setattr__(self, "weights", weights)


def cov(field: SectionField) -> float:
    """Coefficient of variation of the phase fraction: population std / mean.

    Zero means a perfectly homogeneous section.  Weighted statistics are used
    when the field carries weights.  A zero mean leaves the ratio undefined
    and is rejected.
    """
    f = field.fractions
    w = field.weights
    if w is None:
        mean = float(f.mean())
        std = float(f.std())
    else:
        total = float(w.sum())
        mean = float((w * f).sum() / total)
        std = float(np.sqrt((w * (f - mean) ** 2).sum() / total))
    if mean <= 0:
        raise ValueError("coefficient of variation undefined for zero mean fraction")
    return std / mean


def section_from_csv(path) -> SectionField:
    """Load a SectionField from CSV rows of ``fraction[,weight]``.

    The first row is a header, and skipped, when its first cell neither
    parses as a number nor starts like one (a digit, ``+``, ``-`` or ``.``).
    Either every row carries a weight or none does.  A row that does not
    parse is named by ``path:line``, and a file without data rows by ``path``.
    """
    fractions: list[float] = []
    weights: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    start = 0
    if rows and (head := rows[0][1][0].lstrip())[:1] not in tuple("+-.0123456789"):
        try:
            float(head)
        except ValueError:
            start = 1
    if len(rows) == start:
        raise ValueError(f"{path}: empty section file (no data rows)")
    for lineno, row in rows[start:]:
        if len(row) not in (1, 2):
            raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns")
        try:
            fraction, *weight = map(float, row)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        fractions.append(fraction)
        weights += weight
    if weights and len(weights) != len(fractions):
        raise ValueError(f"{path}: weights present on only some rows")
    return SectionField(
        fractions=np.array(fractions),
        weights=np.array(weights) if weights else None,
    )


# ---------------------------------------------------------------------------
# Y-mixer surrogate
#
# Analytic stand-in for a CFD-driven mixing-quality landscape over the four
# geometry parameters.  In unit-box coordinates u it reads
#
#   f(u) = 0.55 - 0.45 * exp(-(q1(u)/0.9)^8)        deep basin, flat bottom
#               - 0.30 * exp(-q2(u))                 shallower decoy basin
#               + 0.015 * (1 - exp(-(q1/0.9)^8)) * sin(3*pi*u_len) * cos(2*pi*u_angle)
#
# where q1, q2 are squared scaled distances to the basin centers.  Both
# centers sit on the default 5-point grid.  The octic profile keeps the deep
# basin flat across its one-step grid neighbors and steep beyond; the decoy
# is narrow along the angle axis, so its tail is negligible (< 1e-5) inside
# the deep basin and cannot reorder it.  The ripple is likewise suppressed
# there.  The landscape is smooth, nonnegative, and shows two separated
# local minima in the (connection length, y-angle) plane.

MIXER_BOUNDS: tuple[tuple[float, float], ...] = (
    (0.0, 30.0),  # y-angle, degrees
    (0.2, 0.5),  # connection radius, mm
    (0.5, 1.5),  # connection length, mm
    (0.2, 0.6),  # inlet radius, mm
)

# Lipschitz bound for |f(p) - f(q)| <= L * ||p - q||_2 in original units
# (dominated by the mm axes; verified against dense finite differences).
MIXER_LIPSCHITZ = 24.0

_DEEP_CENTER = np.array([0.75, 0.25, 0.25, 0.25])
_DEEP_WIDTH = np.array([0.40, 0.40, 0.40, 0.40])
_DECOY_CENTER = np.array([0.25, 0.50, 0.75, 0.50])
_DECOY_WIDTH = np.array([0.10, 0.50, 0.35, 0.50])


def _mixer_value(u: np.ndarray) -> float:
    q1 = float(np.sum(((u - _DEEP_CENTER) / _DEEP_WIDTH) ** 2))
    q2 = float(np.sum(((u - _DECOY_CENTER) / _DECOY_WIDTH) ** 2))
    deep = np.exp(-((q1 / 0.9) ** 8))
    ripple = 0.015 * (1.0 - deep) * np.sin(3 * np.pi * u[2]) * np.cos(2 * np.pi * u[0])
    return float(0.55 - 0.45 * deep - 0.30 * np.exp(-q2) + ripple)


def mixer_surrogate(p) -> float:
    """Mixing-quality score of a Y-mixer geometry (lower is better mixing).

    ``p`` is (y-angle deg, connection radius mm, connection length mm, inlet
    radius mm) and must lie inside :data:`MIXER_BOUNDS`, which a NaN does not.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (4,):
        raise ValueError(f"mixer surrogate expects a 4-vector, got shape {p.shape}")
    lows, highs = np.array(MIXER_BOUNDS).T
    if not np.all((p >= lows - 1e-12) & (p <= highs + 1e-12)):
        raise ValueError(f"point {p.tolist()} outside the mixer parameter box")
    u = (p - lows) / (highs - lows)
    return _mixer_value(u)


def mixer_objective(latency_s: float = 0.0) -> BlackBoxObjective:
    return BlackBoxObjective(
        name="mixer",
        dimension=4,
        bounds=MIXER_BOUNDS,
        evaluator=mixer_surrogate,
        latency_s=latency_s,
    )


# ---------------------------------------------------------------------------
# Standard benchmark functions

def _quadratic(x: np.ndarray) -> float:
    return float(np.sum(x**2))


def _rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _rastrigin(x: np.ndarray) -> float:
    return float(10.0 * x.size + np.sum(x**2 - 10.0 * np.cos(2 * np.pi * x)))


def _ackley(x: np.ndarray) -> float:
    d = x.size
    s1 = np.sum(x**2)
    s2 = np.sum(np.cos(2 * np.pi * x))
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(s1 / d)) - np.exp(s2 / d) + 20.0 + np.e
    )


# Each benchmark's function and the half-width of its box around the origin.
_BENCHMARKS = {
    "quadratic": (_quadratic, 5.0),
    "rosenbrock": (_rosenbrock, 2.048),
    "rastrigin": (_rastrigin, 5.12),
    "ackley": (_ackley, 32.768),
}
BENCHMARK_NAMES = tuple(_BENCHMARKS)


def benchmark(name: str, dimension: int) -> BlackBoxObjective:
    """Standard global-optimization test function.

    Global minima: quadratic, rastrigin, and ackley are 0 at the origin;
    rosenbrock is 0 at the all-ones point (and needs dimension >= 2).
    """
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; pick one of {sorted(_BENCHMARKS)}")
    dimension = whole_number("dimension", dimension, 1)
    if name == "rosenbrock" and dimension < 2:
        raise ValueError("rosenbrock needs dimension >= 2")
    evaluator, half_width = _BENCHMARKS[name]
    return BlackBoxObjective(
        name=name,
        dimension=dimension,
        bounds=((-half_width, half_width),) * dimension,
        evaluator=evaluator,
    )


def shifted_quadratic(center, bounds=None) -> BlackBoxObjective:
    """Separable quadratic ``sum((x - center)**2)`` with its minimum at ``center``.

    Every coordinate of ``center`` must be a finite number; ``bounds``
    defaults to ``center ± 5`` on every axis.
    """
    center = np.array([finite_number(f"center[{pos}]", c) for pos, c in enumerate(center)])
    if bounds is None:
        bounds = tuple((c - 5.0, c + 5.0) for c in center)
    return BlackBoxObjective(
        name="quadratic",
        dimension=center.size,
        bounds=bounds,
        evaluator=lambda x: float(np.sum((x - center) ** 2)),
    )
