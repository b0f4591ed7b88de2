"""Correctness checks on the outputs of one benchmark problem.

Every check returns a list of error messages; an empty list means it
passed.  They take plain values so that a test can hand each one a
deliberately wrong result and see it trip.
"""

from __future__ import annotations

import math

import numpy as np

RECONSTRUCTION_TOL = 1e-8


def call_budget(total_calls: int, budget: int, what: str = "total_calls") -> list[str]:
    """Unique evaluations stay within the cross budget."""
    if total_calls > budget:
        return [f"{what} {total_calls} exceeds the budget {budget}"]
    return []


def optimizer_budget(iterations: int, shape, rank: int) -> int:
    """``min(2 * iters * d * n * r**2, grid size)`` with ``n`` the largest mode."""
    d, n = len(shape), max(shape)
    return min(2 * iterations * d * n * rank * rank, math.prod(shape))


def cross_budget(sweeps: int, shape, rank: int) -> int:
    """``2 * sweeps * d * n * r**2`` with ``n`` the largest mode."""
    return 2 * sweeps * len(shape) * max(shape) * rank * rank


def exact_calls(total_calls: int, expected: int) -> list[str]:
    if total_calls != expected:
        return [f"expected exactly {expected} calls, got {total_calls}"]
    return []


def at_least_grid_min(best_value: float, grid_min: float) -> list[str]:
    """No run can beat the exhaustive grid minimum."""
    if best_value < grid_min:
        return [f"best_value {best_value!r} is below the grid minimum {grid_min!r}"]
    return []


def best_matches_objective(best_value: float, best_point, evaluator) -> list[str]:
    """The reported best value is the objective's value at the reported point."""
    if best_point is None:
        return ["run reported no incumbent"]
    again = float(evaluator(np.asarray(best_point, dtype=np.float64)))
    if again != best_value:
        return [f"best_value {best_value!r} but the objective gives {again!r} at best_point"]
    return []


def best_not_failed(best_point, failure_model) -> list[str]:
    """An injected failure never becomes the incumbent."""
    if best_point is not None and failure_model(np.asarray(best_point, dtype=np.float64)):
        return ["best_point lands on an injected failure"]
    return []


def reconstruction_error(truth: np.ndarray, guess: np.ndarray) -> float:
    """Largest probe error relative to the largest probed magnitude."""
    scale = float(np.max(np.abs(truth)))
    return float(np.max(np.abs(guess - truth))) / (scale if scale > 0 else 1.0)


def reconstruction_within(rel_error: float, what: str) -> list[str]:
    if not rel_error <= RECONSTRUCTION_TOL:
        return [f"{what}: relative probe error {rel_error:.3e} above {RECONSTRUCTION_TOL:.0e}"]
    return []


def power_value_matches(value: float, expected: float) -> list[str]:
    """The power method's value is the reconstruction's entry at its index."""
    errors = []
    if value != expected:
        errors.append(f"power value {value!r} but the reconstruction holds {expected!r}")
    if not value > 0:
        errors.append(f"power value {value!r} is not positive on a nonnegative train")
    return errors


def same_counts(first: dict, again: dict, what: str) -> list[str]:
    """Counts shared by two runs of the same problem repeat exactly."""
    return [
        f"{what}: {key} was {first[key]!r}, now {again[key]!r}"
        for key in sorted(first.keys() & again.keys())
        if first[key] != again[key]
    ]
