"""Pinned digests of ``bayes_minimize`` traces.

``tests/data/gp_golden.json`` holds sha256 digests of GP/UCB runs: every
trace event's call count, best value and best point, bit for bit, plus the
total call count.  Any change to the kernel's rounding, to the posterior
solves, to the proposals or to the handling of failed and repeated points
changes a digest.  Regenerate the file only for a change that is meant to
move the BO trajectory:

    PYTHONPATH=src python tests/test_gp_golden.py > tests/data/gp_golden.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from tetraopt import (
    MIXER_BOUNDS,
    BayesConfig,
    bayes_minimize,
    benchmark,
    mixer_objective,
    seeded_failure_model,
)
from tetraopt.objectives import BlackBoxObjective

GOLDEN = Path(__file__).parent / "data" / "gp_golden.json"


def _trace_digest(trace, sampled=()) -> str:
    record = [trace.total_calls] + [
        [e.unique_calls_so_far, e.best_value.hex(), [x.hex() for x in e.best_point]]
        for e in trace.events
    ]
    record += [[float(x).hex() for x in point] for point in sampled]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def mixer(seed: int) -> str:
    """The paper's 4-D mixer with the default 5 + 30 evaluations."""
    return _trace_digest(bayes_minimize(mixer_objective(), BayesConfig(bounds=MIXER_BOUNDS, seed=seed)))


def rastrigin_d9_failures() -> str:
    """Rastrigin in 9-D with 20% seeded failures: the kernel sums 9 terms."""
    objective = dataclasses.replace(
        benchmark("rastrigin", 9), failure_model=seeded_failure_model(0.2, 11)
    )
    return _trace_digest(bayes_minimize(objective, BayesConfig(bounds=objective.bounds, seed=3)))


def flat_with_fixed_axis() -> str:
    """A constant objective on a box with one degenerate axis.

    The incumbent never moves, so the digest also covers every sampled
    point, among them the nudged repeats of earlier proposals.
    """
    sampled = []
    objective = BlackBoxObjective(
        name="flat",
        dimension=3,
        bounds=((0.0, 1.0), (2.0, 2.0), (-1.0, 3.0)),
        evaluator=lambda x: sampled.append(x.copy()) or 1.5,
    )
    config = BayesConfig(bounds=objective.bounds, n_initial=2, n_iterations=12, seed=8)
    return _trace_digest(bayes_minimize(objective, config), sampled)


CASES = {
    "mixer_seed0": lambda: mixer(0),
    "mixer_seed1": lambda: mixer(1),
    "mixer_seed2": lambda: mixer(2),
    "rastrigin_d9_failures": rastrigin_d9_failures,
    "flat_with_fixed_axis": flat_with_fixed_axis,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bo_trace_matches_the_pinned_digest(name):
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    assert CASES[name]() == pinned[name]


if __name__ == "__main__":
    print(json.dumps({name: make() for name, make in CASES.items()}, indent=2))
