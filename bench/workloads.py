"""The four benchmark workloads: problem construction, timed run, checks.

A workload turns the benchmark's ``--seed`` into a fixed list of problem
seeds, so every run with that seed does the same work.  ``run(problem,
tracer)`` times only the calls into tetraopt; the checks run afterwards,
outside the timed region.  With a tracer the same calls go through the
wrapped layer boundaries of ``layers.py``.

Each workload also has a ``tiny`` size, used by the benchmark's own tests.
See README.md for why each workload is here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tetraopt
from tetraopt import (
    MIXER_BOUNDS,
    BayesConfig,
    PowerConfig,
    SearchGrid,
    TensorTrain,
    TetraOptConfig,
    benchmark,
    mixer_objective,
    seeded_failure_model,
    tensor_oracle,
    tt_eval,
    tt_eval_many,
    tt_full,
)

import checks
from layers import BatchCounter, TracedObjective, instrument, traced_cross
from spans import Tracer

MAX_PARALLEL = 2


@dataclass
class Outcome:
    """What one run of one problem produced."""

    wall_s: float
    total_calls: int
    batch_rounds: int
    best_value: float
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def counts(self) -> dict:
        return {
            "total_calls": self.total_calls,
            "batch_rounds": self.batch_rounds,
            "best_value": self.best_value,
        }


def problem_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _timed(tracer: Tracer | None, fn, *args, **kwargs):
    """Run ``fn`` under a ``problem`` span (traced) or a plain clock."""
    if tracer is None:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start
    result = tracer.call("problem", fn, *args, **kwargs)
    root = next(s for s in reversed(tracer.spans) if s.name == "problem")
    return result, root.duration


def _time_to_best(trace) -> float:
    return next(e.wall_time_s for e in trace.events if e.best_value == trace.best_value)


# ---------------------------------------------------------------------------
# tetraopt_minimize on a grid: mixer-16ms and rastrigin-d20-fail5


@dataclass(frozen=True)
class OptimizerProblem:
    objective: tetraopt.BlackBoxObjective
    config: TetraOptConfig


class OptimizerWorkload:
    """``tetraopt_minimize`` at ``max_parallel=2`` on a uniform grid."""

    def __init__(self, name, problems_per_run, make_objective, points, rank, iterations=2):
        self.name = name
        self.problems_per_run = problems_per_run
        self.make_objective = make_objective
        self.points = points
        self.rank = rank
        self.iterations = iterations

    def problems(self, seed: int) -> list[OptimizerProblem]:
        objective = self.make_objective()
        grid = SearchGrid([(lo, hi, self.points) for lo, hi in objective.bounds])
        return [
            OptimizerProblem(
                objective,
                TetraOptConfig(grid=grid, rank=self.rank, iterations=self.iterations, seed=s),
            )
            for s in problem_seeds(seed, self.problems_per_run)
        ]

    def run(self, problem: OptimizerProblem, tracer: Tracer | None = None) -> Outcome:
        objective = problem.objective
        counter = BatchCounter()
        with counter.hook(), (instrument(tracer) if tracer else contextlib.nullcontext()):
            if tracer is not None:
                objective = TracedObjective(objective, tracer)
                run = tracer.wrap("optimizer", tetraopt.tetraopt_minimize)
            else:
                run = tetraopt.tetraopt_minimize
            trace, wall = _timed(tracer, run, objective, problem.config, max_parallel=MAX_PARALLEL)

        config = problem.config
        errors = checks.call_budget(
            trace.total_calls,
            checks.optimizer_budget(config.iterations, config.grid.shape, config.rank),
        )
        errors += checks.best_matches_objective(
            trace.best_value, trace.best_point, problem.objective.evaluator
        )
        errors += self.extra_checks(problem, trace)
        return Outcome(
            wall_s=wall,
            total_calls=trace.total_calls,
            batch_rounds=counter.calls,
            best_value=trace.best_value,
            errors=errors,
            extra={"time_to_best_s": _time_to_best(trace)} if trace.events else {},
        )

    def extra_checks(self, problem, trace) -> list[str]:
        return []


class MixerWorkload(OptimizerWorkload):
    def __init__(self, name, problems_per_run, latency_s, grid_min_path: Path):
        super().__init__(name, problems_per_run, lambda: mixer_objective(latency_s), 5, 4)
        self.grid_min_path = grid_min_path

    def problems(self, seed):
        with open(self.grid_min_path) as fh:
            self.grid_min = float(json.load(fh)["value"])
        return super().problems(seed)

    def extra_checks(self, problem, trace):
        return checks.at_least_grid_min(trace.best_value, self.grid_min)


class FailingWorkload(OptimizerWorkload):
    def extra_checks(self, problem, trace):
        return checks.best_not_failed(trace.best_point, problem.objective.failure_model)


def _rastrigin_with_failures(dimension):
    def make():
        return dataclasses.replace(
            benchmark("rastrigin", dimension), failure_model=seeded_failure_model(0.05, 7)
        )

    return make


# ---------------------------------------------------------------------------
# cross-power: cross a signed train, then cross a nonnegative one and find
# its largest entry with the power method.


@dataclass(frozen=True)
class CrossPowerProblem:
    seed: int
    source: TensorTrain  # stage 1: signed
    positive: TensorTrain  # stage 2: nonnegative


class CrossPowerWorkload:
    def __init__(self, name, problems_per_run, stage1, stage2, power, probes=1000):
        self.name = name
        self.problems_per_run = problems_per_run
        self.stage1 = stage1  # (d, n, rank, sweeps)
        self.stage2 = stage2  # (d, n, rank, sweeps)
        self.power = power
        self.probes = probes

    def problems(self, seed: int) -> list[CrossPowerProblem]:
        out = []
        for s in problem_seeds(seed, self.problems_per_run):
            rng = np.random.default_rng(s)
            d1, n1, r1, _ = self.stage1
            d2, n2, r2, _ = self.stage2
            source = TensorTrain.random([n1] * d1, r1, rng)
            positive = TensorTrain.random([n2] * d2, r2, rng, nonnegative=True)
            out.append(CrossPowerProblem(s, source, positive))
        return out

    def run(self, problem: CrossPowerProblem, tracer: Tracer | None = None) -> Outcome:
        oracle_calls = [0]

        def oracle(tt):
            inner = tensor_oracle(tt)

            def evaluate(indices):
                oracle_calls[0] += 1
                return inner(indices)

            return evaluate

        if tracer is None:
            cross, power = tetraopt.tt_cross, tetraopt.tt_power_argmax

            def stage(_name, fn, *args):
                return fn(*args)
        else:
            cross = traced_cross(tracer, tetraopt.tt_cross, "cross.oracle")
            power = tracer.wrap("power", tetraopt.tt_power_argmax)
            stage = tracer.call

        _, _, r1, sweeps1 = self.stage1
        _, _, r2, sweeps2 = self.stage2
        shape1, shape2 = problem.source.mode_sizes, problem.positive.mode_sizes

        def both_stages():
            first = stage("stage1", cross, oracle(problem.source), shape1, r1, sweeps1, problem.seed)

            def second():
                approx, log = cross(oracle(problem.positive), shape2, r2, sweeps2, problem.seed)
                return approx, log, power(approx, self.power, seed=problem.seed)

            return first, stage("stage2", second)

        with instrument(tracer) if tracer else contextlib.nullcontext():
            ((approx1, log1), (approx2, log2, (idx, value))), wall = _timed(tracer, both_stages)

        errors = checks.call_budget(
            log1.unique_count, checks.cross_budget(sweeps1, shape1, r1), "stage 1 calls"
        )
        errors += checks.call_budget(
            log2.unique_count, checks.cross_budget(sweeps2, shape2, r2), "stage 2 calls"
        )
        rng = np.random.default_rng(problem.seed + 1)
        for what, source, approx in (
            ("stage 1", problem.source, approx1),
            ("stage 2", problem.positive, approx2),
        ):
            probes = np.stack([rng.integers(0, n, size=self.probes) for n in source.mode_sizes], axis=1)
            rel = checks.reconstruction_error(tt_eval_many(source, probes), tt_eval_many(approx, probes))
            errors += checks.reconstruction_within(rel, what)
        errors += checks.power_value_matches(value, tt_eval(approx2, idx))
        dense = tt_full(approx2)
        top = float(dense.max())
        hit = tuple(idx) == tuple(int(i) for i in np.unravel_index(int(np.argmax(dense)), dense.shape))
        return Outcome(
            wall_s=wall,
            total_calls=log1.unique_count + log2.unique_count,
            batch_rounds=oracle_calls[0],
            # Dense maximum over the value found: 1.0 when the argmax is exact.
            best_value=top / value if value > 0 else float("nan"),
            errors=errors,
            extra={"argmax_hit": hit},
        )


# ---------------------------------------------------------------------------
# gp-mixer: the GP/UCB baseline


class GaussianProcessWorkload:
    def __init__(self, name, problems_per_run, n_initial=5, n_iterations=30):
        self.name = name
        self.problems_per_run = problems_per_run
        self.n_initial = n_initial
        self.n_iterations = n_iterations

    def problems(self, seed: int) -> list[tuple]:
        objective = mixer_objective()
        return [
            (objective, BayesConfig(
                bounds=MIXER_BOUNDS, n_initial=self.n_initial,
                n_iterations=self.n_iterations, seed=s,
            ))
            for s in problem_seeds(seed, self.problems_per_run)
        ]

    def run(self, problem, tracer: Tracer | None = None) -> Outcome:
        objective, config = problem
        if tracer is None:
            run = tetraopt.bayes_minimize
        else:
            objective = TracedObjective(objective, tracer)
            run = tracer.wrap("gp", tetraopt.bayes_minimize)
        with instrument(tracer) if tracer else contextlib.nullcontext():
            trace, wall = _timed(tracer, run, objective, config)
        errors = checks.exact_calls(trace.total_calls, config.n_initial + config.n_iterations)
        errors += checks.best_matches_objective(
            trace.best_value, trace.best_point, problem[0].evaluator
        )
        return Outcome(
            wall_s=wall,
            total_calls=trace.total_calls,
            # One evaluation per sequential round.
            batch_rounds=trace.total_calls,
            best_value=trace.best_value,
            errors=errors,
            extra={"time_to_best_s": _time_to_best(trace)} if trace.events else {},
        )


# ---------------------------------------------------------------------------


def workloads(root: Path, size: str = "full") -> dict:
    """Workloads by name.  ``root`` is the checkout holding ``tests/data``."""
    grid_min = root / "tests" / "data" / "mixer_grid_min.json"
    if size == "tiny":
        found = [
            MixerWorkload("mixer-16ms", 1, 0.001, grid_min),
            FailingWorkload("rastrigin-d20-fail5", 4, _rastrigin_with_failures(4), 6, 2),
            CrossPowerWorkload(
                "cross-power", 1, (6, 8, 3, 2), (4, 4, 2, 2), PowerConfig(steps=3, max_rank=4)
            ),
            GaussianProcessWorkload("gp-mixer", 2, n_initial=3, n_iterations=4),
        ]
    else:
        found = [
            MixerWorkload("mixer-16ms", 8, 0.016, grid_min),
            FailingWorkload("rastrigin-d20-fail5", 6, _rastrigin_with_failures(20), 16, 6),
            CrossPowerWorkload(
                "cross-power", 3, (30, 32, 10, 2), (6, 10, 4, 2), PowerConfig(steps=8, max_rank=16)
            ),
            GaussianProcessWorkload("gp-mixer", 112),
        ]
    return {w.name: w for w in found}
