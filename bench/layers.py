"""Where the benchmark hooks into tetraopt, and the per-layer metrics.

The traced run replaces public functions at the module attributes through
which tetraopt itself calls them, records one span per call (see
``spans.py``), and restores the originals afterwards.  Nothing under
``src/`` is edited.  Layers and their spans:

==================  ====================================================
span name           what it wraps
==================  ====================================================
problem             one benchmark problem, end to end (the root)
stage1, stage2      the two stages of a ``cross-power`` problem
optimizer           ``tetraopt_minimize``
optimizer.evaluate  the evaluate callable the optimizer hands ``tt_cross``
grid_point          ``tetraopt.optimizer.grid_point``
harness             ``tetraopt.optimizer.evaluate_batch``
objective           ``.evaluate`` of the objective, through a proxy
cross               ``tt_cross`` (optimizer, power method and benchmark)
cross.oracle        the oracle callable handed to ``tt_cross``
maxvol              ``tetraopt.cross.maxvol``
tt.eval_many        ``tetraopt.tt.tt_eval_many`` and ``tetraopt.power``'s
tt.hadamard         ``tetraopt.power.tt_hadamard``
tt.round            ``tetraopt.power.tt_round``
tt.norm             ``tetraopt.power.frobenius_norm``
power               ``tt_power_argmax``
gp                  ``bayes_minimize``
gp.fit, gp.propose  ``tetraopt.gp.gp_fit``, ``tetraopt.gp.propose_next``
==================  ====================================================
"""

from __future__ import annotations

import contextlib
import math
import statistics

import tetraopt.cross
import tetraopt.gp
import tetraopt.optimizer
import tetraopt.power
import tetraopt.tt
from tetraopt.harness import effective_parallelism

from spans import Tracer, self_times, subtree, totals

ROOTS = ("problem", "stage1", "stage2")


class TracedObjective:
    """Proxy that records a span around every ``evaluate`` call."""

    def __init__(self, objective, tracer: Tracer):
        self._objective = objective
        self.evaluate = tracer.wrap("objective", objective.evaluate)

    def __getattr__(self, name):
        return getattr(self._objective, name)


def traced_cross(tracer: Tracer, fn, oracle_name: str):
    """``tt_cross`` recording a ``cross`` span and a span per oracle call.

    The ``cross`` span's note is (requested, unique): the entries and new
    distinct indices this call added to its sample log.
    """

    def cross(evaluate, *args, **kwargs):
        log = kwargs.get("log")
        before = (len(log.entries), log.unique_count) if log is not None else (0, 0)

        def note(_args, _kwargs, result):
            out = result[1]
            return len(out.entries) - before[0], out.unique_count - before[1]

        oracle = tracer.wrap(oracle_name, evaluate)
        return tracer.wrap("cross", fn, note)(oracle, *args, **kwargs)

    return cross


def _batch_note(args, kwargs, _result):
    request = args[1]
    max_parallel = args[2] if len(args) > 2 else kwargs.get("max_parallel")
    return len(set(request.indices)), effective_parallelism(max_parallel)


def _maxvol_note(_args, _kwargs, result):
    return result.swap_count, result.degenerate


def _entries_note(args, _kwargs, _result):
    return len(args[1])


@contextlib.contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, make in replacements:
            setattr(module, name, make(getattr(module, name)))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class BatchCounter:
    """Counts ``evaluate_batch`` calls; the untraced run's only hook."""

    def __init__(self):
        self.calls = 0

    def hook(self):
        def make(fn):
            def counted(*args, **kwargs):
                self.calls += 1
                return fn(*args, **kwargs)

            return counted

        return patched([(tetraopt.optimizer, "evaluate_batch", make)])


def instrument(tracer: Tracer):
    """Wrap every layer boundary listed in the module docstring."""

    def span(name, note=None):
        return lambda fn: tracer.wrap(name, fn, note)

    return patched(
        [
            (tetraopt.optimizer, "tt_cross",
             lambda fn: traced_cross(tracer, fn, "optimizer.evaluate")),
            (tetraopt.optimizer, "evaluate_batch", span("harness", _batch_note)),
            (tetraopt.optimizer, "grid_point", span("grid_point")),
            (tetraopt.cross, "maxvol", span("maxvol", _maxvol_note)),
            (tetraopt.tt, "tt_eval_many", span("tt.eval_many", _entries_note)),
            (tetraopt.power, "tt_eval_many", span("tt.eval_many", _entries_note)),
            (tetraopt.power, "tt_cross",
             lambda fn: traced_cross(tracer, fn, "cross.oracle")),
            (tetraopt.power, "tt_hadamard", span("tt.hadamard")),
            (tetraopt.power, "tt_round", span("tt.round")),
            (tetraopt.power, "frobenius_norm", span("tt.norm")),
            (tetraopt.gp, "gp_fit", span("gp.fit")),
            (tetraopt.gp, "propose_next", span("gp.propose")),
        ]
    )


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "objectives.calls": "count",
    "objectives.busy_s": "s",
    "objectives.wall_s": "s",
    "objectives.failed": "count",
    "harness.batches": "count",
    "harness.batch_size.median": "count",
    "harness.batch_size.max": "count",
    "harness.fill": "ratio",
    "harness.model_makespan_p8_s": "s",
    "harness.model_makespan_p32_s": "s",
    "harness.wall_s": "s",
    "harness.self_s": "s",
    "optimizer.self_s": "s",
    "optimizer.grid_point_s": "s",
    "cross.self_s": "s",
    "cross.oracle_s": "s",
    "cross.requested": "count",
    "cross.unique": "count",
    "cross.reuse_ratio": "ratio",
    "cross.stage1.oracle_share": "ratio",
    "cross.stage1.maxvol_share": "ratio",
    "cross.stage1.bookkeeping_share": "ratio",
    "maxvol.calls": "count",
    "maxvol.busy_s": "s",
    "maxvol.swaps": "count",
    "maxvol.degenerate": "count",
    "tt.eval_many.busy_s": "s",
    "tt.eval_many.entries": "count",
    "tt.hadamard.busy_s": "s",
    "tt.round.busy_s": "s",
    "tt.norm.busy_s": "s",
    "power.self_s": "s",
    "gp.fit.calls": "count",
    "gp.fit.busy_s": "s",
    "gp.propose.busy_s": "s",
    "gp.self_s": "s",
    "bench.self_s": "s",
    "tracing.run_s": "s",
    "tracing.coverage": "ratio",
    "tracing.overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def stage_split(spans) -> dict[str, float]:
    """Oracle / maxvol / cross-bookkeeping shares of the ``stage1`` spans."""
    stage_sids = [s.sid for s in spans if s.name == "stage1"]
    inside = [span for sid in stage_sids for span in subtree(spans, sid)]
    busy, _ = totals(inside)
    own = self_times(inside)
    wall = busy.get("stage1", 0.0)
    return {
        "cross.stage1.oracle_share": _ratio(busy.get("cross.oracle", 0.0), wall),
        "cross.stage1.maxvol_share": _ratio(busy.get("maxvol", 0.0), wall),
        "cross.stage1.bookkeeping_share": _ratio(own.get("cross", 0.0), wall),
    }


def counted(spans) -> dict[str, int]:
    """Counts the determinism guard compares between runs of one problem."""
    return {
        "cross.unique": sum(s.note[1] for s in spans if s.name == "cross"),
        "maxvol.swaps": sum(s.note[0] for s in spans if s.name == "maxvol"),
    }


def layer_metrics(spans, problems: int, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of ``problems`` traced problems, per problem.

    ``untraced_wall`` is the summed wall time of the same problems run
    without tracing; the ratio of the two is the tracing overhead.
    """
    busy, calls = totals(spans)
    own = self_times(spans)
    per = 1.0 / problems

    by_sid = {s.sid: s for s in spans}
    batches = [s for s in spans if s.name == "harness"]
    sizes = [s.note[0] for s in batches]
    in_batches = [
        s for s in spans
        if s.name == "objective" and s.parent in by_sid and by_sid[s.parent].name == "harness"
    ]
    objective_in_batches = sum(s.duration for s in in_batches)
    mean_latency = _ratio(objective_in_batches, len(in_batches))
    capacity = sum(s.duration * s.note[1] for s in batches)

    def makespan(workers: int) -> float:
        return sum(math.ceil(b / workers) for b in sizes) * mean_latency * per

    traced_wall = busy.get("problem", 0.0)
    attributed = sum(v for name, v in own.items() if name not in ROOTS)
    cross_notes = [s.note for s in spans if s.name == "cross"]
    requested = sum(n[0] for n in cross_notes)
    unique = sum(n[1] for n in cross_notes)
    maxvol_notes = [s.note for s in spans if s.name == "maxvol"]

    out = {
        "objectives.calls": calls.get("objective", 0) * per,
        "objectives.busy_s": busy.get("objective", 0.0) * per,
        "objectives.wall_s": own.get("objective", 0.0) * per,
        "objectives.failed": sum(1 for s in spans if s.name == "objective" and not s.ok) * per,
        "harness.batches": len(batches) * per,
        "harness.batch_size.median": float(statistics.median(sizes)) if sizes else 0.0,
        "harness.batch_size.max": float(max(sizes)) if sizes else 0.0,
        "harness.fill": _ratio(objective_in_batches, capacity),
        "harness.model_makespan_p8_s": makespan(8),
        "harness.model_makespan_p32_s": makespan(32),
        "harness.wall_s": busy.get("harness", 0.0) * per,
        "harness.self_s": own.get("harness", 0.0) * per,
        "optimizer.self_s": (own.get("optimizer", 0.0) + own.get("optimizer.evaluate", 0.0)) * per,
        "optimizer.grid_point_s": busy.get("grid_point", 0.0) * per,
        "cross.self_s": own.get("cross", 0.0) * per,
        "cross.oracle_s": (busy.get("cross.oracle", 0.0) + busy.get("optimizer.evaluate", 0.0)) * per,
        "cross.requested": requested * per,
        "cross.unique": unique * per,
        "cross.reuse_ratio": 1.0 - _ratio(unique, requested) if requested else 0.0,
        "maxvol.calls": len(maxvol_notes) * per,
        "maxvol.busy_s": busy.get("maxvol", 0.0) * per,
        "maxvol.swaps": sum(n[0] for n in maxvol_notes) * per,
        "maxvol.degenerate": sum(1 for n in maxvol_notes if n[1]) * per,
        "tt.eval_many.busy_s": busy.get("tt.eval_many", 0.0) * per,
        "tt.eval_many.entries": sum(s.note for s in spans if s.name == "tt.eval_many") * per,
        "tt.hadamard.busy_s": busy.get("tt.hadamard", 0.0) * per,
        "tt.round.busy_s": busy.get("tt.round", 0.0) * per,
        "tt.norm.busy_s": busy.get("tt.norm", 0.0) * per,
        "power.self_s": own.get("power", 0.0) * per,
        "gp.fit.calls": calls.get("gp.fit", 0) * per,
        "gp.fit.busy_s": busy.get("gp.fit", 0.0) * per,
        "gp.propose.busy_s": busy.get("gp.propose", 0.0) * per,
        "gp.self_s": own.get("gp", 0.0) * per,
        "bench.self_s": sum(own.get(name, 0.0) for name in ROOTS) * per,
        "tracing.run_s": traced_wall * per,
        "tracing.coverage": _ratio(attributed, traced_wall),
        "tracing.overhead": _ratio(traced_wall, untraced_wall),
    }
    out.update(stage_split(spans))
    return out
