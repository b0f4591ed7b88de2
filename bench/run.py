"""tetraopt benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload mixer-16ms --seed 0 --seconds 25 --trace 0

The benchmark imports tetraopt from ``src/`` of the checkout it sits in and
refuses to run without it.  ``--seed`` fixes the list of problems (see
``workloads.py``); the whole list is one pass.  A run makes passes over the
same problems while the next one still fits in ``--seconds`` (at least
one), so every pass does identical work.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line before
it holds details that are not metrics of every workload.  The exit code is
0 when every check passed, 1 when one failed and 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 7
# One BLAS thread per process: the harness's two workers are the only
# parallelism, and the timings do not depend on BLAS thread scheduling.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "evals_per_s": "1/s",
    "best_value": "value",
    "total_calls": "count",
    "batch_rounds": "count",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; tiny is for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the problems, print the seconds taken")
    return parser.parse_args(argv)


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Put the checkout's ``src/`` first on the path and import tetraopt from it."""
    if not (SRC / "tetraopt" / "__init__.py").is_file():
        _usage_error(f"no tetraopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tetraopt

    if Path(tetraopt.__file__).resolve().parent != SRC / "tetraopt":
        _usage_error(f"imported tetraopt from {tetraopt.__file__}, not {SRC}")


def _setup_s(args) -> float:
    """Median seconds a fresh process takes to import tetraopt and build the problems."""
    command = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size, "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS if args.size == "full" else 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _run_one(workload, problem, tracer, errors):
    try:
        outcome = workload.run(problem, tracer)
    except Exception:  # noqa: BLE001 - a raising problem is counted, not fatal
        errors.append(traceback.format_exc(limit=3))
        return None
    errors.extend(outcome.errors)
    return outcome


def _passes(workload, problems, seconds, trace):
    """Repeat passes over ``problems`` while the next pass fits in ``seconds``.

    Returns (passes, errors, failed).  Each pass is a list of
    ``(untraced outcome, traced outcome, spans of the traced run)``; the
    last two are None and [] without ``trace``.
    """
    from checks import same_counts
    from layers import counted
    from spans import Tracer

    passes, errors, failed = [], [], 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer() if trace else None
        rows = []
        for pos, problem in enumerate(problems):
            before = len(errors)
            plain = _run_one(workload, problem, None, errors)
            traced, spans = None, []
            if trace:
                first_span = len(tracer.spans)
                traced = _run_one(workload, problem, tracer, errors)
                spans = tracer.spans[first_span:]
                if plain and traced:
                    errors.extend(same_counts(plain.counts(), traced.counts(), "traced run"))
            if passes:
                first_plain, first_traced, first_spans = passes[0][pos]
                if plain and first_plain:
                    errors.extend(same_counts(first_plain.counts(), plain.counts(), "repeat pass"))
                if traced and first_traced:
                    errors.extend(same_counts(
                        counted(first_spans), counted(spans), "repeat traced pass"
                    ))
            failed += len(errors) > before or plain is None or (trace and traced is None)
            rows.append((plain, traced, spans))
        passes.append(rows)
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - pass_start) > seconds:
            return passes, errors, failed


def _end_to_end(passes, setup_s):
    runs = [plain for rows in passes for plain, _, _ in rows]
    first = [plain for plain, _, _ in passes[0]]
    return {
        "run_s": statistics.median(o.wall_s for o in runs),
        "setup_s": setup_s,
        "evals_per_s": statistics.median(o.total_calls / o.wall_s for o in runs),
        "best_value": statistics.fmean(o.best_value for o in first),
        "total_calls": statistics.fmean(o.total_calls for o in first),
        "batch_rounds": statistics.fmean(o.batch_rounds for o in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(passes):
    from layers import PER_LAYER, layer_metrics

    per_pass = []
    for rows in passes:
        spans = [span for _, _, problem_spans in rows for span in problem_spans]
        untraced = sum(plain.wall_s for plain, _, _ in rows)
        per_pass.append(layer_metrics(spans, len(rows), untraced))
    return {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}


def _details(name, seed, passes, errors):
    from layers import counted

    first = [plain for plain, _, _ in passes[0]]
    counts = [sorted(o.counts().items()) for o in first]
    counts += [sorted(counted(spans).items()) for _, traced, spans in passes[0] if traced]
    out = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "problems": len(first),
        "errors": len(errors),
        "error_messages": errors[:5],
        "fingerprint": hashlib.sha256(repr(counts).encode()).hexdigest()[:16],
    }
    best_times = [o.extra["time_to_best_s"] for o in first if "time_to_best_s" in o.extra]
    if best_times:
        out["time_to_best_s"] = statistics.median(best_times)
    hits = [o.extra["argmax_hit"] for o in first if "argmax_hit" in o.extra]
    if hits:
        out["argmax_hit_rate"] = sum(hits) / len(hits)
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(BLAS_THREADS)
    started = time.perf_counter()
    _import_program()
    sys.path.insert(0, str(ROOT / "bench"))
    from layers import PER_LAYER
    from workloads import workloads

    known = workloads(ROOT, args.size)
    if args.workload not in known:
        _usage_error(f"unknown workload {args.workload!r}; pick one of {sorted(known)}")
    workload = known[args.workload]
    problems = workload.problems(args.seed)
    if args.setup_only:
        print(time.perf_counter() - started)
        return 0

    setup_s = _setup_s(args)
    warmup_errors = []
    if args.size == "full":
        # Warm lazy imports and first-call paths on the tiny version first.
        tiny = workloads(ROOT, "tiny")[args.workload]
        for problem in tiny.problems(args.seed):
            _run_one(tiny, problem, None, warmup_errors)
    if args.trace:
        problems = problems[: max(1, len(problems) // 2)]
    passes, errors, failed = _passes(workload, problems, args.seconds, args.trace)
    errors = warmup_errors + errors
    failed += len(warmup_errors) > 0
    attempted = sum(len(rows) for rows in passes) * (2 if args.trace else 1)

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    ok_passes = [rows for rows in passes if all(p and (t or not args.trace) for p, t, _ in rows)]
    if ok_passes:
        if args.trace:
            values, units = _per_layer(ok_passes), PER_LAYER
        else:
            values, units = _end_to_end(ok_passes, setup_s), END_TO_END
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name in units
            if math.isfinite(values[name])
        }
        print(json.dumps(_details(args.workload, args.seed, ok_passes, errors)))
    else:
        metrics = {}
    print(json.dumps({
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
