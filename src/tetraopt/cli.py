"""Command-line driver: run optimizations and emit plot-ready CSV data.

Subcommands: ``optimize``, ``compare``, ``bench-parallel``, ``cross-test``.
Every run is configured by a JSON file (strictly validated, unknown keys
rejected) plus a few overriding flags; a count, dimension, grid, optimizer
budget or cross-test shape that needs over 1 GiB is refused.  Exit codes: 0
success, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from .cross import IndexCache, _drive_requests, cross_requests, tensor_oracle
from .gp import PROPOSAL_CANDIDATES, BayesConfig, bayes_minimize
from .harness import parallel_scaling_report
from .objectives import (
    BENCHMARK_NAMES,
    BlackBoxObjective,
    benchmark,
    mixer_objective,
    shifted_quadratic,
    whole_number,
)
from .optimizer import SearchGrid, TetraOptConfig, tetraopt_minimize
from .power import FINAL_CROSS_SWEEPS, PowerConfig, tt_power_argmax
from .trace import write_table
from .tt import TensorTrain, bounded_ranks, save_tt, tt_eval_many

PARALLEL_ENV_VAR = "TETRAOPT_PARALLEL"

_ARRAY_LIMIT_BYTES = 2**30  # the most memory a count or shape setting may ask for
# What parallel_scaling_report holds per point besides its 8 * d bytes of
# coordinates (the point's index, row view and cache entry): under
# tracemalloc, at parallelism 1 and 2 and d = 1, 8 and 32, batches of 21,846
# to 349,526 points, each just past a dict resize, peaked at 372 to 374 + 8 * d
# bytes per point on later calls and at most 404 + 8 * d on a process's first.
_POINT_OVERHEAD_BYTES = 404
# What a cross holds per row of its largest request (index block, packed keys
# and cache entries; cross-test keeps no sample log): under tracemalloc,
# one-sweep rank-1 and rank-3 crosses with one mode of 60,000 peaked at 210
# bytes at d = 1 up to 939 at d = 32, below 400 + 24 * d.
_REQUEST_ROW_BYTES, _REQUEST_AXIS_BYTES = 400, 24
# What the cache holds per distinct index it has sampled: its dict slot and
# float value (114 bytes at the worst dict fill, under tracemalloc) and its
# packed key (33 bytes of bytes object plus at most 5 per coordinate).
_CACHE_KEY_BYTES, _CACHE_AXIS_BYTES = 150, 5
# What optimize and compare hold per objective axis (bounds pairs, the
# default five-point grid, the optimizer's copy of the bounds and the outputs):
# under tracemalloc, a one-evaluation bayes run peaked at 539 to 745 bytes per
# axis for d = 1,000 to 100,000.
_AXIS_BYTES = 800
# What a grid holds per point: its coordinate and two temporaries while the
# longest axis is filled in (24.0 to 25.1 bytes under tracemalloc).
_GRID_POINT_BYTES = 25
# What a GP/UCB run holds per evaluation besides its kernel matrices: the
# unit-cube point, the trace row and the outputs (under tracemalloc, 31 to 39
# bytes per coordinate for d = 2,000 and 20,000), and per candidate
# coordinate of a proposal (16 at d = 2,000).
_EVALUATION_BYTES, _EVALUATION_AXIS_BYTES, _CANDIDATE_AXIS_BYTES = 200, 48, 24
_PROBE_CHUNK = 2**14  # probes stacked and evaluated at a time


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: invalid JSON ({err.msg})")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


@contextlib.contextmanager
def _checked(context: str = ""):
    """Report a library type's ``ValueError`` about a setting as a :class:`ConfigError`.

    The library names the field; ``context`` says where in the config it is.
    """
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"{context}: {err}" if context else str(err)) from None


def _check_keys(mapping: dict, context: str, required: tuple, optional: tuple) -> None:
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{context}: missing required field '{key}'")
    allowed = set(required) | set(optional)
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"{context}: unknown field '{key}' (allowed: {sorted(allowed)})"
            )


def _build_objective(spec, context: str = "objective") -> BlackBoxObjective:
    if not isinstance(spec, dict):
        raise ConfigError(f"{context}: expected an object")
    _check_keys(
        spec, context, required=("name",),
        optional=("dimension", "center", "bounds", "latency_s"),
    )
    name = spec["name"]
    if name == "mixer":
        _reject_unused(spec, context, name, ("dimension", "center"))
    elif name in BENCHMARK_NAMES:
        if name != "quadratic":
            _reject_unused(spec, context, name, ("center",))
        if "dimension" not in spec:
            raise ConfigError(f"{context}: missing required field 'dimension'")
        with _checked(context):
            dimension = whole_number("dimension", spec["dimension"], 1)
        _check_array(f"{context}.dimension", dimension, _AXIS_BYTES)
    else:
        raise ConfigError(
            f"{context}.name: unknown objective {name!r} "
            f"(expected mixer or one of {list(BENCHMARK_NAMES)})"
        )
    for key in ("center", "bounds"):
        if key in spec and not isinstance(spec[key], list):
            raise ConfigError(f"{context}.{key}: expected a list")

    with _checked(context):
        obj = mixer_objective() if name == "mixer" else benchmark(name, dimension)
        if "center" in spec:
            if len(spec["center"]) != obj.dimension:
                raise ConfigError(f"{context}.center: expected a list of {obj.dimension} numbers")
            obj = shifted_quadratic(spec["center"])
        return dataclasses.replace(
            obj, **{key: spec[key] for key in ("bounds", "latency_s") if key in spec}
        )


def _reject_unused(spec: dict, context: str, name: str, keys: tuple) -> None:
    for key in keys:
        if key in spec:
            raise ConfigError(f"{context}.{key}: objective {name!r} does not use this field")


def _build_grid(cfg: dict, objective: BlackBoxObjective) -> SearchGrid:
    if "grid" not in cfg:
        with _checked("objective.bounds: no valid default grid"):
            return SearchGrid([(lo, hi, 5) for lo, hi in objective.bounds])
    if not isinstance(cfg["grid"], list) or len(cfg["grid"]) != objective.dimension:
        raise ConfigError(
            f"grid: expected {objective.dimension} [lower, upper, points] triples"
        )
    # SearchGrid validates every triple before it allocates; only the point
    # counts it would accept are summed here.
    counts = [dim[2] for dim in cfg["grid"] if isinstance(dim, list) and len(dim) == 3]
    _check_array("grid", sum(n for n in counts if type(n) is int and n > 0), _GRID_POINT_BYTES)
    with _checked("grid"):
        return SearchGrid(cfg["grid"])


_OPTIMIZER_FIELDS = {
    "tetraopt": ("rank", "iterations"),
    "bayes": ("n_initial", "n_iterations", "kappa"),
}


def _config_template(spec, grid: SearchGrid, context: str):
    """The run configuration of optimizer ``spec`` on ``grid``, and ``spec``
    with every default filled in; each run sets its own seed."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{context}: expected an object")
    if "name" not in spec:
        raise ConfigError(f"{context}: missing required field 'name'")
    name = spec["name"]
    if not isinstance(name, str) or name not in _OPTIMIZER_FIELDS:
        raise ConfigError(f"{context}.name: unknown optimizer {name!r} (tetraopt | bayes)")
    fields = _OPTIMIZER_FIELDS[name]
    _check_keys(spec, context, required=("name",), optional=fields)
    settings = {key: spec[key] for key in fields if key in spec}
    with _checked(context):
        if name == "tetraopt":
            template = TetraOptConfig(grid=grid, **settings)
        else:
            template = BayesConfig(bounds=grid.bounds, **settings)
    _check_run(template, context)
    return template, {"name": name, **{key: getattr(template, key) for key in fields}}


def _parse_seeds(cfg: dict, override: str | None) -> list[int]:
    context, seeds = "seeds", cfg.get("seeds", list(range(10)))
    if override is not None:
        context = "--seed"
        try:
            seeds = [int(chunk) for chunk in override.split(",") if chunk.strip() != ""]
        except ValueError:
            seeds = []
        if not seeds:
            raise ConfigError(f"--seed: expected comma-separated integers, got {override!r}")
    elif not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: expected a nonempty list of integers")
    with _checked(context):
        return [whole_number("seed", seed, 0) for seed in seeds]


def _resolve_parallel(cfg: dict, flag: int | None) -> int | None:
    if flag is not None:
        source, value = "--parallel", flag
    elif PARALLEL_ENV_VAR in os.environ:
        source, env = PARALLEL_ENV_VAR, os.environ[PARALLEL_ENV_VAR]
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{PARALLEL_ENV_VAR}: expected an integer, got {env!r}")
    elif "parallel" in cfg:
        source, value = "parallel", cfg["parallel"]
    else:
        return None
    with _checked():
        return whole_number(source, value, 1)


def _check_array(field: str, count: int, item_bytes: int) -> None:
    if count * item_bytes > _ARRAY_LIMIT_BYTES:
        raise ConfigError(f"{field}: {count} items of {item_bytes} bytes exceed the 1 GiB limit")


def _cross_bytes(shape, rank: int, sweeps: int) -> tuple[int, int, int]:
    """Rows of the largest request, distinct indices cached, and an upper
    bound on the bytes both take, for a cross of ``shape`` at ``rank``
    over ``sweeps`` sweeps (or as many one-sweep passes sharing one cache)."""
    d = len(shape)
    ranks = bounded_ranks(shape, rank)
    core_rows = [a * n * b for a, n, b in zip(ranks, shape, ranks[1:])]
    request_rows = max(core_rows)
    # A sweep requests the last core once and every other core twice.
    cached = min(math.prod(shape), sweeps * (2 * sum(core_rows) - core_rows[-1]))
    need = (
        request_rows * (_REQUEST_ROW_BYTES + _REQUEST_AXIS_BYTES * d)
        + cached * (_CACHE_KEY_BYTES + _CACHE_AXIS_BYTES * d)
    )
    return request_rows, cached, need


def _check_run(template, context: str) -> None:
    """Refuse an optimizer run whose working set would exceed 1 GiB."""
    if isinstance(template, TetraOptConfig):
        shape, rank, passes = template.grid.shape, template.rank, template.iterations
        rows, cached, need = _cross_bytes(shape, rank, passes)
        # Each round evaluates the merged requests of every pass through the harness.
        need += passes * rows * (_POINT_OVERHEAD_BYTES + 8 * len(shape))
        what = (
            f"rank {rank} over {passes} iterations, with requests of {rows} rows "
            f"and up to {cached} cached indices,"
        )
    else:
        n, d = template.n_initial + template.n_iterations, len(template.bounds)
        # A fit holds (n, n) kernel matrices and a proposal (candidates, n)
        # ones: four, plus the distance sum's eight partial sums and about
        # one more per halving of d above 128 (under tracemalloc, 32 to 130
        # bytes per entry for d = 1 to 2,000).
        matrices = 12 + d.bit_length()
        need = (
            8 * matrices * n * (n + PROPOSAL_CANDIDATES)
            + n * (_EVALUATION_BYTES + _EVALUATION_AXIS_BYTES * d)
            + _CANDIDATE_AXIS_BYTES * PROPOSAL_CANDIDATES * d
        )
        what = f"n_initial + n_iterations = {n} evaluations in {d} dimensions"
    if need > _ARRAY_LIMIT_BYTES:
        raise ConfigError(f"{context}: {what} need {need} bytes, over the 1 GiB limit")


def _out_dir(cfg: dict, flag: str | None) -> Path:
    out = Path(flag if flag is not None else cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finite_or_null(value):
    """``value`` with every number that is not finite, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_summary(out: Path, summary: dict) -> None:
    """Write ``summary.json`` as strict JSON: a number that is not finite is null."""
    text = json.dumps(_finite_or_null(summary), indent=2, allow_nan=False)
    (out / "summary.json").write_text(text)


def _run_one(objective, template, seed: int, parallel):
    config = dataclasses.replace(template, seed=seed)
    if isinstance(config, TetraOptConfig):
        return tetraopt_minimize(objective, config, max_parallel=parallel)
    return bayes_minimize(objective, config)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_optimize(cfg: dict, args) -> int:
    _check_keys(
        cfg, "config", required=("objective", "optimizer"),
        optional=("grid", "seeds", "parallel", "out"),
    )
    objective = _build_objective(cfg["objective"])
    grid = _build_grid(cfg, objective)
    template, spec = _config_template(cfg["optimizer"], grid, "optimizer")
    seeds = _parse_seeds(cfg, args.seed)
    parallel = _resolve_parallel(cfg, args.parallel)
    out = _out_dir(cfg, args.out)

    runs = []
    for seed in seeds:
        trace = _run_one(objective, template, seed, parallel)
        # A seed that found no finite value has no incumbent to trace.
        name = f"trace_{spec['name']}_{seed}.csv" if trace.events else None
        if name is not None:
            trace.write_csv(out / name)
        runs.append(
            {
                "seed": seed,
                "best_value": trace.best_value,
                "best_point": trace.best_point,
                "total_calls": trace.total_calls,
                "total_runtime_s": trace.total_runtime_s,
                "trace_csv": name,
            }
        )
        print(
            f"{spec['name']} seed={seed}: best={trace.best_value:.6g} "
            f"calls={trace.total_calls} time={trace.total_runtime_s:.3f}s"
        )

    summary = {
        "objective": objective.name,
        "optimizer": spec,
        "seeds": seeds,
        "runs": runs,
        "median_best_value": statistics.median(r["best_value"] for r in runs),
    }
    _write_summary(out, summary)
    written = sum(run["trace_csv"] is not None for run in runs)
    print(f"wrote {written} trace(s) and summary.json to {out}")
    return 0


def _envelope_rows(all_traces: dict[str, list], grid_times: np.ndarray):
    for label, traces in all_traces.items():
        for t in grid_times:
            values = [trace.value_at(t) for trace in traces]
            if np.all(np.isfinite(values)):
                yield (
                    f"{label},{t:.6f},{statistics.median(values):.17g},"
                    f"{min(values):.17g},{max(values):.17g}"
                )


def cmd_compare(cfg: dict, args) -> int:
    _check_keys(
        cfg, "config", required=("objective", "optimizers"),
        optional=("grid", "seeds", "parallel", "out"),
    )
    if not isinstance(cfg["optimizers"], list) or len(cfg["optimizers"]) != 2:
        raise ConfigError("optimizers: expected a list of exactly two optimizer specs")
    objective = _build_objective(cfg["objective"])
    grid = _build_grid(cfg, objective)
    templates, specs = zip(*(
        _config_template(spec, grid, f"optimizers[{pos}]")
        for pos, spec in enumerate(cfg["optimizers"])
    ))
    labels = [spec["name"] for spec in specs]
    if labels[0] == labels[1]:
        labels = [f"{labels[0]}1", f"{labels[1]}2"]
    seeds = _parse_seeds(cfg, args.seed)
    parallel = _resolve_parallel(cfg, args.parallel)
    out = _out_dir(cfg, args.out)

    all_traces, finals, medians = {}, {}, {}
    for label, template in zip(labels, templates):
        all_traces[label] = [_run_one(objective, template, seed, parallel) for seed in seeds]
        finals[label] = [trace.best_value for trace in all_traces[label]]
        medians[label] = statistics.median(finals[label])
        print(f"{label}: median final best = {medians[label]:.6g}")

    write_table(out / "comparison.csv", "optimizer,seed,wall_time_s,calls,best_value", (
        f"{label},{seed},{event.wall_time_s:.6f},"
        f"{event.unique_calls_so_far},{event.best_value:.17g}"
        for label, traces in all_traces.items()
        for seed, trace in zip(seeds, traces)
        for event in trace.events
    ))
    horizon = max(trace.total_runtime_s for traces in all_traces.values() for trace in traces)
    write_table(
        out / "envelopes.csv", "optimizer,wall_time_s,median_best,lowest_best,highest_best",
        _envelope_rows(all_traces, np.linspace(0.0, horizon, 64)),
    )

    summary = {
        "objective": objective.name,
        "seeds": seeds,
        "optimizers": {
            label: {
                "spec": spec,
                "median_final_best": medians[label],
                "best_final_best": min(finals[label]),
                "worst_final_best": max(finals[label]),
                "median_total_calls": statistics.median(
                    t.total_calls for t in all_traces[label]
                ),
                "median_runtime_s": statistics.median(
                    t.total_runtime_s for t in all_traces[label]
                ),
            }
            for label, spec in zip(labels, specs)
        },
        "median_final_ratio": {
            f"{labels[1]}_over_{labels[0]}": (
                medians[labels[1]] / medians[labels[0]]
                if medians[labels[0]] != 0
                else None
            )
        },
    }
    _write_summary(out, summary)
    print(f"wrote comparison.csv, envelopes.csv, summary.json to {out}")
    return 0


def cmd_bench_parallel(cfg: dict, args) -> int:
    _check_keys(
        cfg, "config", required=("objective", "batch_size", "levels"),
        optional=("out", "seed"),
    )
    objective = _build_objective(cfg["objective"])
    if objective.latency_s <= 0:
        raise ConfigError("objective.latency_s: bench-parallel needs a latency objective")
    if not isinstance(cfg["levels"], list) or not cfg["levels"]:
        raise ConfigError("levels: expected a nonempty list of integers")
    with _checked():
        batch_size = whole_number("batch_size", cfg["batch_size"], 1)
    _check_array("batch_size", batch_size, _POINT_OVERHEAD_BYTES + 8 * objective.dimension)
    with _checked():
        rows = parallel_scaling_report(
            objective, batch_size, cfg["levels"], seed=cfg.get("seed", 0)
        )
    path = _out_dir(cfg, args.out) / "scaling.csv"
    write_table(path, "parallelism,effective_time_per_eval_s", (
        f"{level},{effective:.6f}" for level, effective in rows
    ))
    for level, effective in rows:
        print(f"parallelism {level}: {effective * 1e3:.2f} ms per evaluation")
    print(f"wrote {path}")
    return 0


def cmd_cross_test(cfg: dict, args) -> int:
    _check_keys(
        cfg, "config", required=("shape", "generator_rank", "rank", "sweeps"),
        optional=("seeds", "probes", "save_tt", "power", "out"),
    )
    if not isinstance(cfg["shape"], list) or not cfg["shape"]:
        raise ConfigError("shape: expected a nonempty list of integers")
    # The cross checks these too, but the 1 GiB rule below needs them first.
    with _checked():
        shape = [whole_number("shape", n, 1) for n in cfg["shape"]]
        generator_rank = whole_number("generator_rank", cfg["generator_rank"], 1)
        rank = whole_number("rank", cfg["rank"], 1)
        sweeps = whole_number("sweeps", cfg["sweeps"], 1)
        probes = whole_number("probes", cfg.get("probes", 1000), 1)
    d = len(shape)
    _check_array("probes", probes, 8 * d)
    train_ranks = bounded_ranks(shape, generator_rank)
    train_floats = sum(a * n * b for a, n, b in zip(train_ranks, shape, train_ranks[1:]))
    request_rows, cached, need = _cross_bytes(shape, rank, sweeps)
    need += 8 * train_floats
    if need > _ARRAY_LIMIT_BYTES:
        raise ConfigError(
            f"shape: a source train of {train_floats} floats, a cross request of "
            f"{request_rows} rows and up to {cached} cached indices need {need} bytes, "
            "over the 1 GiB limit"
        )
    save = cfg.get("save_tt", False)
    if not isinstance(save, bool):
        raise ConfigError(f"save_tt: expected true or false, got {save!r}")
    seeds = _parse_seeds(cfg, args.seed)
    power_cfg = None
    if "power" in cfg:
        if not isinstance(cfg["power"], dict):
            raise ConfigError("power: expected an object")
        _check_keys(cfg["power"], "power", required=(), optional=("steps", "max_rank", "rel_tol"))
        with _checked("power"):
            power_cfg = PowerConfig(**cfg["power"])
        # The power method crosses the approximation again; the main cross's
        # cache and the source train are still held meanwhile.
        rows, keys, more = _cross_bytes(shape, power_cfg.max_rank, FINAL_CROSS_SWEEPS)
        if need + more > _ARRAY_LIMIT_BYTES:
            raise ConfigError(
                f"power.max_rank: the power method's final cross at rank {power_cfg.max_rank}, "
                f"with a request of {rows} rows and up to {keys} cached indices, needs "
                f"{more} bytes on top of the main cross's {need}, over the 1 GiB limit"
            )
    out = _out_dir(cfg, args.out)

    budget = 2 * sweeps * d * max(shape) * rank * rank
    lines, power_lines = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        source = TensorTrain.random(shape, generator_rank, rng)
        sampled = IndexCache()
        requests = cross_requests(shape, rank, sweeps, seed, cache=sampled, log=None)
        approx = _drive_requests(requests, tensor_oracle(source))
        columns = [rng.integers(0, n, size=probes) for n in shape]
        error = scale = 0.0  # running maxima over fixed chunks; a NaN propagates
        for start in range(0, probes, _PROBE_CHUNK):
            rows = np.stack([column[start : start + _PROBE_CHUNK] for column in columns], axis=1)
            truth = tt_eval_many(source, rows)
            error = np.maximum(error, np.max(np.abs(tt_eval_many(approx, rows) - truth)))
            scale = np.maximum(scale, np.max(np.abs(truth)))
        rel_error = float(error) / (float(scale) if scale > 0 else 1.0)
        calls = len(sampled)
        lines.append(
            f"{seed},{d},{max(shape)},{rank},{sweeps},{rel_error:.3e},"
            f"{calls},{budget},{str(calls <= budget).lower()}"
        )
        print(f"seed={seed}: rel_error={rel_error:.3e} calls={calls}/{budget}")
        if save:
            save_tt(approx, out / f"cross_tt_{seed}.tt")
        if power_cfg is not None:
            idx, value = tt_power_argmax(approx, power_cfg, seed=seed)
            power_lines.append(
                f"{seed},{power_cfg.steps},{power_cfg.max_rank},"
                f"\"{idx}\",{value:.17g},{sampled.largest()[1]:.17g}"
            )
    path = out / "cross_test.csv"
    header = "seed,d,n_max,rank,sweeps,rel_error,unique_calls,budget,within_budget"
    write_table(path, header, lines)
    if power_cfg is not None:
        header = "seed,steps,max_rank,index,power_value,cross_best_value"
        write_table(out / "power.csv", header, power_lines)
        print(f"wrote {out / 'power.csv'}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetraopt",
        description="Tensor-train black-box optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in (
        ("optimize", cmd_optimize),
        ("compare", cmd_compare),
        ("bench-parallel", cmd_bench_parallel),
        ("cross-test", cmd_cross_test),
    ):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", default=None, help="comma-separated seeds, overrides config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--parallel", type=int, default=None, help="max parallel evaluations")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.handler(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {str(err) or type(err).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
