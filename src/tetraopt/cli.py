"""Command-line driver: run optimizations and emit plot-ready CSV data.

Subcommands: ``optimize``, ``compare``, ``bench-parallel``, ``cross-test``.
Every run is configured by a JSON file (strictly validated, unknown keys
rejected) plus a few overriding flags.  Exit codes: 0 success, 2 config
error, 3 runtime failure.
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

from .cross import tensor_oracle, tt_cross
from .gp import BayesConfig, bayes_minimize
from .harness import parallel_scaling_report
from .objectives import (
    BlackBoxObjective,
    benchmark,
    mixer_objective,
    shifted_quadratic,
    with_latency,
)
from .optimizer import SearchGrid, TetraOptConfig, tetraopt_minimize
from .power import PowerConfig, tt_power_argmax
from .tt import TensorTrain, save_tt, tt_eval_many

PARALLEL_ENV_VAR = "TETRAOPT_PARALLEL"

_BENCHMARK_NAMES = ("quadratic", "rosenbrock", "rastrigin", "ackley")


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


def _as_positive_int(value, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{context}: expected a positive integer, got {value!r}")
    return value


def _as_nonnegative_int(value, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{context}: expected an integer >= 0, got {value!r}")
    return value


def _as_number(value, context: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return number


def _build_objective(spec, context: str = "objective") -> BlackBoxObjective:
    if not isinstance(spec, dict):
        raise ConfigError(f"{context}: expected an object")
    _check_keys(
        spec, context, required=("name",),
        optional=("dimension", "center", "bounds", "latency_s"),
    )
    name = spec["name"]
    latency = _as_number(spec.get("latency_s", 0.0), f"{context}.latency_s")
    if latency < 0:
        raise ConfigError(f"{context}.latency_s: must be >= 0")

    if name == "mixer":
        obj = mixer_objective()
    elif name in _BENCHMARK_NAMES:
        if "dimension" not in spec:
            raise ConfigError(f"{context}: missing required field 'dimension'")
        dimension = _as_positive_int(spec["dimension"], f"{context}.dimension")
        try:
            if name == "quadratic" and "center" in spec:
                if not isinstance(spec["center"], list) or len(spec["center"]) != dimension:
                    raise ConfigError(f"{context}.center: expected a list of {dimension} numbers")
                center = [_as_number(c, f"{context}.center") for c in spec["center"]]
                bounds = None
                if "bounds" in spec:
                    bounds = _parse_bounds(spec["bounds"], f"{context}.bounds", dimension)
                obj = shifted_quadratic(center, bounds)
            else:
                obj = benchmark(name, dimension)
        except ValueError as err:
            raise ConfigError(f"{context}: {err}")
    else:
        raise ConfigError(
            f"{context}.name: unknown objective {name!r} "
            f"(expected mixer or one of {list(_BENCHMARK_NAMES)})"
        )

    if "bounds" in spec and not (name == "quadratic" and "center" in spec):
        bounds = _parse_bounds(spec["bounds"], f"{context}.bounds", obj.dimension)
        obj = BlackBoxObjective(
            name=obj.name,
            dimension=obj.dimension,
            bounds=bounds,
            evaluator=obj.evaluator,
        )
    return with_latency(obj, latency) if latency else obj


def _parse_bounds(raw, context: str, dimension: int):
    if not isinstance(raw, list) or len(raw) != dimension:
        raise ConfigError(f"{context}: expected {dimension} [lower, upper] pairs")
    bounds = []
    for pos, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{context}[{pos}]: expected [lower, upper]")
        lo = _as_number(pair[0], f"{context}[{pos}][0]")
        hi = _as_number(pair[1], f"{context}[{pos}][1]")
        bounds.append((lo, hi))
    return tuple(bounds)


def _build_grid(cfg: dict, objective: BlackBoxObjective, context: str = "grid") -> SearchGrid:
    if "grid" not in cfg:
        try:
            return SearchGrid([(lo, hi, 5) for lo, hi in objective.bounds])
        except ValueError as err:
            raise ConfigError(f"objective.bounds: no valid default grid: {err}")
    raw = cfg["grid"]
    if not isinstance(raw, list) or len(raw) != objective.dimension:
        raise ConfigError(
            f"{context}: expected {objective.dimension} [lower, upper, points] triples"
        )
    dims = []
    for pos, triple in enumerate(raw):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ConfigError(f"{context}[{pos}]: expected [lower, upper, points]")
        lo = _as_number(triple[0], f"{context}[{pos}][0]")
        hi = _as_number(triple[1], f"{context}[{pos}][1]")
        points = _as_positive_int(triple[2], f"{context}[{pos}][2]")
        dims.append((lo, hi, points))
    try:
        return SearchGrid(dims)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}")


def _parse_optimizer(spec, context: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{context}: expected an object")
    if "name" not in spec:
        raise ConfigError(f"{context}: missing required field 'name'")
    name = spec["name"]
    if name == "tetraopt":
        _check_keys(spec, context, required=("name",), optional=("rank", "iterations"))
        return {
            "name": "tetraopt",
            "rank": _as_positive_int(spec.get("rank", 4), f"{context}.rank"),
            "iterations": _as_positive_int(
                spec.get("iterations", 2), f"{context}.iterations"
            ),
        }
    if name == "bayes":
        _check_keys(
            spec, context, required=("name",),
            optional=("n_initial", "n_iterations", "kappa"),
        )
        return {
            "name": "bayes",
            "n_initial": _as_positive_int(spec.get("n_initial", 5), f"{context}.n_initial"),
            "n_iterations": _as_nonnegative_int(
                spec.get("n_iterations", 30), f"{context}.n_iterations"
            ),
            "kappa": _as_number(spec.get("kappa", 2.576), f"{context}.kappa"),
        }
    raise ConfigError(f"{context}.name: unknown optimizer {name!r} (tetraopt | bayes)")


def _parse_seeds(cfg: dict, override: str | None) -> list[int]:
    if override is not None:
        try:
            seeds = [int(chunk) for chunk in override.split(",") if chunk.strip() != ""]
        except ValueError:
            raise ConfigError(f"--seed: expected comma-separated integers, got {override!r}")
        return [_as_nonnegative_int(seed, "--seed") for seed in seeds]
    raw = cfg.get("seeds", list(range(10)))
    if not isinstance(raw, list) or not raw:
        raise ConfigError("seeds: expected a nonempty list of integers")
    return [_as_nonnegative_int(seed, "seeds") for seed in raw]


def _resolve_parallel(cfg: dict, flag: int | None) -> int | None:
    if flag is not None:
        if flag < 1:
            raise ConfigError("--parallel: must be >= 1")
        return flag
    env = os.environ.get(PARALLEL_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{PARALLEL_ENV_VAR}: expected an integer, got {env!r}")
        if value < 1:
            raise ConfigError(f"{PARALLEL_ENV_VAR}: must be >= 1")
        return value
    if "parallel" in cfg:
        return _as_positive_int(cfg["parallel"], "parallel")
    return None


def _out_dir(cfg: dict, flag: str | None) -> Path:
    out = Path(flag if flag is not None else cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_template(grid, opt: dict, context: str):
    """The run configuration of ``opt`` on ``grid``; each run sets its own seed."""
    fields = {key: value for key, value in opt.items() if key != "name"}
    try:
        if opt["name"] == "tetraopt":
            return TetraOptConfig(grid=grid, **fields)
        return BayesConfig(bounds=grid.bounds, **fields)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}")


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
    opt = _parse_optimizer(cfg["optimizer"], "optimizer")
    template = _config_template(grid, opt, "optimizer")
    seeds = _parse_seeds(cfg, args.seed)
    parallel = _resolve_parallel(cfg, args.parallel)
    out = _out_dir(cfg, args.out)

    runs = []
    for seed in seeds:
        trace = _run_one(objective, template, seed, parallel)
        path = out / f"trace_{opt['name']}_{seed}.csv"
        trace.write_csv(path)
        runs.append(
            {
                "seed": seed,
                "best_value": trace.best_value,
                "best_point": list(trace.best_point) if trace.best_point else None,
                "total_calls": trace.total_calls,
                "total_runtime_s": trace.total_runtime_s,
                "trace_csv": path.name,
            }
        )
        print(
            f"{opt['name']} seed={seed}: best={trace.best_value:.6g} "
            f"calls={trace.total_calls} time={trace.total_runtime_s:.3f}s"
        )

    summary = {
        "objective": objective.name,
        "optimizer": opt,
        "seeds": seeds,
        "runs": runs,
        "median_best_value": statistics.median(r["best_value"] for r in runs),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {len(runs)} trace(s) and summary.json to {out}")
    return 0


def _envelope_rows(label: str, traces: list, grid_times: np.ndarray):
    rows = []
    for t in grid_times:
        values = [trace.value_at(t) for trace in traces]
        finite = [v for v in values if np.isfinite(v)]
        if len(finite) != len(values):
            continue
        rows.append(
            (
                label,
                t,
                statistics.median(finite),
                min(finite),
                max(finite),
            )
        )
    return rows


def cmd_compare(cfg: dict, args) -> int:
    _check_keys(
        cfg, "config", required=("objective", "optimizers"),
        optional=("grid", "seeds", "parallel", "out"),
    )
    if not isinstance(cfg["optimizers"], list) or len(cfg["optimizers"]) != 2:
        raise ConfigError("optimizers: expected a list of exactly two optimizer specs")
    objective = _build_objective(cfg["objective"])
    grid = _build_grid(cfg, objective)
    specs = [
        _parse_optimizer(spec, f"optimizers[{pos}]")
        for pos, spec in enumerate(cfg["optimizers"])
    ]
    templates = [
        _config_template(grid, spec, f"optimizers[{pos}]") for pos, spec in enumerate(specs)
    ]
    labels = [spec["name"] for spec in specs]
    if labels[0] == labels[1]:
        labels = [f"{labels[0]}1", f"{labels[1]}2"]
    seeds = _parse_seeds(cfg, args.seed)
    parallel = _resolve_parallel(cfg, args.parallel)
    out = _out_dir(cfg, args.out)

    all_traces: dict[str, list] = {}
    for label, template in zip(labels, templates):
        all_traces[label] = [
            _run_one(objective, template, seed, parallel) for seed in seeds
        ]
        finals = [trace.best_value for trace in all_traces[label]]
        print(f"{label}: median final best = {statistics.median(finals):.6g}")

    with open(out / "comparison.csv", "w", newline="") as fh:
        fh.write("optimizer,seed,wall_time_s,calls,best_value\n")
        for label in labels:
            for seed, trace in zip(seeds, all_traces[label]):
                for event in trace.events:
                    fh.write(
                        f"{label},{seed},{event.wall_time_s:.6f},"
                        f"{event.unique_calls_so_far},{event.best_value:.17g}\n"
                    )

    horizon = max(
        trace.total_runtime_s for traces in all_traces.values() for trace in traces
    )
    grid_times = np.linspace(0.0, horizon, 64)
    with open(out / "envelopes.csv", "w", newline="") as fh:
        fh.write("optimizer,wall_time_s,median_best,lowest_best,highest_best\n")
        for label in labels:
            for row in _envelope_rows(label, all_traces[label], grid_times):
                fh.write(
                    f"{row[0]},{row[1]:.6f},{row[2]:.17g},{row[3]:.17g},{row[4]:.17g}\n"
                )

    medians = {
        label: statistics.median(trace.best_value for trace in all_traces[label])
        for label in labels
    }
    summary = {
        "objective": objective.name,
        "seeds": seeds,
        "optimizers": {
            label: {
                "spec": spec,
                "median_final_best": medians[label],
                "best_final_best": min(t.best_value for t in all_traces[label]),
                "worst_final_best": max(t.best_value for t in all_traces[label]),
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
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
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
    batch_size = _as_positive_int(cfg["batch_size"], "batch_size")
    if not isinstance(cfg["levels"], list) or not cfg["levels"]:
        raise ConfigError("levels: expected a nonempty list of integers")
    levels = [_as_positive_int(level, "levels") for level in cfg["levels"]]
    seed = _as_nonnegative_int(cfg.get("seed", 0), "seed")
    out = _out_dir(cfg, args.out)

    rows = parallel_scaling_report(objective, batch_size, levels, seed=seed)
    path = out / "scaling.csv"
    with open(path, "w", newline="") as fh:
        fh.write("parallelism,effective_time_per_eval_s\n")
        for level, effective in rows:
            fh.write(f"{level},{effective:.6f}\n")
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
    shape = [_as_positive_int(n, "shape") for n in cfg["shape"]]
    generator_rank = _as_positive_int(cfg["generator_rank"], "generator_rank")
    rank = _as_positive_int(cfg["rank"], "rank")
    sweeps = _as_positive_int(cfg["sweeps"], "sweeps")
    probes = _as_positive_int(cfg.get("probes", 1000), "probes")
    save = cfg.get("save_tt", False)
    if not isinstance(save, bool):
        raise ConfigError(f"save_tt: expected true or false, got {save!r}")
    seeds = _parse_seeds(cfg, args.seed)
    out = _out_dir(cfg, args.out)

    power_cfg = None
    if "power" in cfg:
        spec = cfg["power"]
        if not isinstance(spec, dict):
            raise ConfigError("power: expected an object")
        _check_keys(spec, "power", required=(), optional=("steps", "max_rank", "rel_tol"))
        try:
            power_cfg = PowerConfig(
                steps=_as_positive_int(spec.get("steps", 8), "power.steps"),
                max_rank=_as_positive_int(spec.get("max_rank", 16), "power.max_rank"),
                rel_tol=_as_number(spec.get("rel_tol", 0.0), "power.rel_tol"),
            )
        except ValueError as err:
            raise ConfigError(f"power: {err}")

    d = len(shape)
    budget = 2 * sweeps * d * max(shape) * rank * rank
    path = out / "cross_test.csv"
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", newline=""))
        fh.write("seed,d,n_max,rank,sweeps,rel_error,unique_calls,budget,within_budget\n")
        power_fh = None
        if power_cfg is not None:
            power_fh = stack.enter_context(open(out / "power.csv", "w", newline=""))
            power_fh.write("seed,steps,max_rank,index,power_value,cross_best_value\n")
        for seed in seeds:
            rng = np.random.default_rng(seed)
            source = TensorTrain.random(shape, generator_rank, rng)
            approx, log = tt_cross(tensor_oracle(source), shape, rank, sweeps, seed)
            probe_idx = np.stack(
                [rng.integers(0, n, size=probes) for n in shape], axis=1
            )
            truth = tt_eval_many(source, probe_idx)
            guess = tt_eval_many(approx, probe_idx)
            scale = float(np.max(np.abs(truth)))
            rel_error = float(np.max(np.abs(guess - truth))) / (scale if scale > 0 else 1.0)
            within = log.unique_count <= budget
            fh.write(
                f"{seed},{d},{max(shape)},{rank},{sweeps},{rel_error:.3e},"
                f"{log.unique_count},{budget},{str(within).lower()}\n"
            )
            print(
                f"seed={seed}: rel_error={rel_error:.3e} "
                f"calls={log.unique_count}/{budget}"
            )
            if save:
                save_tt(approx, out / f"cross_tt_{seed}.tt")
            if power_cfg is not None:
                idx, value = tt_power_argmax(approx, power_cfg, seed=seed)
                cross_best = max(entry[1] for entry in log.entries)
                power_fh.write(
                    f"{seed},{power_cfg.steps},{power_cfg.max_rank},"
                    f"\"{idx}\",{value:.17g},{cross_best:.17g}\n"
                )
    if power_cfg is not None:
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
        print(f"runtime failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
