#!/usr/bin/env python3
"""Run a fixed matrix of CLI configs and record what each one does.

Every case is a small valid config, or one with a single setting replaced
by an odd value (a bool, text, a float, a negative, zero, NaN, an infinity,
null, a list or an object).  For each case the script records the exit
code, whether the output directory was created, a digest of every output
file with its timing columns removed, and the error message.  Run it once
per checkout and compare the two records:

    PYTHONPATH=<checkout A>/src python scripts/cli_matrix.py > a.jsonl
    PYTHONPATH=<checkout B>/src python scripts/cli_matrix.py > b.jsonl
    python scripts/cli_matrix.py --compare a.jsonl b.jsonl

``--compare`` lists the cases whose exit code, output directory or output
files differ, and every exit-2 case whose message does not name the
replaced field.  It exits 1 when it lists anything.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

BASES = {
    "optimize-tetraopt": ("optimize", {
        "objective": {
            "name": "quadratic", "dimension": 2, "center": [0.3, -0.2],
            "bounds": [[-1, 1], [-1, 1]],
        },
        "optimizer": {"name": "tetraopt", "rank": 2, "iterations": 1},
        "grid": [[-1, 1, 5], [-1, 1, 5]],
        "seeds": [0, 1],
        "parallel": 1,
    }),
    "optimize-default-grid": ("optimize", {
        "objective": {"name": "rastrigin", "dimension": 2},
        "optimizer": {"name": "tetraopt", "rank": 2, "iterations": 1},
        "seeds": [0],
    }),
    "optimize-bayes": ("optimize", {
        "objective": {"name": "quadratic", "dimension": 1, "center": [0.3], "bounds": [[0, 1]]},
        "optimizer": {"name": "bayes", "n_initial": 2, "n_iterations": 3, "kappa": 2.0},
        "grid": [[0, 1, 5]],
        "seeds": [0],
    }),
    "compare": ("compare", {
        "objective": {"name": "mixer"},
        "optimizers": [
            {"name": "tetraopt", "rank": 2, "iterations": 1},
            {"name": "bayes", "n_initial": 2, "n_iterations": 2},
        ],
        "seeds": [0],
        "parallel": 1,
    }),
    "bench-parallel": ("bench-parallel", {
        "objective": {"name": "quadratic", "dimension": 1, "latency_s": 0.001},
        "batch_size": 2,
        "levels": [1, 2],
        "seed": 0,
    }),
    "cross-test": ("cross-test", {
        "shape": [3, 3, 3],
        "generator_rank": 2,
        "rank": 2,
        "sweeps": 1,
        "probes": 10,
        "seeds": [0],
        "save_tt": True,
        "power": {"steps": 2, "max_rank": 4, "rel_tol": 0.0},
    }),
}

# (base, path of the replaced setting); the field a message must name is
# the last key of the path.
FIELDS = [
    ("optimize-tetraopt", ("optimizer", "rank")),
    ("optimize-tetraopt", ("optimizer", "iterations")),
    ("optimize-bayes", ("optimizer", "n_initial")),
    ("optimize-bayes", ("optimizer", "n_iterations")),
    ("optimize-bayes", ("optimizer", "kappa")),
    ("compare", ("optimizers", 0, "rank")),
    ("compare", ("optimizers", 1, "kappa")),
    ("optimize-default-grid", ("objective", "dimension")),
    ("optimize-tetraopt", ("objective", "center")),
    ("optimize-tetraopt", ("objective", "center", 0)),
    ("optimize-tetraopt", ("objective", "bounds")),
    ("optimize-tetraopt", ("objective", "bounds", 0)),
    ("optimize-tetraopt", ("objective", "bounds", 0, 0)),
    ("optimize-tetraopt", ("objective", "bounds", 0, 1)),
    ("optimize-bayes", ("objective", "bounds", 0, 0)),
    ("optimize-tetraopt", ("grid", 0)),
    ("optimize-tetraopt", ("grid", 0, 0)),
    ("optimize-tetraopt", ("grid", 0, 1)),
    ("optimize-tetraopt", ("grid", 0, 2)),
    ("optimize-tetraopt", ("seeds",)),
    ("optimize-tetraopt", ("seeds", 0)),
    ("optimize-tetraopt", ("parallel",)),
    ("bench-parallel", ("objective", "latency_s")),
    ("bench-parallel", ("batch_size",)),
    ("bench-parallel", ("levels",)),
    ("bench-parallel", ("levels", 0)),
    ("bench-parallel", ("seed",)),
    ("cross-test", ("shape",)),
    ("cross-test", ("shape", 0)),
    ("cross-test", ("generator_rank",)),
    ("cross-test", ("rank",)),
    ("cross-test", ("sweeps",)),
    ("cross-test", ("probes",)),
    ("cross-test", ("seeds", 0)),
    ("cross-test", ("power", "steps")),
    ("cross-test", ("power", "max_rank")),
    ("cross-test", ("power", "rel_tol")),
]

ODD_VALUES = {
    "true": True, "false": False, "text": "2", "fraction": 2.5, "float_one": 1.0,
    "negative": -1, "zero": 0, "nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
    "null": None, "list": [1], "object": {"a": 1},
}

# Output columns (by header name) and summary keys that hold timings.
TIMING_COLUMNS = {"wall_time_s", "effective_time_per_eval_s"}
TIMING_KEYS = {"total_runtime_s", "median_runtime_s"}


def cases():
    for name, (command, config) in BASES.items():
        yield f"{name}/valid", command, config, None
    for base, path in FIELDS:
        command, config = BASES[base]
        field = [key for key in path if isinstance(key, str)][-1]
        label = "/".join(str(key) for key in path)
        for value_name, value in ODD_VALUES.items():
            changed = copy.deepcopy(config)
            target = changed
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            yield f"{base}/{label}={value_name}", command, changed, field


def _without_timings(data):
    if isinstance(data, dict):
        return {k: _without_timings(v) for k, v in data.items() if k not in TIMING_KEYS}
    if isinstance(data, list):
        return [_without_timings(v) for v in data]
    return data


def digest(path: Path) -> str:
    """SHA-256 of an output file, timing columns and keys removed."""
    if path.suffix == ".json":
        data = json.dumps(_without_timings(json.loads(path.read_text())), sort_keys=True)
    elif path.name == "envelopes.csv":
        # Which rows exist depends on the run times; only the header is fixed.
        data = path.read_text().splitlines()[0]
    elif path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [pos for pos, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
        data = "\n".join(",".join(row[pos] for pos in keep) for row in rows)
    else:
        data = path.read_bytes().hex()
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def run_case(main, command: str, config: dict, workdir: Path) -> dict:
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = workdir / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
    files = {}
    if out.exists():
        files = {p.name: digest(p) for p in sorted(out.iterdir())}
    return {
        "exit": code,
        "out_dir": out.exists(),
        "files": files,
        "message": err.getvalue().strip(),
    }


def record() -> None:
    from tetraopt.cli import main

    os.environ.pop("TETRAOPT_PARALLEL", None)
    for name, command, config, field in cases():
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(main, command, config, Path(tmp))
        print(json.dumps({"case": name, "field": field, **result}), flush=True)


def compare(path_a: str, path_b: str) -> int:
    def load(path):
        return {row["case"]: row for row in map(json.loads, Path(path).read_text().splitlines())}

    a, b = load(path_a), load(path_b)
    problems = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            problems.append(f"{name}: only in {'A' if name in a else 'B'}")
            continue
        for key in ("exit", "out_dir", "files"):
            if a[name][key] != b[name][key]:
                problems.append(f"{name}: {key} {a[name][key]} -> {b[name][key]}")
        for side, row in (("A", a[name]), ("B", b[name])):
            if row["exit"] == 2 and row["field"] and row["field"] not in row["message"]:
                problems.append(f"{name}: {side} message does not name {row['field']!r}")
    codes = [row["exit"] for row in b.values()]
    print(
        f"{len(b)} cases: " + ", ".join(
            f"{codes.count(code)} exit {code}" for code in sorted(set(codes))
        )
    )
    print("\n".join(problems) if problems else "no differences")
    return 1 if problems else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    sys.exit(compare(*args.compare) if args.compare else record())
