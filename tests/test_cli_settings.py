"""A bad setting in a CLI config exits 2, names its field and creates no
output directory, whichever library type checks it."""

import copy
import json
import math

import pytest

from tetraopt.cli import main

BASES = {
    "tetraopt": ("optimize", {
        "objective": {"name": "quadratic", "dimension": 1, "center": [0.3], "bounds": [[0, 1]]},
        "optimizer": {"name": "tetraopt", "rank": 2, "iterations": 1},
        "grid": [[0, 1, 5]],
        "seeds": [0],
        "parallel": 1,
    }),
    "bayes": ("optimize", {
        "objective": {"name": "rastrigin", "dimension": 1},
        "optimizer": {"name": "bayes", "n_initial": 2, "n_iterations": 1, "kappa": 1.0},
        "seeds": [0],
    }),
    "bench-parallel": ("bench-parallel", {
        "objective": {"name": "quadratic", "dimension": 1, "latency_s": 0.001},
        "batch_size": 2,
        "levels": [1],
        "seed": 0,
    }),
    "cross-test": ("cross-test", {
        "shape": [3, 3],
        "generator_rank": 1,
        "rank": 1,
        "sweeps": 1,
        "probes": 5,
        "seeds": [0],
        "power": {"steps": 1, "max_rank": 2, "rel_tol": 0.0},
    }),
}

BAD = {"bool": True, "text": "3", "float": 2.5, "negative": -1, "nan": math.nan, "inf": math.inf}
COUNT = tuple(BAD)  # integers: every bad kind applies
AMOUNT = ("bool", "text", "negative", "nan", "inf")  # numbers >= 0: a float is fine
COORDINATE = ("bool", "text", "nan", "inf")  # any finite number

# (base, path of the setting, kinds of bad value, words the message must hold)
SETTINGS = [
    ("tetraopt", ("optimizer", "rank"), COUNT, ("rank",)),
    ("tetraopt", ("optimizer", "iterations"), COUNT, ("iterations",)),
    ("bayes", ("optimizer", "n_initial"), COUNT, ("n_initial",)),
    ("bayes", ("optimizer", "n_iterations"), COUNT, ("n_iterations",)),
    ("bayes", ("optimizer", "kappa"), AMOUNT, ("kappa",)),
    ("bayes", ("objective", "dimension"), COUNT, ("dimension",)),
    ("tetraopt", ("objective", "latency_s"), AMOUNT, ("latency_s",)),
    ("tetraopt", ("objective", "center", 0), COORDINATE, ("center",)),
    ("tetraopt", ("objective", "bounds", 0, 0), COORDINATE, ("bounds",)),
    ("tetraopt", ("objective", "bounds", 0, 1), COORDINATE, ("bounds",)),
    ("tetraopt", ("grid", 0, 0), COORDINATE, ("grid", "lower")),
    ("tetraopt", ("grid", 0, 1), COORDINATE, ("grid", "upper")),
    ("tetraopt", ("grid", 0, 2), COUNT, ("grid", "points")),
    ("tetraopt", ("seeds", 0), COUNT, ("seeds",)),
    ("tetraopt", ("parallel",), COUNT, ("parallel",)),
    ("cross-test", ("seeds", 0), COUNT, ("seeds",)),
    ("cross-test", ("power", "steps"), COUNT, ("power", "steps")),
    ("cross-test", ("power", "max_rank"), COUNT, ("power", "max_rank")),
    ("cross-test", ("power", "rel_tol"), AMOUNT, ("power", "rel_tol")),
    ("cross-test", ("shape", 0), COUNT, ("shape",)),
    ("cross-test", ("probes",), COUNT, ("probes",)),
    ("cross-test", ("rank",), COUNT, ("rank",)),
    ("cross-test", ("sweeps",), COUNT, ("sweeps",)),
    ("bench-parallel", ("batch_size",), COUNT, ("batch_size",)),
    ("bench-parallel", ("levels", 0), COUNT, ("levels",)),
    ("bench-parallel", ("seed",), COUNT, ("seed",)),
]

CASES = [
    pytest.param(base, path, BAD[kind], words, id=f"{base}-{'.'.join(map(str, path))}-{kind}")
    for base, path, kinds, words in SETTINGS
    for kind in kinds
]


@pytest.mark.parametrize("base, path, value, words", CASES)
def test_bad_setting_exits_2_naming_it_before_any_output(tmp_path, capsys, base, path, value, words):
    command, config = BASES[base]
    config = copy.deepcopy(config)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in words), err
    assert not out.exists()


@pytest.mark.parametrize("base", sorted(BASES))
def test_base_configs_run(tmp_path, base):
    command, config = BASES[base]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
