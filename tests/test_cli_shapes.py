"""Config values of the wrong JSON shape exit 2, name the field and create nothing."""

import json

import pytest

from tetraopt.cli import main

QUADRATIC = {"name": "quadratic", "dimension": 2}
OPTIMIZE = {"objective": QUADRATIC, "optimizer": {"name": "tetraopt"}, "seeds": [0]}
BENCH_PARALLEL = {
    "objective": {"name": "quadratic", "dimension": 1, "latency_s": 0.001},
    "batch_size": 2,
    "levels": [1],
}
CROSS_TEST = {"shape": [3, 3], "generator_rank": 1, "rank": 1, "sweeps": 1, "seeds": [0]}


@pytest.mark.parametrize(
    "command, payload, flags, field",
    [
        ("optimize", [OPTIMIZE], [], "top level"),
        ("optimize", {**OPTIMIZE, "objective": "quadratic"}, [], "objective"),
        ("optimize", {**OPTIMIZE, "objective": {"name": "sphere"}}, [], "objective.name"),
        (
            "optimize",
            {**OPTIMIZE, "objective": {**QUADRATIC, "center": 0.5}},
            [],
            "objective.center",
        ),
        (
            "optimize",
            {**OPTIMIZE, "objective": {**QUADRATIC, "bounds": 1.0}},
            [],
            "objective.bounds",
        ),
        (
            "optimize",
            {**OPTIMIZE, "objective": {**QUADRATIC, "center": [0.5]}},
            [],
            "objective.center",
        ),
        ("optimize", {**OPTIMIZE, "grid": [[0.0, 1.0, 3]]}, [], "grid"),
        ("optimize", {**OPTIMIZE, "optimizer": "tetraopt"}, [], "optimizer"),
        ("optimize", {**OPTIMIZE, "optimizer": {"rank": 2}}, [], "'name'"),
        ("optimize", {**OPTIMIZE, "seeds": 3}, [], "seeds"),
        ("optimize", OPTIMIZE, ["--seed", "1;2"], "--seed"),
        ("bench-parallel", {**BENCH_PARALLEL, "levels": 2}, [], "levels"),
        ("cross-test", {**CROSS_TEST, "shape": 3}, [], "shape"),
        ("cross-test", {**CROSS_TEST, "power": [2]}, [], "power"),
    ],
)
def test_wrong_shape_is_refused_before_any_output(
    tmp_path, capsys, command, payload, flags, field
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()
