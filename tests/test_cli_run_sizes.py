"""optimize, compare and cross-test's power method size their runs before any output.

Each config here would need far more than 1 GiB: it exits 2, names the
setting at fault, and leaves no output directory.
"""

import json

import pytest

from tetraopt.cli import main

QUADRATIC = {"name": "quadratic", "dimension": 1}
TETRAOPT = {"name": "tetraopt"}

OVERSIZED = {
    # About 2.3 GB in-process: its power method crosses the approximation
    # again at rank 16 over two sweeps.
    "power_final_cross": ("cross-test", {
        "shape": [5000] * 6, "generator_rank": 1, "rank": 1, "sweeps": 1, "probes": 10,
        "power": {"steps": 2, "max_rank": 16},
    }, "power.max_rank"),
    "dimension": ("optimize", {
        "objective": {"name": "quadratic", "dimension": 10**8}, "optimizer": TETRAOPT,
    }, "objective.dimension"),
    "grid_points": ("optimize", {
        "objective": QUADRATIC, "optimizer": TETRAOPT, "grid": [[-1, 1, 10**12]],
    }, "grid"),
    "bayes_budget": ("optimize", {
        "objective": QUADRATIC, "optimizer": {"name": "bayes", "n_iterations": 10**9},
    }, "n_iterations"),
    "tetraopt_cross": ("optimize", {
        "objective": {"name": "quadratic", "dimension": 6},
        "optimizer": {"name": "tetraopt", "rank": 16, "iterations": 4},
        "grid": [[-1, 1, 1000]] * 6,
    }, "iterations"),
    "compare_second_optimizer": ("compare", {
        "objective": QUADRATIC,
        "optimizers": [TETRAOPT, {"name": "bayes", "n_initial": 10**9}],
    }, "optimizers[1]: n_initial"),
}


@pytest.mark.parametrize("case", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_run_is_refused_before_any_output(tmp_path, capsys, case):
    command, payload, field = case
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**payload, "seeds": [0]}))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert field in capsys.readouterr().err
