"""Summaries are strict JSON, and every table the CLI writes ends its lines with LF."""

import json

from tetraopt.cli import main

# Every evaluation overflows, so no seed finds a finite value.
OVERFLOWING = {
    "objective": {"name": "quadratic", "dimension": 1, "bounds": [[1e200, 1e300]]},
    "grid": [[1e200, 1e300, 3]],
    "seeds": [0, 1],
}
TETRAOPT = {"name": "tetraopt", "rank": 1, "iterations": 1}


def _refuse(constant):
    raise ValueError(f"summary holds {constant}, which is not JSON")


def _run(tmp_path, command, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return out, json.loads((out / "summary.json").read_text(), parse_constant=_refuse)


def test_optimize_without_a_finite_value_writes_nulls_and_no_trace(tmp_path):
    out, summary = _run(tmp_path, "optimize", {**OVERFLOWING, "optimizer": TETRAOPT})
    assert summary["median_best_value"] is None
    for run in summary["runs"]:
        assert run["best_value"] is None
        assert run["best_point"] is None
        assert run["trace_csv"] is None
        assert run["total_calls"] == 3
    assert sorted(path.name for path in out.iterdir()) == ["summary.json"]


def test_compare_without_a_finite_value_writes_nulls(tmp_path):
    bayes = {"name": "bayes", "n_initial": 1, "n_iterations": 1}
    _, summary = _run(tmp_path, "compare", {**OVERFLOWING, "optimizers": [TETRAOPT, bayes]})
    for entry in summary["optimizers"].values():
        assert entry["median_final_best"] is None
        assert entry["best_final_best"] is None
        assert entry["worst_final_best"] is None
    assert summary["median_final_ratio"] == {"bayes_over_tetraopt": None}


def test_compare_of_one_optimizer_twice_numbers_the_labels(tmp_path):
    # The grid holds the quadratic's center, so both medians are 0.
    payload = {
        "objective": {"name": "quadratic", "dimension": 1, "center": [0.5], "bounds": [[0, 1]]},
        "grid": [[0, 1, 3]],
        "optimizers": [TETRAOPT, TETRAOPT],
        "seeds": [0],
    }
    out, summary = _run(tmp_path, "compare", payload)
    assert list(summary["optimizers"]) == ["tetraopt1", "tetraopt2"]
    assert summary["optimizers"]["tetraopt1"]["median_final_best"] == 0
    assert summary["median_final_ratio"] == {"tetraopt2_over_tetraopt1": None}
    rows = (out / "comparison.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"tetraopt1", "tetraopt2"}


def test_trace_files_end_their_lines_with_lf(tmp_path):
    payload = {
        "objective": {"name": "quadratic", "dimension": 2, "center": [0.5, 0.0]},
        "optimizer": TETRAOPT,
        "seeds": [0],
    }
    out, summary = _run(tmp_path, "optimize", payload)
    data = (out / summary["runs"][0]["trace_csv"]).read_bytes()
    assert b"\r" not in data
    assert data.startswith(b"calls,wall_time_s,best_value,x0,x1\n")
