import csv
import json

import pytest

from tetraopt.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BAYES_QUADRATIC = {
    "objective": {
        "name": "quadratic",
        "dimension": 1,
        "center": [0.3],
        "bounds": [[0.0, 1.0]],
    },
    "optimizer": {"name": "bayes"},
    "grid": [[0.0, 1.0, 5]],
    "seeds": [0],
}


class TestConfigValidation:
    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"objective": {"name": "mixer"}})
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "optimizer" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "objective": {"name": "mixer"},
                "optimizer": {"name": "tetraopt"},
                "typo_field": 1,
            },
        )
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "typo_field" in capsys.readouterr().err

    def test_missing_dimension_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"objective": {"name": "rastrigin"}, "optimizer": {"name": "tetraopt"}},
        )
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objective, key",
        [
            ({"name": "mixer", "dimension": 7}, "dimension"),
            ({"name": "mixer", "center": [1]}, "center"),
            ({"name": "rastrigin", "dimension": 2, "center": [0, 0]}, "center"),
            ({"name": "rosenbrock", "dimension": 2, "center": [0, 0]}, "center"),
            ({"name": "ackley", "dimension": 2, "center": [0, 0]}, "center"),
        ],
    )
    def test_key_the_objective_ignores_is_rejected(self, tmp_path, capsys, objective, key):
        cfg = write_config(tmp_path, {"objective": objective, "optimizer": {"name": "tetraopt"}})
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"objective.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_json_line_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "objective": ???\n}')
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "broken.json:2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["optimize", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_unknown_optimizer(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"objective": {"name": "mixer"}, "optimizer": {"name": "genetic"}},
        )
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "genetic" in capsys.readouterr().err


class TestOptimize:
    def test_bayes_quadratic_trace_has_35_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "trace_bayes_0.csv")
        assert rows[0] == ["calls", "wall_time_s", "best_value", "x0"]
        assert len(rows) - 1 == 35
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["total_calls"] == 35

    def test_tetraopt_mixer_multi_seed_summary(self, tmp_path, mixer_grid_min):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "objective": {"name": "mixer"},
                "optimizer": {"name": "tetraopt"},
                "seeds": list(range(10)),
                "parallel": 1,
            },
        )
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        traces = sorted(out.glob("trace_tetraopt_*.csv"))
        assert len(traces) == 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["median_best_value"] <= mixer_grid_min["value"] * 1.05

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--seed", "7,8", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("trace_*.csv")) == [
            "trace_bayes_7.csv",
            "trace_bayes_8.csv",
        ]

    def test_deterministic_outputs_excluding_time(self, tmp_path):
        def run(tag):
            out = tmp_path / tag
            cfg = write_config(tmp_path, BAYES_QUADRATIC, name=f"{tag}.json")
            assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
            rows = read_csv(out / "trace_bayes_0.csv")
            return [[c for k, c in enumerate(row) if k != 1] for row in rows]

        assert run("a") == run("b")


class TestCompare:
    def test_schema_and_ratio(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "objective": {"name": "mixer"},
                "optimizers": [{"name": "tetraopt"}, {"name": "bayes"}],
                "seeds": [0, 1, 2],
                "parallel": 2,
            },
        )
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        assert rows[0] == ["optimizer", "seed", "wall_time_s", "calls", "best_value"]
        optimizers = {row[0] for row in rows[1:]}
        assert optimizers == {"tetraopt", "bayes"}
        envelopes = read_csv(out / "envelopes.csv")
        assert envelopes[0] == [
            "optimizer",
            "wall_time_s",
            "median_best",
            "lowest_best",
            "highest_best",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert "median_final_ratio" in summary
        ratio = summary["median_final_ratio"]["bayes_over_tetraopt"]
        assert ratio > 0

    def test_degenerate_single_point_grid(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "objective": {
                    "name": "quadratic",
                    "dimension": 2,
                    "center": [0.5, 0.5],
                    "bounds": [[0.2, 0.2], [0.7, 0.7]],
                },
                "grid": [[0.2, 0.2, 1], [0.7, 0.7, 1]],
                "optimizers": [{"name": "tetraopt"}, {"name": "bayes", "n_iterations": 3}],
                "seeds": [0],
            },
        )
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        finals = [
            summary["optimizers"][label]["median_final_best"]
            for label in ("tetraopt", "bayes")
        ]
        assert finals[0] == pytest.approx(finals[1])

    def test_requires_two_optimizers(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"objective": {"name": "mixer"}, "optimizers": [{"name": "tetraopt"}]},
        )
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


class TestBenchParallel:
    def test_scaling_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "objective": {"name": "quadratic", "dimension": 2, "latency_s": 0.02},
                "batch_size": 8,
                "levels": [1, 2],
            },
        )
        assert main(["bench-parallel", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "scaling.csv")
        assert rows[0] == ["parallelism", "effective_time_per_eval_s"]
        assert [row[0] for row in rows[1:]] == ["1", "2"]
        assert float(rows[1][1]) >= float(rows[2][1]) * 0.85

    def test_latency_required(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "objective": {"name": "quadratic", "dimension": 2},
                "batch_size": 8,
                "levels": [1],
            },
        )
        assert main(["bench-parallel", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "latency" in capsys.readouterr().err


class TestCrossTest:
    def test_error_and_budget_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "shape": [8, 8, 8, 8, 8],
                "generator_rank": 3,
                "rank": 3,
                "sweeps": 3,
                "seeds": [0, 1],
                "save_tt": True,
            },
        )
        assert main(["cross-test", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "cross_test.csv")
        assert rows[0] == [
            "seed", "d", "n_max", "rank", "sweeps",
            "rel_error", "unique_calls", "budget", "within_budget",
        ]
        for row in rows[1:]:
            assert float(row[5]) <= 1e-8
            assert int(row[6]) <= int(row[7])
            assert row[8] == "true"
        assert (out / "cross_tt_0.tt").exists()

    def test_rank_one_exact(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {"shape": [6, 6, 6], "generator_rank": 1, "rank": 1, "sweeps": 2, "seeds": [3]},
        )
        assert main(["cross-test", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "cross_test.csv")
        assert float(rows[1][5]) <= 1e-10

    def test_power_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "shape": [5, 5, 5, 5],
                "generator_rank": 2,
                "rank": 2,
                "sweeps": 2,
                "seeds": [0],
                "power": {"steps": 6, "max_rank": 12},
            },
        )
        assert main(["cross-test", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "power.csv")
        assert rows[0] == ["seed", "steps", "max_rank", "index", "power_value", "cross_best_value"]
        assert len(rows) == 2

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), -1])
    def test_bad_power_rel_tol_is_config_error(self, tmp_path, capsys, rel_tol):
        cfg = write_config(
            tmp_path,
            {
                "shape": [4, 4, 4],
                "generator_rank": 2,
                "rank": 2,
                "sweeps": 1,
                "seeds": [0],
                "power": {"rel_tol": rel_tol},
            },
        )
        assert main(["cross-test", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "rel_tol" in capsys.readouterr().err


class TestExitCodes:
    def test_runtime_failure_is_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the output directory should go")
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--out", str(blocker)]) == 3
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, flags, key",
        [
            ("optimize", {"optimizer": {"name": "bayes", "kappa": -1}}, [], "kappa"),
            (
                "optimize",
                {"optimizer": {"name": "bayes", "n_iterations": True}},
                [],
                "n_iterations",
            ),
            (
                "optimize",
                {"objective": {"name": "quadratic", "dimension": 1, "bounds": [[1, 0]]}},
                [],
                "bounds",
            ),
            (
                "optimize",
                {
                    "objective": {
                        "name": "quadratic", "dimension": 1, "center": [0.5], "bounds": [[1, 0]],
                    }
                },
                [],
                "bounds",
            ),
            ("optimize", {"objective": {"name": "rosenbrock", "dimension": 1}}, [], "dimension"),
            ("optimize", {"seeds": [-1]}, [], "seeds"),
            ("optimize", {}, ["--seed", "-1"], "--seed"),
            ("cross-test", {"seeds": [-2]}, [], "seeds"),
            ("bench-parallel", {"seed": "x"}, [], "seed"),
            ("bench-parallel", {"seed": -1}, [], "seed"),
            ("cross-test", {"save_tt": "no"}, [], "save_tt"),
        ],
    )
    def test_config_errors_exit_2_before_any_run(
        self, tmp_path, capsys, command, payload, flags, key
    ):
        base = {
            "optimize": {
                "objective": {"name": "quadratic", "dimension": 1},
                "optimizer": {"name": "tetraopt"},
                "seeds": [0],
            },
            "cross-test": {
                "shape": [3, 3], "generator_rank": 1, "rank": 1, "sweeps": 1, "seeds": [0],
            },
            "bench-parallel": {
                "objective": {"name": "quadratic", "dimension": 1, "latency_s": 0.001},
                "batch_size": 2,
                "levels": [1],
            },
        }[command]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {**base, **payload})
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestParallelResolution:
    def test_env_var_honored(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("TETRAOPT_PARALLEL", "not-an-int")
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        monkeypatch.setenv("TETRAOPT_PARALLEL", "2")
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("TETRAOPT_PARALLEL", "0")  # invalid, but flag wins
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--parallel", "1", "--out", str(out)]) == 0


class TestFailureReports:
    @pytest.mark.parametrize("seeds", ["", ","])
    def test_empty_seed_flag_is_a_config_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--seed", seeds, "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_without_a_message_names_the_exception(
        self, tmp_path, capsys, monkeypatch
    ):
        def out_of_memory(cfg, args):
            raise MemoryError()

        monkeypatch.setattr("tetraopt.cli.cmd_optimize", out_of_memory)
        cfg = write_config(tmp_path, BAYES_QUADRATIC)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "runtime failure: MemoryError" in capsys.readouterr().err
