"""Each subcommand takes only the flags it reads, and parallelism comes from
``--parallel``, else the config's ``parallel``, else the core count."""

import json

import pytest

from tetraopt.cli import main

OPTIMIZE = {
    "objective": {"name": "quadratic", "dimension": 1, "center": [0.3], "bounds": [[0.0, 1.0]]},
    "optimizer": {"name": "bayes", "n_initial": 2, "n_iterations": 1},
    "grid": [[0.0, 1.0, 5]],
    "seeds": [0],
}
BENCH_PARALLEL = {
    "objective": {"name": "quadratic", "dimension": 1, "latency_s": 0.001},
    "batch_size": 2,
    "levels": [1],
}
CROSS_TEST = {"shape": [3, 3], "generator_rank": 1, "rank": 1, "sweeps": 1, "seeds": [0]}


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "command, payload, flag",
    [
        ("bench-parallel", BENCH_PARALLEL, ["--seed", "1"]),
        ("bench-parallel", BENCH_PARALLEL, ["--parallel", "1"]),
        ("cross-test", CROSS_TEST, ["--parallel", "2"]),
    ],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, payload, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", _config(tmp_path, payload), "--out", str(out), *flag])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_cross_test_takes_a_seed_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["cross-test", "--config", _config(tmp_path, CROSS_TEST), "--out", str(out),
                 "--seed", "1"]) == 0
    assert (out / "cross_test.csv").read_text().splitlines()[1].startswith("1,")


def test_the_environment_sets_no_parallelism(tmp_path, monkeypatch):
    monkeypatch.setenv("TETRAOPT_PARALLEL", "abc")
    out = tmp_path / "out"
    assert main(["optimize", "--config", _config(tmp_path, OPTIMIZE), "--out", str(out)]) == 0


def test_the_parallel_flag_overrides_the_config(tmp_path, capsys):
    cfg = _config(tmp_path, {**OPTIMIZE, "parallel": 0})
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
    assert "parallel" in capsys.readouterr().err
    assert not out.exists()
    assert main(["optimize", "--config", cfg, "--parallel", "1", "--out", str(out)]) == 0
