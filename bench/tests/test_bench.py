"""The benchmark's own tests: tiny smoke runs, and checks that must trip.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402

import tetraopt  # noqa: E402
from tetraopt import mixer_surrogate  # noqa: E402

WORKLOADS = ["mixer-16ms", "rastrigin-d20-fail5", "cross-power", "gp-mixer"]


@pytest.fixture(autouse=True)
def _restore_blas_env(monkeypatch):
    for name in run.BLAS_THREADS:
        monkeypatch.setenv(name, run.BLAS_THREADS[name])


def bench(capsys, workload, trace=0, seconds=0.0):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", str(seconds),
        "--trace", str(trace), "--size", "tiny",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2]) if len(lines) > 1 else None


def declared(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_and_reports_every_metric(capsys, workload, trace):
    code, result, details = bench(capsys, workload, trace)
    assert code == 0, details
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(section)
    assert details["workload"] == workload and details["errors"] == 0


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == PER_LAYER


@pytest.mark.parametrize("workload", ["rastrigin-d20-fail5", "cross-power"])
def test_traced_self_times_cover_the_run(capsys, workload):
    _, result, details = bench(capsys, workload, trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["tracing.coverage"] == pytest.approx(1.0, abs=0.05)
    assert metrics["objectives.wall_s"] <= metrics["tracing.run_s"]
    if workload == "cross-power":
        shares = [metrics[f"cross.stage1.{k}_share"] for k in ("oracle", "maxvol", "bookkeeping")]
        assert 0.9 < sum(shares) <= 1.0 + 1e-9
    else:
        assert details["problems"] >= 2  # spans of several problems are pooled


@pytest.mark.parametrize("workload,trace", [("mixer-16ms", 0), ("cross-power", 1)])
def test_same_seed_gives_the_same_fingerprint_in_two_processes(workload, trace):
    def fingerprint():
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        return json.loads(done.stdout.splitlines()[-2])["fingerprint"]

    assert fingerprint() == fingerprint()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixer-16ms", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------------------
# Every check trips on a wrong result.


def test_call_budget_trips():
    assert checks.call_budget(100, 100) == []
    assert checks.call_budget(101, 100)
    assert checks.optimizer_budget(2, (5, 5, 5, 5), 4) == 625
    assert checks.cross_budget(2, (32,) * 30, 10) == 384_000


def test_grid_min_trips():
    assert checks.at_least_grid_min(0.1, 0.1) == []
    assert checks.at_least_grid_min(0.0999, 0.1)


def test_best_matches_objective_trips():
    point = (22.5, 0.275, 0.75, 0.3)
    value = mixer_surrogate(point)
    assert checks.best_matches_objective(value, point, mixer_surrogate) == []
    assert checks.best_matches_objective(value + 1e-12, point, mixer_surrogate)
    assert checks.best_matches_objective(value, None, mixer_surrogate)


def test_best_not_failed_trips():
    assert checks.best_not_failed((0.0, 1.0), lambda x: False) == []
    assert checks.best_not_failed((0.0, 1.0), lambda x: True)


def test_reconstruction_trips():
    truth = np.array([1.0, -2.0, 4.0])
    assert checks.reconstruction_within(checks.reconstruction_error(truth, truth), "s") == []
    wrong = truth + np.array([0.0, 1e-6, 0.0])
    assert checks.reconstruction_within(checks.reconstruction_error(truth, wrong), "s")
    assert checks.reconstruction_within(float("nan"), "s")


def test_power_value_trips():
    assert checks.power_value_matches(2.0, 2.0) == []
    assert checks.power_value_matches(2.0, 2.5)
    assert checks.power_value_matches(-1.0, -1.0)


def test_exact_calls_trips():
    assert checks.exact_calls(35, 35) == []
    assert checks.exact_calls(34, 35)


def test_same_counts_trips():
    assert checks.same_counts({"a": 1, "b": 2.0}, {"a": 1, "b": 2.0}, "x") == []
    assert checks.same_counts({"a": 1, "b": 2.0}, {"a": 1, "b": 2.5}, "x")


# ---------------------------------------------------------------------------
# A deliberately broken program makes the run fail.


def test_wrong_power_value_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(tetraopt.power, "tt_eval", lambda tt, idx: 123.0)
    code, result, details = bench(capsys, "cross-power")
    assert code == 1 and result["failed"] >= 1 and not result["correct"]
    assert any("power value" in m for m in details["error_messages"])


def test_wrong_batch_values_fail_the_run(capsys, monkeypatch):
    original = tetraopt.optimizer.evaluate_batch

    def shifted(*args, **kwargs):
        result = original(*args, **kwargs)
        result.values = [v - 1.0 for v in result.values]
        return result

    monkeypatch.setattr(tetraopt.optimizer, "evaluate_batch", shifted)
    code, result, details = bench(capsys, "mixer-16ms")
    assert code == 1 and result["failed"] >= 1
    messages = " ".join(details["error_messages"])
    assert "grid minimum" in messages and "the objective gives" in messages


def test_extra_gp_evaluation_fails_the_run(capsys, monkeypatch):
    real = tetraopt.bayes_minimize

    def one_more(objective, config, **kwargs):
        return real(objective, replace(config, n_iterations=config.n_iterations + 1), **kwargs)

    monkeypatch.setattr(tetraopt, "bayes_minimize", one_more)
    code, result, details = bench(capsys, "gp-mixer")
    assert code == 1 and result["failed"] >= 1
    assert any("expected exactly" in m for m in details["error_messages"])


@pytest.mark.parametrize("trace,seconds,guard", [(1, 0, "traced run"), (0, 2, "repeat pass")])
def test_nondeterministic_program_fails_the_run(capsys, monkeypatch, trace, seconds, guard):
    real = tetraopt.tetraopt_minimize
    calls = [0]

    def drifting(*args, **kwargs):
        trace = real(*args, **kwargs)
        calls[0] += 1
        trace.total_calls += calls[0]
        return trace

    monkeypatch.setattr(tetraopt, "tetraopt_minimize", drifting)
    code, result, details = bench(capsys, "rastrigin-d20-fail5", trace, seconds)
    assert code == 1 and result["failed"] >= 1
    assert any(f"{guard}: total_calls" in m for m in details["error_messages"])


# ---------------------------------------------------------------------------
# Span arithmetic.


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4


def test_worker_spans_are_charged_their_union():
    spans = [
        Span(0, "problem", None, 0.0, 10.0, True, True),
        Span(1, "harness", 0, 1.0, 9.0, True, True),
        Span(2, "objective", 1, 2.0, 6.0, False, True),
        Span(3, "objective", 1, 3.0, 7.0, False, True),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"problem": 2.0, "harness": 3.0, "objective": 5.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_failures():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    inner = tracer.wrap("inner", boom)

    def outer():
        with pytest.raises(ValueError):
            inner()

    tracer.call("outer", outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert not by_name["inner"].ok and by_name["outer"].ok
