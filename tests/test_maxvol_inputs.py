"""The cross hands maxvol orthonormal bases only.

maxvol starts its greedy search from the partial-pivoting rows of its
input and takes no second start from the input's Q factor: on an
orthonormal matrix that factor is the matrix itself up to column signs,
which partial pivoting ignores.  These runs pin the precondition on every
path that reaches maxvol through the cross.
"""

import dataclasses

import numpy as np
import pytest

import tetraopt.cross
from tetraopt import TensorTrain, benchmark, seeded_failure_model, tensor_oracle, tt_cross
from tetraopt.optimizer import SearchGrid, TetraOptConfig, tetraopt_minimize
from tetraopt.power import PowerConfig, tt_power_argmax


@pytest.fixture
def maxvol_inputs(monkeypatch):
    seen = []
    real = tetraopt.cross.maxvol

    def spy(m):
        seen.append(np.array(m, dtype=np.float64))
        return real(m)

    monkeypatch.setattr(tetraopt.cross, "maxvol", spy)
    return seen


def assert_orthonormal(matrices):
    assert len(matrices) >= 4
    for m in matrices:
        assert np.max(np.abs(m.T @ m - np.eye(m.shape[1]))) <= 1e-12


def test_optimizer_with_failures_passes_orthonormal_bases(maxvol_inputs):
    objective = dataclasses.replace(
        benchmark("rastrigin", 8), failure_model=seeded_failure_model(0.2, 1)
    )
    grid = SearchGrid([(-5.12, 5.12, 16)] * 8)
    tetraopt_minimize(objective, TetraOptConfig(grid=grid, rank=4, seed=0), max_parallel=1)
    assert_orthonormal(maxvol_inputs)


def test_rank_deficient_pivot_matrices_pass_orthonormal_bases(maxvol_inputs):
    source = TensorTrain.random([6] * 5, 2, np.random.default_rng(3))
    tt_cross(tensor_oracle(source), [6] * 5, rank=4, sweeps=2, seed=0)
    # Below full rank the cross hands maxvol its k-column range, k < 4.
    assert any(m.shape[1] < 4 for m in maxvol_inputs)
    assert_orthonormal(maxvol_inputs)


def test_power_method_passes_orthonormal_bases(maxvol_inputs):
    tt = TensorTrain.random([5] * 4, 3, np.random.default_rng(4), nonnegative=True)
    tt_power_argmax(tt, PowerConfig(steps=3, max_rank=8), seed=0)
    assert_orthonormal(maxvol_inputs)
