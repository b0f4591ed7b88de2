"""What a cross holds in memory: pivot completion and the sample log."""

import contextlib
import io
import json
import tracemalloc

import numpy as np

import tetraopt.cross
from tetraopt import TensorTrain, tensor_oracle, tt_cross
from tetraopt.cli import main
from tetraopt.cross import _COMPLETION_SEED, _RANK_RTOL, _select_pivots, maxvol
from tetraopt.tt import tt_eval_many


def _select_pivots_with_identity(matrix):
    """``_select_pivots`` completing the rows with columns of ``np.eye(n)``."""
    q, r_factor = np.linalg.qr(matrix)
    u, sv, _ = np.linalg.svd(r_factor)
    n, m = q.shape
    k = int(np.count_nonzero(sv > _RANK_RTOL * sv[0]))
    if k == m:
        result = maxvol(q)
        return result.row_indices, result.coefficients
    span = q @ u[:, :k]
    rows = maxvol(span).row_indices if k else []
    rest = np.setdiff1d(np.arange(n), rows)
    extra = np.random.default_rng(_COMPLETION_SEED).choice(rest, m - k, replace=False)
    basis = np.hstack([span, np.eye(n)[:, extra]])
    rows = sorted(rows + [int(a) for a in extra])
    return rows, np.linalg.solve(basis[rows].T, basis.T).T


def test_completion_matches_the_identity_columns(monkeypatch):
    rng = np.random.default_rng(4)
    low_rank = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 5))
    for matrix in (low_rank, np.zeros((40, 3)), rng.standard_normal((30, 4))):
        rows, coeffs = _select_pivots(matrix)
        ref_rows, ref_coeffs = _select_pivots_with_identity(matrix)
        assert rows == ref_rows
        np.testing.assert_array_equal(coeffs, ref_coeffs)

    # A rank-3 cross of a rank-1 source completes every pivot matrix.
    source = TensorTrain.random([40] * 3, 1, np.random.default_rng(0))
    fresh, _ = tt_cross(tensor_oracle(source), [40] * 3, 3, 2, 0)
    monkeypatch.setattr(tetraopt.cross, "_select_pivots", _select_pivots_with_identity)
    reference, _ = tt_cross(tensor_oracle(source), [40] * 3, 3, 2, 0)
    for a, b in zip(fresh.cores, reference.cores):
        np.testing.assert_array_equal(a, b)


def test_completion_does_not_grow_with_the_square_of_the_rows():
    # Every pivot matrix has 2,000 * 3 = 6,000 rows; an identity of that
    # size alone is 288 MB.  The whole cross here peaks near 10 MB.
    source = TensorTrain.random([2000] * 3, 1, np.random.default_rng(0))
    tt_cross(tensor_oracle(source), [20] * 3, 3, 1, 0)  # imports outside the count
    tracemalloc.start()
    try:
        approx, _ = tt_cross(tensor_oracle(source), [2000] * 3, 3, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    assert [core.shape for core in approx.cores] == [(1, 2000, 3), (3, 2000, 3), (3, 2000, 1)]
    probes = np.random.default_rng(1).integers(0, 2000, size=(100, 3))
    truth = tt_eval_many(source, probes)
    np.testing.assert_allclose(tt_eval_many(approx, probes), truth, atol=1e-8 * np.abs(truth).max())


def test_cross_test_memory_does_not_grow_with_sweeps(tmp_path):
    # A rank-1 cross of a rank-1 source samples nothing new after its first
    # sweep; a sample log kept for every sweep grew by 3.6 MB per sweep here.
    def run(sweeps, name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "shape": [2000] * 12, "generator_rank": 1, "rank": 1, "sweeps": sweeps,
            "probes": 10, "seeds": [0],
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["cross-test", "--config", str(cfg), "--out", str(tmp_path / name)])

    assert run(1, "warm") == 0  # imports and caches outside the count
    peaks = {}
    for sweeps in (1, 3):
        tracemalloc.start()
        try:
            assert run(sweeps, f"sweeps{sweeps}") == 0
            peaks[sweeps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[3] < peaks[1] + 2**20
