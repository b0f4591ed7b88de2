import importlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetraopt import maxvol, maxvol_element_bound_check
from tetraopt.maxvol import DEFAULT_SWAP_TOL, MAX_SWAP_ROUNDS

maxvol_module = importlib.import_module("tetraopt.maxvol")


def exhaustive_best_volume(m: np.ndarray) -> float:
    """Oracle: scan every r-row submatrix for the largest |det|."""
    n, r = m.shape
    combs = np.array(list(itertools.combinations(range(n), r)))
    return float(np.max(np.abs(np.linalg.det(m[combs]))))


class TestMaxvol:
    def test_three_row_example(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        result = maxvol(m)
        assert sorted(result.row_indices) == [0, 1]
        assert result.volume == pytest.approx(1.0)
        assert result.volume == pytest.approx(exhaustive_best_volume(m))

    def test_identity_stacked_on_zeros(self):
        m = np.vstack([np.eye(3), np.zeros((4, 3))])
        result = maxvol(m)
        assert sorted(result.row_indices) == [0, 1, 2]
        assert result.volume == pytest.approx(1.0)

    def test_random_matrices_match_exhaustive_maximum(self):
        hits = 0
        for trial in range(100):
            m = np.random.default_rng(1000 + trial).standard_normal((50, 4))
            result = maxvol(m)
            best = exhaustive_best_volume(m)
            assert result.volume >= best / 4.0
            if result.volume >= best * (1 - 1e-9):
                hits += 1
        assert hits >= 90

    def test_local_optimality_no_profitable_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((30, 3))
            result = maxvol(m)
            selected = list(result.row_indices)
            base = abs(np.linalg.det(m[selected]))
            for out_pos in range(3):
                for row in range(30):
                    if row in selected:
                        continue
                    trial = list(selected)
                    trial[out_pos] = row
                    assert abs(np.linalg.det(m[trial])) <= base * (1 + DEFAULT_SWAP_TOL) * (1 + 1e-9)

    def test_deterministic(self):
        m = np.random.default_rng(3).standard_normal((40, 4))
        a, b = maxvol(m), maxvol(m)
        assert a.row_indices == b.row_indices
        assert a.volume == b.volume

    def test_coefficients_reconstruct_rows(self):
        m = np.random.default_rng(8).standard_normal((25, 3))
        result = maxvol(m)
        np.testing.assert_allclose(result.coefficients @ m[result.row_indices], m, atol=1e-9)

    def test_rank_deficient_flagged_not_crashed(self):
        m = np.ones((10, 3))
        result = maxvol(m)
        assert result.degenerate
        assert len(set(result.row_indices)) == 3

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            maxvol(np.ones((2, 3)))
        with pytest.raises(ValueError):
            maxvol(np.ones(4))


class TestElementBound:
    def test_identity(self):
        j_hat, j_max, holds = maxvol_element_bound_check(np.eye(3))
        assert j_hat == 1.0 and j_max == 1.0 and holds

    def test_dominant_entry_example(self):
        m = np.array([[10.0, 0.0], [0.0, 0.1], [0.2, 0.1]])
        # Oracle by enumeration: |det| is 1.0 for {0,1} and {0,2}, 0.02 for
        # {1,2}; either maximizer contains the dominant entry 10.
        j_hat, j_max, holds = maxvol_element_bound_check(m)
        assert j_max == 10.0
        assert j_hat == 10.0
        assert holds

    def test_holds_on_random_sweep(self):
        for trial in range(200):
            m = np.random.default_rng(trial).standard_normal((50, 4))
            _, _, holds = maxvol_element_bound_check(m)
            assert holds


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(5, 40), r=st.integers(1, 4))
def test_element_bound_property(seed, n, r):
    m = np.random.default_rng(seed).standard_normal((n, r))
    _, _, holds = maxvol_element_bound_check(m)
    assert holds


def resolving_greedy(work, start):
    """Reference greedy: solve for the coefficients again after every swap."""
    selected = list(start)
    swap_count = 0
    while True:
        coeffs = np.linalg.solve(work[selected].T, work.T).T
        i, j = np.unravel_index(int(np.argmax(np.abs(coeffs))), coeffs.shape)
        if abs(coeffs[i, j]) <= 1.0 + DEFAULT_SWAP_TOL or swap_count >= MAX_SWAP_ROUNDS:
            return selected, swap_count
        selected[j] = int(i)
        swap_count += 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 8), extra=st.integers(0, 60))
def test_rank_one_updates_match_resolving_greedy(seed, r, extra):
    m = np.random.default_rng(seed).standard_normal((r + extra, r))
    local_optima = {}

    def reference(work, start):
        selected, swap_count = resolving_greedy(work, start)
        local_optima[frozenset(selected)] = abs(np.linalg.det(work[selected]))
        return selected, swap_count

    with mock.patch.object(maxvol_module, "_greedy_swaps", reference):
        expected = maxvol(m)
    # A volume gap: the best local optimum beats every other one clearly.
    volumes = sorted(local_optima.values(), reverse=True)
    assume(len(volumes) == 1 or volumes[0] > volumes[1] * (1 + 1e-6))

    result = maxvol(m)
    assert result.row_indices == expected.row_indices
    assert result.swap_count == expected.swap_count
    np.testing.assert_allclose(
        result.coefficients, m @ np.linalg.inv(m[result.row_indices]), rtol=0, atol=1e-10
    )
