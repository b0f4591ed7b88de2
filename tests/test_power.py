import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tetraopt.power
from tetraopt import TensorTrain, tt_eval, tt_full, tt_hadamard, tt_round
from tetraopt.power import PowerConfig, _square_round, rank_growth_probe, tt_power_argmax


def spike_tensor():
    """d=3, n=4 tensor: a rank-2 train with one entry pushed to 10."""
    base = TensorTrain.from_vectors([[1.0, 0.3, 0.2, 0.1]] * 3)
    spike = TensorTrain.from_vectors(
        [[0.0, 9.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    )
    from tetraopt import tt_add

    return tt_add(base, spike)


class TestPowerArgmax:
    def test_spike_found_quickly(self):
        tt = spike_tensor()
        dense = tt_full(tt)
        true_idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
        idx, value = tt_power_argmax(tt, PowerConfig(steps=4, max_rank=8), seed=0)
        assert tuple(idx) == tuple(true_idx)
        assert value == pytest.approx(dense[true_idx])

    def test_constant_tensor(self):
        tt = TensorTrain.constant([3, 3, 3], 5.0)
        idx, value = tt_power_argmax(tt, PowerConfig(steps=3, max_rank=4), seed=1)
        assert value == pytest.approx(5.0)
        assert all(0 <= i < 3 for i in idx)

    def test_random_nonnegative_matches_dense_argmax(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tt = TensorTrain.random([5, 5, 5, 5], 3, rng, nonnegative=True)
            dense = tt_full(tt)
            true_idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
            idx, _ = tt_power_argmax(tt, PowerConfig(steps=8, max_rank=16), seed=seed)
            wins += tuple(idx) == tuple(true_idx)
        assert wins >= 9

    def test_returned_value_is_true_entry(self):
        rng = np.random.default_rng(11)
        tt = TensorTrain.random([4, 4, 4], 2, rng, nonnegative=True)
        idx, value = tt_power_argmax(tt, PowerConfig(steps=5, max_rank=8), seed=2)
        assert value == pytest.approx(tt_eval(tt, idx), rel=1e-12)

    def test_explicit_shift_respected(self):
        rng = np.random.default_rng(4)
        tt = TensorTrain.random([4, 4, 4], 2, rng)  # mixed signs
        dense = tt_full(tt)
        shift = float(-dense.min()) + 0.1
        idx, value = tt_power_argmax(tt, PowerConfig(steps=6, max_rank=12, shift=shift), seed=3)
        true_idx = np.unravel_index(int(np.argmax(dense)), dense.shape)
        assert tuple(idx) == tuple(true_idx)
        assert value == pytest.approx(float(dense.max()))

    def test_squaring_preserves_argmax_on_dense_iterates(self):
        # For a nonnegative tensor, the dense argmax is invariant under
        # elementwise squaring at every exact step.
        rng = np.random.default_rng(6)
        tt = TensorTrain.random([4, 4, 4], 2, rng, nonnegative=True)
        dense = tt_full(tt)
        argmax = np.unravel_index(int(np.argmax(dense)), dense.shape)
        iterate = dense.copy()
        for _ in range(4):
            iterate = iterate**2
            assert np.unravel_index(int(np.argmax(iterate)), iterate.shape) == argmax

    def test_contrast_ratio_nondecreasing_with_rounding(self):
        ok = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(100 + seed)
            tt = TensorTrain.random([5, 5, 5], 2, rng, nonnegative=True)
            from tetraopt import frobenius_norm, tt_hadamard, tt_round, tt_scale

            y = tt
            ratios = []
            for _ in range(4):
                y = tt_round(tt_hadamard(y, y), max_rank=8)
                y = tt_scale(y, 1.0 / frobenius_norm(y))
                dense = tt_full(y)
                top_two = np.sort(dense.ravel())[-2:]
                ratios.append(top_two[1] / max(top_two[0], 1e-300))
            if all(b >= a * (1 - 1e-9) for a, b in zip(ratios, ratios[1:])):
                ok += 1
        assert ok >= 0.95 * trials

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PowerConfig(steps=0)
        with pytest.raises(ValueError):
            PowerConfig(max_rank=0)
        with pytest.raises(ValueError):
            PowerConfig(rel_tol=-0.5)
        with pytest.raises(ValueError):
            PowerConfig(rel_tol=float("nan"))
        with pytest.raises(ValueError):
            PowerConfig(shift=float("inf"))

    def test_never_forms_the_hadamard_square(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("tt_hadamard called")

        monkeypatch.setattr(tetraopt.power, "tt_hadamard", forbidden)
        tt = spike_tensor()
        idx, _ = tt_power_argmax(tt, PowerConfig(steps=4, max_rank=8), seed=0)
        dense = tt_full(tt)
        assert tuple(idx) == np.unravel_index(int(np.argmax(dense)), dense.shape)


def random_train(seed, d, n, rank, nonnegative):
    rng = np.random.default_rng(seed)
    return TensorTrain.random([n] * d, rank, rng, nonnegative=nonnegative)


train_args = dict(
    seed=st.integers(0, 10_000),
    d=st.integers(2, 5),
    n=st.integers(2, 6),
    rank=st.integers(1, 3),
    nonnegative=st.booleans(),
)


class TestSquareRound:
    @settings(max_examples=60, deadline=None)
    @given(**train_args)
    def test_exact_when_the_square_rank_fits(self, seed, d, n, rank, nonnegative):
        y = random_train(seed, d, n, rank, nonnegative)
        expected = tt_full(tt_hadamard(y, y))
        z = _square_round(y, rank * rank, 0.0, np.random.default_rng(seed))
        scale = float(np.abs(expected).max())
        np.testing.assert_allclose(tt_full(z), expected, rtol=1e-10, atol=1e-10 * scale)

    @settings(max_examples=30, deadline=None)
    @given(**train_args, max_rank=st.integers(1, 3))
    def test_ranks_capped(self, seed, d, n, rank, nonnegative, max_rank):
        y = random_train(seed, d, n, rank, nonnegative)
        z = _square_round(y, max_rank, 0.0, np.random.default_rng(seed))
        assert all(r <= max_rank for r in z.ranks)

    def test_same_seed_same_cores(self):
        y = random_train(5, 5, 6, 3, False)
        a = _square_round(y, 4, 0.0, np.random.default_rng(9))
        b = _square_round(y, 4, 0.0, np.random.default_rng(9))
        assert a.ranks == b.ranks
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)

    @settings(max_examples=30, deadline=None)
    @given(**train_args, rel_tol=st.floats(0.01, 0.5))
    def test_rel_tol_meets_the_rounding_bound(self, seed, d, n, rank, nonnegative, rel_tol):
        # tt_round drops at most rel_tol * ||z|| in total, and the sketch is
        # exact at rank**2, so the error against the dense square obeys it too,
        # and the ranks are the ones tt_round keeps for the exact square.
        y = random_train(seed, d, n, rank, nonnegative)
        square = tt_hadamard(y, y)
        expected = tt_full(square)
        z = _square_round(y, rank * rank, rel_tol, np.random.default_rng(seed))
        err = np.linalg.norm(tt_full(z) - expected)
        assert err <= (rel_tol + 1e-10) * np.linalg.norm(expected)
        assert z.ranks == tt_round(square, rank * rank, rel_tol).ranks


class TestRankGrowthProbe:
    def test_rank_two_with_generous_modes(self):
        tt = TensorTrain.random([2] * 20, 2, np.random.default_rng(0))
        assert rank_growth_probe(tt, 3) == [2, 4, 16, 256]

    def test_rank_one_stays_one(self):
        tt = TensorTrain.random([4, 4, 4], 1, np.random.default_rng(0))
        assert rank_growth_probe(tt, 4) == [1, 1, 1, 1, 1]

    def test_rank_three_two_steps(self):
        tt = TensorTrain.random([9] * 6, 3, np.random.default_rng(0))
        assert rank_growth_probe(tt, 2) == [3, 9, 81]

    def test_mode_size_caps_apply(self):
        # d=4, n=5: interior bond caps are (5, 25, 5).
        tt = TensorTrain.random([5, 5, 5, 5], 2, np.random.default_rng(0))
        assert rank_growth_probe(tt, 3) == [2, 4, 16, 25]

    def test_single_core(self):
        tt = TensorTrain.constant([6], 1.0)
        assert rank_growth_probe(tt, 2) == [1, 1, 1]
