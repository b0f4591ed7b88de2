import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import (
    TensorTrain,
    frobenius_norm,
    load_tt,
    save_tt,
    tt_add,
    tt_eval,
    tt_eval_many,
    tt_full,
    tt_hadamard,
    tt_round,
    tt_scale,
    tt_shift,
)


def random_tt(seed, shape, rank, nonnegative=False):
    return TensorTrain.random(shape, rank, np.random.default_rng(seed), nonnegative=nonnegative)


class TestConstruction:
    def test_boundary_ranks_must_be_one(self):
        with pytest.raises(ValueError, match="boundary"):
            TensorTrain([np.ones((2, 3, 1))])

    def test_adjacent_ranks_must_chain(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            TensorTrain([np.ones((1, 3, 2)), np.ones((3, 3, 1))])

    def test_cores_become_read_only(self):
        tt = random_tt(0, [3, 3], 2)
        with pytest.raises(ValueError):
            tt.cores[0][0, 0, 0] = 1.0

    def test_caller_arrays_stay_writable(self):
        mine = np.ones((1, 3, 1))
        tt = TensorTrain([mine])
        mine[0, 0, 0] = 5.0  # must not raise, and must not leak into the train
        assert tt_eval(tt, (0,)) == 1.0

    def test_rank_properties(self):
        tt = random_tt(0, [4, 5, 6], 3)
        assert tt.ranks == (1, 3, 3, 1)
        assert tt.max_rank == 3
        assert tt.mode_sizes == (4, 5, 6)


class TestEval:
    def test_outer_product_entry(self):
        tt = TensorTrain.from_vectors([[1, 2], [3, 4]])
        assert tt_eval(tt, (0, 1)) == 4.0

    def test_zero_cores_evaluate_to_zero(self):
        tt = TensorTrain([np.zeros((1, 3, 2)), np.zeros((2, 4, 1))])
        for idx in [(0, 0), (2, 3), (1, 2)]:
            assert tt_eval(tt, idx) == 0.0

    def test_matches_dense_at_random_indices(self):
        tt = random_tt(7, [5, 5, 5, 5], 3)
        dense = tt_full(tt)
        rng = np.random.default_rng(1)
        for _ in range(20):
            idx = tuple(int(rng.integers(5)) for _ in range(4))
            assert tt_eval(tt, idx) == pytest.approx(dense[idx], rel=1e-12)

    def test_rejects_out_of_bounds(self):
        tt = random_tt(0, [3, 3], 2)
        with pytest.raises(ValueError, match="out of bounds"):
            tt_eval(tt, (0, 3))
        with pytest.raises(ValueError, match="length"):
            tt_eval(tt, (0,))

    def test_eval_many_matches_eval(self):
        tt = random_tt(3, [4, 3, 5], 2)
        rng = np.random.default_rng(2)
        idx = np.stack([rng.integers(0, n, 50) for n in (4, 3, 5)], axis=1)
        batch = tt_eval_many(tt, idx)
        singles = [tt_eval(tt, tuple(row)) for row in idx]
        np.testing.assert_allclose(batch, singles, rtol=1e-13)


def eval_many_per_row(tt, indices):
    """Reference: every row contracted on its own, as one batched einsum chain."""
    indices = np.asarray(indices, dtype=np.intp)
    v = tt.cores[0][0, indices[:, 0], :]
    for j in range(1, tt.order):
        v = np.einsum("nr,rns->ns", v, tt.cores[j][:, indices[:, j], :])
    return v[:, 0]


def cross_shaped(rng, shape, core, n_prefixes, n_suffixes):
    """Index set ``prefixes x modes of core x suffixes``, as a cross request."""
    prefixes = [tuple(int(rng.integers(n)) for n in shape[:core]) for _ in range(n_prefixes)]
    suffixes = [tuple(int(rng.integers(n)) for n in shape[core + 1 :]) for _ in range(n_suffixes)]
    rows = [p + (i,) + s for p in prefixes for i in range(shape[core]) for s in suffixes]
    return np.array(rows, dtype=np.intp).reshape(-1, len(shape))


class TestEvalMany:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=7),
        rank=st.integers(1, 5),
        n_rows=st.integers(0, 1200),
    )
    def test_random_indices_match_per_row(self, seed, shape, rank, n_rows):
        rng = np.random.default_rng(seed)
        tt = TensorTrain.random(shape, rank, rng)
        idx = np.array([[rng.integers(n) for n in shape] for _ in range(n_rows)], dtype=np.intp)
        idx = idx.reshape(n_rows, len(shape))
        out = tt_eval_many(tt, idx)
        assert out.shape == (n_rows,) and out.dtype == np.float64
        assert np.array_equal(out, eval_many_per_row(tt, idx))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shape=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        rank=st.integers(1, 6),
        core=st.integers(0, 7),
        n_prefixes=st.integers(1, 12),
        n_suffixes=st.integers(1, 12),
    )
    def test_cross_shaped_indices_match_per_row(
        self, seed, shape, rank, core, n_prefixes, n_suffixes
    ):
        rng = np.random.default_rng(seed)
        tt = TensorTrain.random(shape, rank, rng)
        idx = cross_shaped(rng, shape, core % len(shape), n_prefixes, n_suffixes)
        assert np.array_equal(tt_eval_many(tt, idx), eval_many_per_row(tt, idx))

    def test_cross_request_across_chunk_boundaries(self):
        # 10 prefixes x 32 modes x 10 suffixes = 3200 rows, several 512-row chunks.
        rng = np.random.default_rng(5)
        shape = [32] * 12
        tt = TensorTrain.random(shape, 10, rng)
        for core in (0, 5, 11):
            idx = cross_shaped(rng, shape, core, 10, 10)
            assert len(idx) == 3200
            assert np.array_equal(tt_eval_many(tt, idx), eval_many_per_row(tt, idx))

    def test_empty_batch_and_single_core(self):
        tt = random_tt(8, [4, 3], 2)
        out = tt_eval_many(tt, np.zeros((0, 2), dtype=np.intp))
        assert out.shape == (0,) and out.dtype == np.float64
        vector = TensorTrain([np.array([5.0, -6.0, 7.0]).reshape(1, 3, 1)])
        idx = np.array([[2], [0], [2], [1]])
        assert np.array_equal(tt_eval_many(vector, idx), [7.0, 5.0, 7.0, -6.0])
        assert np.array_equal(tt_eval_many(vector, idx), eval_many_per_row(vector, idx))

    def test_rejects_bad_shape_and_out_of_bounds(self):
        tt = random_tt(0, [3, 4], 2)
        for bad in ([0, 1], [[0, 1, 2]], np.zeros((2, 2, 2), dtype=int)):
            with pytest.raises(ValueError, match=r"expected an \(N, d\) index array"):
                tt_eval_many(tt, bad)
        with pytest.raises(ValueError, match="index out of bounds for mode 1 of size 4"):
            tt_eval_many(tt, [[0, 1], [2, 4]])
        with pytest.raises(ValueError, match="index out of bounds for mode 0 of size 3"):
            tt_eval_many(tt, [[-1, 0]])


class TestFull:
    def test_single_core_vector(self):
        tt = TensorTrain([np.array([5.0, 6.0, 7.0]).reshape(1, 3, 1)])
        np.testing.assert_array_equal(tt_full(tt), [5.0, 6.0, 7.0])

    def test_rank_one_outer_product(self):
        tt = TensorTrain.from_vectors([[1, 2], [3, 4]])
        np.testing.assert_array_equal(tt_full(tt), [[3.0, 4.0], [6.0, 8.0]])

    def test_entrywise_match_against_eval(self):
        tt = random_tt(11, [4, 4, 4], 2)
        dense = tt_full(tt)
        for idx in np.ndindex(4, 4, 4):
            assert dense[idx] == pytest.approx(tt_eval(tt, idx), rel=1e-12)

    def test_cap_rejected(self):
        tt = random_tt(0, [10, 10, 10], 2)
        with pytest.raises(ValueError, match="cap"):
            tt_full(tt, max_entries=999)


class TestHadamard:
    def test_all_ones_stays_rank_one(self):
        ones = TensorTrain.constant([3, 4], 1.0)
        prod = tt_hadamard(ones, ones)
        assert prod.ranks == (1, 1, 1)
        np.testing.assert_allclose(tt_full(prod), 1.0)

    def test_square_matches_dense_square(self):
        tt = random_tt(5, [4, 4, 4], 2)
        squared = tt_hadamard(tt, tt)
        assert max(squared.ranks) <= 4
        np.testing.assert_allclose(tt_full(squared), tt_full(tt) ** 2, atol=1e-12)

    def test_squaring_eliminates_sign(self):
        tt = TensorTrain.from_vectors([[-3.0, 1.0], [1.0, 2.0]])
        squared = tt_hadamard(tt, tt)
        assert tt_eval(squared, (0, 0)) == pytest.approx(9.0)

    def test_rank_bookkeeping_is_product(self):
        a = random_tt(1, [3, 3, 3], 2)
        b = random_tt(2, [3, 3, 3], 3)
        prod = tt_hadamard(a, b)
        assert prod.ranks == tuple(x * y for x, y in zip(a.ranks, b.ranks))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mode sizes"):
            tt_hadamard(random_tt(0, [3, 3], 1), random_tt(0, [3, 4], 1))


class TestRound:
    def test_rank_one_is_fixed_point(self):
        tt = TensorTrain.from_vectors([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        rounded = tt_round(tt, max_rank=1)
        np.testing.assert_allclose(tt_full(rounded), tt_full(tt), atol=1e-12)

    def test_redundant_rank_four_rounds_to_two(self):
        # Two rank-2 trains sharing their addend directions: the sum has
        # representation rank 4 but true rank 2.
        u = TensorTrain.from_vectors([[1.0, 2.0, -1.0], [0.5, 1.0, 2.0], [1.0, -1.0, 1.0]])
        v = TensorTrain.from_vectors([[2.0, -1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        t1 = tt_add(u, v)
        t2 = tt_add(tt_scale(u, 2.0), tt_scale(v, -0.5))
        stacked = tt_add(t1, t2)
        assert max(stacked.ranks) == 4
        rounded = tt_round(stacked, max_rank=2)
        assert max(rounded.ranks) <= 2
        dense = tt_full(stacked)
        err = np.linalg.norm(tt_full(rounded) - dense) / np.linalg.norm(dense)
        assert err <= 1e-10

    def test_noop_truncation_preserves_entries(self):
        tt = random_tt(9, [5, 5, 5, 5], 5)
        rounded = tt_round(tt, max_rank=5)
        dense = tt_full(tt)
        err = np.max(np.abs(tt_full(rounded) - dense)) / np.max(np.abs(dense))
        assert err <= 1e-10

    def test_never_increases_ranks(self):
        tt = random_tt(13, [4, 5, 6, 4], 3)
        rounded = tt_round(tt, max_rank=2)
        assert all(r <= 2 for r in rounded.ranks)
        assert all(a <= b for a, b in zip(rounded.ranks, tt.ranks))

    def test_tolerance_truncation_respects_error_bound(self):
        # Sum of rank-1 trains with geometrically decaying weights: a loose
        # tolerance must drop the weak directions while keeping the total
        # relative error under the tolerance.
        rng = np.random.default_rng(0)
        total = None
        for k in range(6):
            part = tt_scale(
                TensorTrain.from_vectors([rng.standard_normal(6) for _ in range(4)]),
                3.0**-k,
            )
            total = part if total is None else tt_add(total, part)
        dense = tt_full(total)
        rounded = tt_round(total, max_rank=6, rel_tol=1e-1)
        assert max(rounded.ranks) < max(total.ranks)
        err = np.linalg.norm(tt_full(rounded) - dense) / np.linalg.norm(dense)
        assert err <= 1e-1

    def test_invalid_arguments(self):
        tt = random_tt(0, [3, 3], 2)
        with pytest.raises(ValueError):
            tt_round(tt, max_rank=0)
        with pytest.raises(ValueError):
            tt_round(tt, max_rank=2, rel_tol=-1.0)


class TestArithmetic:
    def test_add_matches_dense_sum(self):
        a, b = random_tt(1, [3, 4, 3], 2), random_tt(2, [3, 4, 3], 2)
        np.testing.assert_allclose(tt_full(tt_add(a, b)), tt_full(a) + tt_full(b), atol=1e-12)

    def test_shift_adds_constant(self):
        a = random_tt(4, [3, 3, 3], 2)
        np.testing.assert_allclose(tt_full(tt_shift(a, 2.5)), tt_full(a) + 2.5, atol=1e-12)

    def test_frobenius_norm_matches_dense(self):
        a = random_tt(6, [4, 4, 4], 3)
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(tt_full(a)), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 4),
    n=st.integers(1, 4),
    rank=st.integers(1, 3),
)
def test_eval_equals_full_everywhere(seed, d, n, rank):
    tt = random_tt(seed, [n] * d, rank)
    dense = tt_full(tt)
    for idx in np.ndindex(*tt.mode_sizes):
        assert abs(dense[idx] - tt_eval(tt, idx)) <= 1e-12 * max(1.0, abs(dense[idx]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rank=st.integers(1, 3))
def test_hadamard_entries_multiply(seed, rank):
    a = random_tt(seed, [3, 3, 3], rank)
    b = random_tt(seed + 1, [3, 3, 3], rank)
    prod = tt_hadamard(a, b)
    np.testing.assert_allclose(tt_full(prod), tt_full(a) * tt_full(b), atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), max_rank=st.integers(1, 6))
def test_round_caps_and_reconstructs(seed, max_rank):
    tt = random_tt(seed, [4, 4, 4], 2)
    rounded = tt_round(tt, max_rank=max_rank)
    assert all(r <= max(max_rank, 1) for r in rounded.ranks[1:-1])
    if max_rank >= 2:
        dense = tt_full(tt)
        err = np.linalg.norm(tt_full(rounded) - dense) / np.linalg.norm(dense)
        assert err <= 1e-10


class TestSerialization:
    def test_round_trip(self, tmp_path):
        tt = random_tt(21, [4, 3, 5], 3)
        path = tmp_path / "train.tt"
        save_tt(tt, path)
        loaded = load_tt(path)
        assert loaded.mode_sizes == tt.mode_sizes
        assert loaded.ranks == tt.ranks
        for a, b in zip(loaded.cores, tt.cores):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_tt(path)

    def write_header(self, path, order, *, sizes=(), ranks=(), cores_bytes=b""):
        with open(path, "wb") as fh:
            fh.write(b"TTRN" + struct.pack("<II", 1, order))
            fh.write(np.asarray(sizes, dtype="<u8").tobytes())
            fh.write(np.asarray(ranks, dtype="<u8").tobytes())
            fh.write(cores_bytes)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.tt"
        path.write_bytes(b"TTRN\x01\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_tt(path)

    def test_more_modes_than_the_file_holds_rejected(self, tmp_path):
        path = tmp_path / "modes.tt"
        self.write_header(path, 5, sizes=[3, 3])
        with pytest.raises(ValueError, match="truncated"):
            load_tt(path)

    def test_huge_rank_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "rank.tt"
        self.write_header(path, 2, sizes=[3, 3], ranks=[1, 2**40, 1], cores_bytes=b"\x00" * 64)
        with pytest.raises(ValueError, match="truncated"):
            load_tt(path)

    def test_truncated_core_data_rejected(self, tmp_path):
        tt = random_tt(22, [4, 3, 5], 3)
        path = tmp_path / "cut.tt"
        save_tt(tt, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_tt(path)

    def test_order_zero_rejected(self, tmp_path):
        path = tmp_path / "empty.tt"
        self.write_header(path, 0, ranks=[1])
        with pytest.raises(ValueError, match="at least one core"):
            load_tt(path)
