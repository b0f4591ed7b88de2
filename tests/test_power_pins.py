"""The power method's results and rank-growth sequences, pinned bit for bit."""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import TensorTrain
from tetraopt.power import PowerConfig, rank_growth_probe, tt_power_argmax

# (index, value.hex()) of tt_power_argmax on a nonnegative rank-3 [10]^6
# train drawn with default_rng(seed), run with PowerConfig(steps=5,
# max_rank=8) and the same seed.
PINNED = {
    0: ((9, 2, 8, 2, 2, 1), "0x1.e55045e80df4fp+4"),
    1: ((8, 4, 4, 9, 2, 6), "0x1.49de73fdccfe2p+4"),
    2: ((5, 4, 2, 4, 6, 4), "0x1.8f74b7d1320fap+4"),
    3: ((8, 3, 1, 0, 9, 1), "0x1.1760dda8ff80ep+4"),
    4: ((0, 7, 9, 5, 0, 9), "0x1.88f2112883671p+4"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_nonnegative_results_are_pinned(seed):
    tt = TensorTrain.random([10] * 6, 3, np.random.default_rng(seed), nonnegative=True)
    idx, value = tt_power_argmax(tt, PowerConfig(steps=5, max_rank=8), seed=seed)
    assert (idx, value.hex()) == PINNED[seed]


def _growth(shape, ranks, steps):
    """Interior bond ranks squared ``steps`` times, each clipped at
    ``min(prod(shape[:j + 1]), prod(shape[j + 1:]))``; the max per step."""
    d = len(shape)
    interior = list(ranks[1:d])
    caps = [min(prod(shape[: j + 1]), prod(shape[j + 1 :])) for j in range(d - 1)]
    sequence = [max(interior) if interior else 1]
    for _ in range(steps):
        interior = [min(r * r, cap) for r, cap in zip(interior, caps)]
        sequence.append(max(interior) if interior else 1)
    return sequence


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    rank=st.integers(1, 5),
    steps=st.integers(0, 4),
)
def test_rank_growth_follows_the_per_bond_formula(shape, rank, steps):
    tt = TensorTrain.random(shape, rank, np.random.default_rng(0))
    assert rank_growth_probe(tt, steps) == _growth(shape, tt.ranks, steps)


@pytest.mark.parametrize("steps", [0, 3])
def test_one_mode_train_stays_at_rank_one(steps):
    tt = TensorTrain.random([7], 1, np.random.default_rng(0))
    assert rank_growth_probe(tt, steps) == [1] * (steps + 1)
