"""The compact key code: one byte per coordinate below 128, two to five above."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import TensorTrain, tensor_oracle, tt_cross
from tetraopt.cross import IndexCache, pack_keys, unpack_keys

# The edges of the code's length classes: 1, 2, 3 and 5 bytes.
BOUNDARIES = [0, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**32 - 1]


def code(c: int) -> bytes:
    """One coordinate's code, written out class by class."""
    if c < 2**7:
        return bytes([c])
    if c < 2**14:
        return bytes([0x80 | c >> 8, c & 0xFF])
    if c < 2**21:
        return bytes([0xC0 | c >> 16, c >> 8 & 0xFF, c & 0xFF])
    return bytes([0xE0]) + c.to_bytes(4, "big")


@st.composite
def boundary_rows(draw):
    """An (N, d) int64 array whose coordinates sit at or next to a class boundary."""
    d = draw(st.integers(1, 5))
    near = st.sampled_from(BOUNDARIES).flatmap(
        lambda b: st.integers(max(b - 2, 0), min(b + 2, 2**32 - 1))
    )
    rows = draw(st.lists(st.lists(near, min_size=d, max_size=d), min_size=1, max_size=25))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(rows=boundary_rows())
def test_boundary_keys_match_the_code_round_trip_sort_and_stand_alone(rows):
    keys = pack_keys(rows)
    assert keys == [b"".join(map(code, row)) for row in rows.tolist()]
    np.testing.assert_array_equal(unpack_keys(keys, rows.shape[1]), rows)

    tuples = list(map(tuple, rows.tolist()))
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    assert [tuples[pos] for pos in by_key] == sorted(tuples)
    assert len(set(keys)) == len(set(tuples))
    for pos in range(len(rows)):
        assert pack_keys(rows[pos : pos + 1])[0] == keys[pos]


def test_coordinates_below_128_take_one_byte_each():
    rows = np.random.default_rng(3).integers(0, 128, size=(50, 30))
    keys = pack_keys(rows)
    assert {len(key) for key in keys} == {30}
    assert keys[0] == bytes(rows[0].tolist())
    widths = [len(key) for key in pack_keys([[127], [128], [2**14], [2**21], [2**32 - 1]])]
    assert widths == [1, 2, 3, 5, 5]


def test_a_cross_over_wide_modes_matches_between_cache_kinds():
    # Modes of 200 and 20,000 take two- and three-byte codes.
    shape = [200, 20_000, 3, 200]
    source = TensorTrain.random(shape, 2, np.random.default_rng(11))
    for rank in (1, 2):
        oracle = tensor_oracle(source)
        packed_tt, packed_log = tt_cross(oracle, shape, rank, 1, 5, cache=IndexCache())
        cache: dict = {}
        dict_tt, dict_log = tt_cross(oracle, shape, rank, 1, 5, cache=cache)
        for a, b in zip(packed_tt.cores, dict_tt.cores):
            np.testing.assert_array_equal(a, b)
        entries = packed_log.entries
        assert entries == dict_log.entries
        assert max(idx[1] for idx, _, _ in entries) >= 2**14
        assert packed_log.unique_count == len(cache)
        assert cache == {idx: value for idx, value, _ in entries}
