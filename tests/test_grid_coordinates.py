"""SearchGrid's coordinate table against the per-point rule, bit for bit."""

import struct
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetraopt.optimizer import SearchGrid


def rule(lower, upper, points, k):
    """Index k of an axis: the ends exactly, else lower + k * (upper - lower) / (points - 1)."""
    if k == 0:
        return lower
    if k == points - 1:
        return upper
    return lower + k * (upper - lower) / (points - 1)


def bits(x):
    return struct.pack("<d", x)


ends = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])


@st.composite
def axes(draw):
    points = draw(st.integers(1, 40))
    lower, upper = draw(ends), draw(ends)
    if points > 1:
        lower, upper = sorted((lower, upper))
        assume(lower < upper)
    return lower, upper, points


@settings(max_examples=200, deadline=None)
@given(dims=st.lists(axes(), min_size=1, max_size=4))
def test_table_matches_the_rule(dims):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a span past the float range is inf, silently
        grid = SearchGrid(dims)
    for axis, (lower, upper, points) in enumerate(dims):
        expected = [bits(rule(lower, upper, points, k)) for k in range(points)]
        assert [bits(grid.coordinate(axis, k)) for k in range(points)] == expected
        rows = [[0] * len(dims) for _ in range(points)]
        for k, row in enumerate(rows):
            row[axis] = k
        assert [bits(x) for x in grid.points(rows)[:, axis].tolist()] == expected


def test_signed_zero_ends_and_one_point_axes():
    grid = SearchGrid([(-0.0, 1.0, 3), (-1.0, -0.0, 2), (-0.0, 5.0, 1), (7.0, 2.0, 1)])
    assert [bits(grid.coordinate(0, k)) for k in range(3)] == [bits(-0.0), bits(0.5), bits(1.0)]
    assert bits(grid.coordinate(1, 1)) == bits(-0.0)
    assert bits(grid.coordinate(2, 0)) == bits(-0.0)
    assert grid.coordinate(3, 0) == 7.0
