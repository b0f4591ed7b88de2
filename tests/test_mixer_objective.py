"""mixer_objective checks its latency itself and names the argument."""

import math

import pytest

from tetraopt import mixer_objective


@pytest.mark.parametrize("latency_s", [-1.0, math.nan, "0.1", None, False])
def test_bad_latency_is_refused_by_name(latency_s):
    with pytest.raises(ValueError, match="latency_s"):
        mixer_objective(latency_s)


def test_latency_is_kept():
    assert mixer_objective(0.016).latency_s == 0.016
    assert mixer_objective().latency_s == 0.0
