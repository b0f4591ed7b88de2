"""Maxvol skips a start whose coefficients are not finite, as it skips a singular one."""

import warnings

import numpy as np

from tetraopt.maxvol import maxvol


def test_start_with_overflowing_coefficients_is_skipped():
    # A random start on a 1e-320 row inverts to inf, and inf * 0 is NaN.
    m = np.full((8, 1), 1e-320)
    m[0] = 1
    m[1] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = maxvol(m)
    assert result.row_indices == [0]
    assert np.isfinite(result.coefficients).all()
