"""The GP's kernel and posterior, pinned bit for bit to their textbook formulas.

The kernel must equal the broadcast formula (an ``(n, m, d)`` difference
tensor summed by ``np.sum``), and ``_predict_many`` must equal the same
computation through ``scipy.linalg.cho_solve``: the BO trajectory depends on
every bit of both.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tetraopt import Kernel, gp_fit
from tetraopt.gp import _predict_many


def broadcast_kernel(kernel, a, b):
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    s = np.sqrt(5.0) * dist / kernel.length_scale
    return kernel.signal_variance * (1.0 + s + s**2 / 3.0) * np.exp(-s)


def cho_solve_posterior(model, x):
    from scipy.linalg import cho_solve

    k_star = model.kernel(x, model.observed_x)
    mean = k_star @ model._alpha
    v = cho_solve(model._chol, k_star.T)
    var = model.kernel.signal_variance - np.sum(k_star * v.T, axis=1)
    std = np.sqrt(np.clip(var, 0.0, None))
    return model.y_shift + model.y_scale * mean, model.y_scale * std


coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 16),
    n=st.integers(1, 9),
    m=st.integers(1, 9),
    length_scale=positive,
    signal_variance=positive,
)
def test_kernel_matches_the_broadcast_formula(data, d, n, m, length_scale, signal_variance):
    a = data.draw(hnp.arrays(np.float64, (n, d), elements=coordinates))
    b = data.draw(hnp.arrays(np.float64, (m, d), elements=coordinates))
    kernel = Kernel(length_scale, signal_variance)
    got = kernel(a, b)
    want = broadcast_kernel(kernel, a, b)
    assert got.shape == want.shape == (n, m)
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 16),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    length_scale=positive,
)
def test_kernel_matches_on_random_unit_points(seed, d, n, m, length_scale):
    rng = np.random.default_rng(seed)
    a, b = rng.random((n, d)), rng.random((m, d))
    b[: min(n, m)] = a[: min(n, m)]  # zero distances too
    kernel = Kernel(length_scale)
    assert np.array_equal(kernel(a, b), broadcast_kernel(kernel, a, b))


def test_kernel_matches_past_numpys_pairwise_block():
    rng = np.random.default_rng(0)
    kernel = Kernel(length_scale=4.0)
    for d in (0, 127, 128, 129, 136, 137, 255, 256, 300):
        a, b = rng.random((5, d)), rng.random((3, d))
        got = kernel(a, b)
        assert got.shape == (5, 3)
        assert np.array_equal(got, broadcast_kernel(kernel, a, b)), d


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 9),
    n_train=st.integers(1, 30),
    n_query=st.sampled_from([1, 2, 9, 2048]),
    length_scale=st.floats(0.05, 1.0),
    noise=st.floats(1e-6, 1e-2),
)
def test_predict_many_matches_the_cho_solve_formula(seed, d, n_train, n_query, length_scale, noise):
    rng = np.random.default_rng(seed)
    model = gp_fit(
        rng.random((n_train, d)), rng.standard_normal(n_train), Kernel(length_scale), noise
    )
    x = rng.random((n_query, d))
    got_mean, got_std = _predict_many(model, x)
    want_mean, want_std = cho_solve_posterior(model, x)
    assert np.array_equal(got_mean, want_mean)
    assert np.array_equal(got_std, want_std)
