import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import (
    BayesConfig,
    Kernel,
    acquisition_ucb,
    bayes_minimize,
    benchmark,
    gp_fit,
    gp_predict,
    propose_next,
    shifted_quadratic,
)
from tetraopt.objectives import BlackBoxObjective


def dense_posterior(kernel, train_x, train_y, noise, query):
    """Independent oracle: textbook GP formulas via explicit inversion,
    including the target standardization the fitted model applies."""
    train_x = np.atleast_2d(train_x)
    query = np.atleast_2d(query)
    shift = train_y.mean()
    scale = train_y.std() if train_y.std() > 1e-12 else 1.0
    targets = (train_y - shift) / scale
    k_xx = kernel(train_x, train_x) + noise * np.eye(len(train_y))
    k_sx = kernel(query, train_x)
    inv = np.linalg.inv(k_xx)
    mean = shift + scale * (k_sx @ inv @ targets)
    var = kernel.signal_variance - np.einsum("ij,jk,ik->i", k_sx, inv, k_sx)
    return mean, scale * np.sqrt(np.clip(var, 0, None))


class TestGpFit:
    def test_single_observation_interpolates(self):
        model = gp_fit([[0.5]], [2.0], noise_variance=0.0)
        mean, std = gp_predict(model, [0.5])
        assert mean == pytest.approx(2.0, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-6)

    def test_prior_reversion_far_from_data(self):
        kernel = Kernel(length_scale=0.05)
        model = gp_fit([[0.0], [0.1]], [1.0, 3.0], kernel=kernel)
        mean, std = gp_predict(model, [10.0])
        assert mean == pytest.approx(2.0, abs=1e-6)  # de-standardized prior mean
        assert std == pytest.approx(model.y_scale, rel=1e-6)  # prior std

    def test_sine_interpolation_against_dense_oracle(self):
        xs = np.linspace(0.0, np.pi, 5).reshape(-1, 1)
        ys = np.sin(xs).ravel()
        kernel = Kernel(length_scale=0.5)
        model = gp_fit(xs, ys, kernel=kernel, noise_variance=1e-10)
        midpoints = (xs[:-1] + xs[1:]) / 2
        oracle_mean, oracle_std = dense_posterior(kernel, xs, ys, 1e-10, midpoints)
        for k, x in enumerate(midpoints):
            mean, std = gp_predict(model, x)
            assert mean == pytest.approx(oracle_mean[k], abs=1e-8)
            assert std == pytest.approx(oracle_std[k], abs=1e-6)
            assert abs(mean - np.sin(x[0])) <= 0.1

    def test_random_data_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        xs = rng.random((5, 2))
        ys = rng.standard_normal(5)
        kernel = Kernel()
        model = gp_fit(xs, ys, kernel=kernel)
        queries = rng.random((20, 2))
        oracle_mean, oracle_std = dense_posterior(kernel, xs, ys, 1e-6, queries)
        for k, q in enumerate(queries):
            mean, std = gp_predict(model, q)
            assert mean == pytest.approx(oracle_mean[k], abs=1e-8)
            assert std == pytest.approx(oracle_std[k], abs=1e-8)

    def test_posterior_interpolates_training_points(self):
        rng = np.random.default_rng(5)
        xs = rng.random((6, 2))
        ys = rng.standard_normal(6)
        model = gp_fit(xs, ys, noise_variance=0.0)
        for x, y in zip(xs, ys):
            mean, _ = gp_predict(model, x)
            assert mean == pytest.approx(y, abs=1e-8)

    def test_duplicate_points_need_jitter_but_fit(self):
        xs = [[0.5], [0.5], [0.5]]
        model = gp_fit(xs, [1.0, 1.0, 1.0], noise_variance=0.0)
        mean, _ = gp_predict(model, [0.5])
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gp_fit([], [])
        with pytest.raises(ValueError):
            gp_fit([[0.0]], [np.inf])
        with pytest.raises(ValueError):
            gp_fit([[0.0]], [1.0], noise_variance=-1.0)


class TestAcquisition:
    def test_kappa_zero_is_posterior_mean(self):
        model = gp_fit([[0.2], [0.8]], [1.0, 2.0])
        for x in ([0.3], [0.6]):
            assert acquisition_ucb(model, x, 0.0) == pytest.approx(gp_predict(model, x)[0])

    def test_direct_formula(self):
        model = gp_fit([[0.2], [0.8]], [1.0, 2.0])
        mean, std = gp_predict(model, [0.5])
        assert acquisition_ucb(model, [0.5], 1.0) == pytest.approx(mean + std)

    def test_paper_kappa_at_observed_point(self):
        model = gp_fit([[0.4]], [3.0], noise_variance=0.0)
        assert acquisition_ucb(model, [0.4], 2.576) == pytest.approx(3.0, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    k1=st.floats(0.0, 5.0),
    k2=st.floats(0.0, 5.0),
    x=st.floats(0.0, 1.0),
)
def test_ucb_linearity_in_kappa(k1, k2, x):
    model = gp_fit([[0.2], [0.9]], [0.5, -0.5])
    _, std = gp_predict(model, [x])
    a1 = acquisition_ucb(model, [x], k1)
    a2 = acquisition_ucb(model, [x], k2)
    assert a1 + (k2 - k1) * std == pytest.approx(a2, abs=1e-12)


class TestProposeNext:
    def test_unimodal_peak_found(self):
        # Symmetric data with a high middle point: with kappa = 0 the
        # acquisition is the posterior mean, peaked exactly at 0.5.
        model = gp_fit(
            [[0.0], [0.5], [1.0]], [0.0, 1.0, 0.0], kernel=Kernel(length_scale=0.2)
        )
        proposal = propose_next(model, [(0.0, 1.0)], kappa=0.0, seed=0)
        scan = np.linspace(0.0, 1.0, 100_001).reshape(-1, 1)
        from tetraopt.gp import _predict_many

        mean, _ = _predict_many(model, scan)
        oracle_peak = float(scan[int(np.argmax(mean))][0])
        assert abs(oracle_peak - 0.5) < 1e-6
        assert abs(proposal[0] - 0.5) <= 0.02
        assert abs(proposal[0] - oracle_peak) <= 0.02

    def test_flat_acquisition_stays_in_bounds(self):
        model = gp_fit([[0.5, 0.5]], [1.0])
        proposal = propose_next(model, [(0.0, 1.0), (2.0, 3.0)], kappa=0.0, seed=3)
        assert 0.0 <= proposal[0] <= 1.0
        assert 2.0 <= proposal[1] <= 3.0

    def test_deterministic(self):
        model = gp_fit([[0.3], [0.9]], [1.0, 0.5])
        a = propose_next(model, [(0.0, 1.0)], 2.576, seed=17)
        b = propose_next(model, [(0.0, 1.0)], 2.576, seed=17)
        np.testing.assert_array_equal(a, b)


class TestBayesMinimize:
    def test_quadratic_reaches_tolerance(self):
        objective = shifted_quadratic([0.3], bounds=[(0.0, 1.0)])
        wins = 0
        for seed in range(10):
            trace = bayes_minimize(objective, BayesConfig(bounds=[(0, 1)], seed=seed))
            wins += trace.best_value <= 1e-2
        assert wins >= 8

    def test_constant_objective(self):
        objective = BlackBoxObjective(
            name="constant",
            dimension=1,
            bounds=((0.0, 1.0),),
            evaluator=lambda x: 4.2,
        )
        trace = bayes_minimize(objective, BayesConfig(bounds=[(0, 1)], seed=0))
        assert trace.best_value == 4.2
        assert trace.total_calls == 35

    def test_exactly_initial_plus_iterations_evaluations(self):
        count = [0]
        objective = BlackBoxObjective(
            name="counted",
            dimension=1,
            bounds=((0.0, 1.0),),
            evaluator=lambda x: (count.__setitem__(0, count[0] + 1), float(x[0]))[1],
        )
        config = BayesConfig(bounds=[(0, 1)], n_initial=4, n_iterations=11, seed=2)
        trace = bayes_minimize(objective, config)
        assert count[0] == 15
        assert trace.total_calls == 15
        assert trace.events[-1].unique_calls_so_far == 15

    def test_trace_has_one_row_per_evaluation(self):
        objective = shifted_quadratic([0.3], bounds=[(0.0, 1.0)])
        trace = bayes_minimize(objective, BayesConfig(bounds=[(0, 1)], seed=1))
        assert len(trace.events) == 35
        values = [event.best_value for event in trace.events]
        assert values == sorted(values, reverse=True)

    def test_degenerate_duplicates_do_not_crash(self):
        objective = BlackBoxObjective(
            name="flat",
            dimension=1,
            bounds=((0.0, 1.0),),
            evaluator=lambda x: 0.0,
        )
        trace = bayes_minimize(
            objective, BayesConfig(bounds=[(0, 1)], n_initial=2, n_iterations=10, seed=0)
        )
        assert trace.total_calls == 12

    def test_failures_get_penalty_and_are_excluded(self):
        def failure_model(x):
            return bool(x[0] < 0.5)

        objective = BlackBoxObjective(
            name="half-broken",
            dimension=1,
            bounds=((0.0, 1.0),),
            evaluator=lambda x: float(x[0]),
            failure_model=failure_model,
        )
        trace = bayes_minimize(
            objective, BayesConfig(bounds=[(0, 1)], n_initial=5, n_iterations=10, seed=0)
        )
        assert trace.total_calls == 15
        assert 0.5 <= trace.best_value < 1e30

    def test_every_failure_kind_is_penalized_and_counted(self, half_broken):
        trace = bayes_minimize(
            half_broken, BayesConfig(bounds=[(0, 1)], n_initial=5, n_iterations=10, seed=0)
        )
        assert half_broken.calls == trace.total_calls == 15
        assert 0.5 <= trace.best_value < 1e30

    def test_mixer_run_uses_exactly_35_calls(self):
        from tetraopt import MIXER_BOUNDS, mixer_objective

        trace = bayes_minimize(mixer_objective(), BayesConfig(bounds=MIXER_BOUNDS, seed=0))
        assert trace.total_calls == 35

    def test_deterministic_per_seed(self):
        objective = shifted_quadratic([0.3], bounds=[(0.0, 1.0)])

        def run():
            trace = bayes_minimize(objective, BayesConfig(bounds=[(0, 1)], seed=6))
            return [(e.unique_calls_so_far, e.best_value, e.best_point) for e in trace.events]

        assert run() == run()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            bayes_minimize(benchmark("quadratic", 2), BayesConfig(bounds=[(0, 1)]))


def test_package_import_leaves_scipy_unloaded():
    """Only the GP baseline needs scipy, and it loads it on first use."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tetraopt

    code = (
        "import sys\n"
        "import tetraopt, tetraopt.cli\n"
        "assert 'scipy' not in sys.modules, 'import tetraopt loaded scipy'\n"
        "objective = tetraopt.shifted_quadratic([0.3], bounds=[(0.0, 1.0)])\n"
        "config = tetraopt.BayesConfig(bounds=[(0, 1)], n_iterations=3, seed=0)\n"
        "trace = tetraopt.bayes_minimize(objective, config)\n"
        "assert trace.total_calls == 8, trace.total_calls\n"
        "assert 'scipy' in sys.modules\n"
    )
    src = str(Path(tetraopt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
