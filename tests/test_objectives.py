import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraopt import (
    MIXER_BOUNDS,
    EvaluationFailure,
    SectionField,
    benchmark,
    cov,
    mixer_surrogate,
    section_from_csv,
    seeded_failure_model,
    shifted_quadratic,
    with_latency,
)
from tetraopt.objectives import MIXER_LIPSCHITZ
from tetraopt.optimizer import grid_point


class TestCov:
    def test_constant_field_is_zero(self):
        assert cov(SectionField(np.full(10, 0.5))) == 0.0

    def test_two_point_field(self):
        # Hand arithmetic: mean 0.5, population std 0.25.
        assert cov(SectionField(np.array([0.25, 0.75]))) == pytest.approx(0.5)

    def test_three_point_field(self):
        # Direct formula: mean 0.4, sigma = sqrt(0.08 / 3).
        expected = np.sqrt(0.08 / 3.0) / 0.4
        assert cov(SectionField(np.array([0.2, 0.4, 0.6]))) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.40824829046386304, abs=1e-15)

    def test_weighted_statistics(self):
        field = SectionField(np.array([0.2, 0.6]), weights=np.array([3.0, 1.0]))
        mean = (3 * 0.2 + 0.6) / 4
        var = (3 * (0.2 - mean) ** 2 + (0.6 - mean) ** 2) / 4
        assert cov(field) == pytest.approx(np.sqrt(var) / mean)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero mean"):
            cov(SectionField(np.zeros(4)))

    def test_field_validation(self):
        with pytest.raises(ValueError):
            SectionField(np.array([]))
        with pytest.raises(ValueError):
            SectionField(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            SectionField(np.array([0.5, 0.5]), weights=np.array([1.0, -1.0]))

    def test_zero_iff_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = 0.2 + 0.6 * rng.random(8)
            if np.ptp(f) > 1e-9:
                assert cov(SectionField(f)) > 0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    alpha=st.floats(0.05, 1.0),
    size=st.integers(2, 30),
)
def test_cov_scale_invariance(seed, alpha, size):
    rng = np.random.default_rng(seed)
    f = 0.1 + 0.8 * rng.random(size)
    scaled = alpha * f
    assert cov(SectionField(scaled)) == pytest.approx(cov(SectionField(f)), rel=1e-9)


class TestSectionCsv:
    def test_round_trip_with_weights(self, tmp_path):
        path = tmp_path / "section.csv"
        path.write_text("fraction,weight\n0.25,1.0\n0.75,1.0\n")
        field = section_from_csv(path)
        assert cov(field) == pytest.approx(0.5)

    def test_plain_fractions(self, tmp_path):
        path = tmp_path / "section.csv"
        path.write_text("0.2\n0.4\n0.6\n")
        field = section_from_csv(path)
        assert field.weights is None
        assert cov(field) == pytest.approx(0.40824829046386304)

    def test_partial_weights_rejected(self, tmp_path):
        path = tmp_path / "section.csv"
        path.write_text("0.2,1.0\n0.4\n")
        with pytest.raises(ValueError, match="columns|some rows"):
            section_from_csv(path)


class TestMixerSurrogate:
    def test_box_corners_finite(self):
        lows = [b[0] for b in MIXER_BOUNDS]
        highs = [b[1] for b in MIXER_BOUNDS]
        for corner_bits in range(16):
            p = [
                highs[k] if corner_bits & (1 << k) else lows[k]
                for k in range(4)
            ]
            assert np.isfinite(mixer_surrogate(p))
            assert mixer_surrogate(p) >= 0

    def test_grid_minimum_matches_fixture(self, mixer_grid, mixer_grid_min):
        values = {
            idx: mixer_surrogate(grid_point(mixer_grid, idx))
            for idx in mixer_grid.all_indices()
        }
        best_idx = min(values, key=lambda i: (values[i], i))
        assert list(best_idx) == mixer_grid_min["index"]
        assert values[best_idx] == pytest.approx(mixer_grid_min["value"], rel=1e-12)
        within = sum(v <= values[best_idx] * 1.05 for v in values.values())
        assert within == mixer_grid_min["points_within_5pct"]

    def test_slice_has_two_local_minima(self):
        # Scan the (connection length, y-angle) plane at inlet radius
        # 0.275 mm and connection radius 0.3 mm.
        n = 100
        angles = np.linspace(0.0, 30.0, n)
        lengths = np.linspace(0.5, 1.5, n)
        z = np.array(
            [[mixer_surrogate([a, 0.3, length, 0.275]) for length in lengths] for a in angles]
        )
        minima = 0
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                window = z[i - 1 : i + 2, j - 1 : j + 2]
                if z[i, j] == window.min() and np.sum(window == window.min()) == 1:
                    minima += 1
        assert minima >= 2

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            mixer_surrogate([31.0, 0.3, 1.0, 0.4])
        with pytest.raises(ValueError, match="outside"):
            mixer_surrogate([10.0, 0.19, 1.0, 0.4])

    def test_deterministic_and_continuous(self):
        rng = np.random.default_rng(7)
        lows = np.array([b[0] for b in MIXER_BOUNDS])
        highs = np.array([b[1] for b in MIXER_BOUNDS])
        for _ in range(200):
            p = lows + rng.random(4) * (highs - lows)
            assert mixer_surrogate(p) == mixer_surrogate(p)
            step = rng.standard_normal(4)
            step /= np.linalg.norm(step)
            q = np.clip(p + 1e-4 * step, lows, highs)
            gap = np.linalg.norm(q - p)
            assert abs(mixer_surrogate(q) - mixer_surrogate(p)) <= MIXER_LIPSCHITZ * gap + 1e-12


class TestBenchmarks:
    @pytest.mark.parametrize(
        "name,argmin",
        [
            ("quadratic", np.zeros(3)),
            ("rastrigin", np.zeros(3)),
            ("ackley", np.zeros(3)),
            ("rosenbrock", np.ones(3)),
        ],
    )
    def test_documented_minima(self, name, argmin):
        obj = benchmark(name, 3)
        assert obj.evaluate(argmin) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark("styblinski", 2)

    def test_shifted_quadratic(self):
        obj = shifted_quadratic([0.3], bounds=[(0, 1)])
        assert obj.evaluate([0.3]) == 0.0
        assert obj.evaluate([0.5]) == pytest.approx(0.04)


class TestLatencyAndFailures:
    def test_zero_delay_unchanged(self):
        obj = benchmark("quadratic", 2)
        delayed = with_latency(obj, 0.0)
        assert delayed.evaluate([1.0, 2.0]) == obj.evaluate([1.0, 2.0])

    def test_serial_batch_takes_additive_time(self):
        obj = with_latency(benchmark("quadratic", 1), 0.05)
        start = time.perf_counter()
        for k in range(10):
            obj.evaluate([k * 0.1])
        assert time.perf_counter() - start >= 0.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            with_latency(benchmark("quadratic", 1), -0.1)

    def test_seeded_failure_model_deterministic(self):
        fails = seeded_failure_model(0.3, seed=5)
        rng = np.random.default_rng(0)
        points = [rng.random(3) for _ in range(200)]
        first = [fails(p) for p in points]
        second = [fails(p) for p in points]
        assert first == second
        rate = sum(first) / len(first)
        assert 0.15 < rate < 0.45

    def test_failure_model_raises(self):
        obj = benchmark("quadratic", 2)
        failing = type(obj)(
            name=obj.name,
            dimension=obj.dimension,
            bounds=obj.bounds,
            evaluator=obj.evaluator,
            failure_model=lambda x: bool(x[0] > 0),
        )
        with pytest.raises(EvaluationFailure) as err:
            failing.evaluate([1.0, 0.0])
        assert str(err.value) == f"objective evaluation failed at {np.array([1.0, 0.0])}"
        np.testing.assert_array_equal(err.value.point, [1.0, 0.0])
        assert failing.evaluate([-1.0, 0.0]) == 1.0

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="expected a 2-vector"):
            benchmark("quadratic", 2).evaluate([1.0])
