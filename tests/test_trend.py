from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzoracle import TrendParams, convergence_start, linreg_slope, trend_analysis
from fuzzoracle.errors import InvalidWindowError, SeriesTooShortError

from conftest import brute_force_slope


class TestSlope:
    def test_exact_line(self):
        assert linreg_slope([0.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_constant_series(self):
        assert linreg_slope([0.4, 0.4, 0.4, 0.4]) == 0.0

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            linreg_slope([0.5])

    def test_matches_closed_form_on_random_series(self):
        rng = np.random.default_rng(3)
        values = [float(v) for v in rng.uniform(0, 1, 50)]
        assert linreg_slope(values) == pytest.approx(
            brute_force_slope(values), abs=1e-12
        )

    def test_symmetric_series_has_exact_zero_slope(self):
        # Rounding alone made this slope about -2e-18 and the series Buggy.
        probes = (
            [0, 0, 0, 1, 0, 0, 0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.265625, 0.25, 0.25, 0.25],
        )
        for values in probes:
            assert linreg_slope(values) == 0.0
            assert trend_analysis(values, TrendParams(window=5)).verdict is True

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(0, 64).map(lambda v: v / 64),
                st.floats(0.0, 1.0),
                st.sampled_from([0.1, 0.2, 0.3, 0.7]),
            ),
            min_size=2,
            max_size=60,
        )
    )
    # A negative slope too small for a float once rounded to -0.0.
    @example(values=[5e-324, 0.0, 0.0])
    def test_sign_is_exact(self, values):
        n = len(values)
        exact = sum((2 * i - (n - 1)) * Fraction(v) for i, v in enumerate(values))
        slope = linreg_slope(values)
        assert (slope > 0) - (slope < 0) == (exact > 0) - (exact < 0)


class TestConvergenceStart:
    def test_constant_series_converges_immediately(self):
        assert convergence_start([0.7] * 10, 3, 0.01) == 0

    def test_strictly_increasing_never_converges(self):
        series = [float(i) for i in range(10)]
        assert convergence_start(series, 3, 0.5) is None

    def test_worked_example(self):
        series = [0.1, 0.5, 0.9, 0.9, 0.9, 0.9]
        assert convergence_start(series, 3, 0.05) == 2

    def test_window_out_of_range(self):
        with pytest.raises(InvalidWindowError):
            convergence_start([0.1, 0.2], 3, 0.05)
        with pytest.raises(InvalidWindowError):
            convergence_start([0.1, 0.2], 0, 0.05)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=40),
        window=st.integers(2, 6),
        epsilon=st.floats(0.001, 0.5),
    )
    def test_result_is_minimal_qualifying_index(self, values, window, epsilon):
        if window > len(values):
            window = len(values)
        idx = convergence_start(values, window, epsilon)
        spreads = [
            max(values[i : i + window]) - min(values[i : i + window])
            for i in range(len(values) - window + 1)
        ]
        if idx is None:
            assert all(s > epsilon for s in spreads)
        else:
            assert spreads[idx] <= epsilon
            assert all(s > epsilon for s in spreads[:idx])


class TestTrendAnalysis:
    def params(self, window=5, epsilon=0.02, delta=0.1):
        return TrendParams(window=window, epsilon=epsilon, delta=delta)

    def test_negative_slope_is_unhealthy(self):
        report = trend_analysis([0.9, 0.8, 0.7, 0.6, 0.5], self.params(window=3))
        assert report.slope < 0
        assert report.verdict is False
        assert report.abnormality_found is False

    def test_rising_non_converging_is_healthy(self):
        series = [0.1 * i for i in range(12)]
        report = trend_analysis(series, self.params())
        assert report.slope > 0
        assert report.convergence_index is None
        assert report.verdict is True

    def test_converge_then_drop_is_unhealthy(self):
        # Rises, converges at 0.9 long enough to keep the overall slope
        # positive, then collapses to 0.2 for five consecutive epochs.
        series = [0.1 * i for i in range(1, 10)] + [0.9] * 31 + [0.2] * 5
        report = trend_analysis(series, self.params())
        assert report.slope > 0
        assert report.convergence_index == 8
        assert report.abnormality_found is True
        assert report.verdict is False

    def test_drop_shorter_than_window_recovers(self):
        # Only window-1 consecutive violations: healthy by the boundary rule.
        series = [0.1 * i for i in range(1, 10)] + [0.9] * 27 + [0.2] * 4 + [0.9] * 5
        report = trend_analysis(series, self.params())
        assert report.slope > 0
        assert report.abnormality_found is False
        assert report.verdict is True

    def test_flat_converged_tail_tolerates_noise_within_delta(self):
        # The delta floor keeps a perfectly flat window from flagging on
        # wiggle smaller than delta.
        series = [0.1, 0.2, 0.3, 0.4] + [0.5] * 10 + [0.45] * 8
        report = trend_analysis(series, self.params())
        assert report.slope > 0
        assert report.verdict is True

    def test_errors(self):
        with pytest.raises(SeriesTooShortError):
            trend_analysis([0.5], self.params())
        with pytest.raises(InvalidWindowError):
            trend_analysis([0.5, 0.6, 0.7], self.params(window=3))

    @settings(max_examples=80, deadline=None)
    @given(
        grid_values=st.lists(st.integers(0, 64), min_size=7, max_size=40),
        shift_quarters=st.integers(1, 16),
    )
    def test_shift_invariance(self, grid_values, shift_quarters):
        # Values on a coarse binary grid and an exactly representable
        # shift, so adding the constant cannot absorb the variation; the
        # knife-edge of a slope within rounding error of zero is excluded.
        values = [v / 64 for v in grid_values]
        shift = shift_quarters / 4
        params = self.params()
        base = trend_analysis(values, params)
        shifted = trend_analysis([v + shift for v in values], params)
        assert shifted.convergence_index == base.convergence_index
        assert shifted.slope == pytest.approx(base.slope, abs=1e-12)
        if abs(base.slope) > 1e-9:
            assert shifted.verdict == base.verdict
            assert shifted.abnormality_found == base.abnormality_found

    def test_shift_invariance_of_constant_series(self):
        params = self.params()
        base = trend_analysis([0.4] * 10, params)
        shifted = trend_analysis([0.4 + 3.7] * 10, params)
        assert base.slope == shifted.slope == 0.0
        assert base.verdict is shifted.verdict is True

    def test_convergence_at_series_tail_is_healthy(self):
        # The converged window ends the series, leaving nothing to scan.
        series = [0.0, 0.2, 0.4, 0.6, 0.8] + [0.9] * 5
        report = trend_analysis(series, self.params())
        assert report.convergence_index == 5
        assert report.verdict is True

    @settings(max_examples=120, deadline=None)
    @given(grid_values=st.lists(st.integers(0, 64), min_size=7, max_size=40))
    def test_report_internal_consistency(self, grid_values):
        values = [v / 64 for v in grid_values]
        report = trend_analysis(values, self.params())
        assert report.verdict == (report.slope >= 0 and not report.abnormality_found)
        if report.abnormality_found:
            assert report.convergence_index is not None

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.floats(0.5, 1.0),
        step=st.floats(0.001, 0.02),
        length=st.integers(8, 40),
    )
    def test_decreasing_series_always_unhealthy(self, start, step, length):
        series = [start - step * i for i in range(length)]
        report = trend_analysis(series, self.params())
        assert report.verdict is False

    def test_no_convergence_with_non_negative_slope_is_healthy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = [float(v) for v in rng.uniform(0, 1, 30)]
            params = self.params(epsilon=1e-9)
            report = trend_analysis(values, params)
            if report.slope >= 0:
                assert report.convergence_index is None
                assert report.verdict is True


class TestTrendParams:
    def test_validation(self):
        with pytest.raises(InvalidWindowError):
            TrendParams(window=0)
        with pytest.raises(ValueError):
            TrendParams(epsilon=0.0)
        with pytest.raises(ValueError):
            TrendParams(delta=-0.1)
