import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfpp.scaling import ExponentFit, fit_loglog, hill_estimator


class TestFits:
    def test_exact_power_law_recovered(self):
        scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        fit = fit_loglog(scales, scales**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_fit_holds_slope_intercept_stderr_only(self):
        assert [f.name for f in dataclasses.fields(ExponentFit)] == ["slope", "intercept", "stderr"]

    def test_constant_series_slope_zero(self):
        scales = np.array([1.0, 0.5, 0.25, 0.125])
        fit = fit_loglog(scales, np.full(4, 3.7))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)

    def test_noisy_power_law_within_band(self):
        rng = np.random.default_rng(17)
        scales = 2.0 ** -np.arange(8)
        target = -5.0 / 6.0
        medians = scales**target * np.exp(rng.normal(0.0, 0.01, scales.size))
        fit = fit_loglog(scales, medians)
        assert fit.slope == pytest.approx(target, abs=0.02)
        assert fit.stderr < 0.02

    def test_too_few_scales_rejected(self):
        # a line needs two distinct scales
        with pytest.raises(ValueError):
            fit_loglog([1.0], [1.0])

    @pytest.mark.parametrize("x, y", [([1.0, 2.0, 3.0], [5.0]), ([1.0, 2.0], [5.0, 6.0, 7.0])])
    def test_lengths_must_match(self, x, y):
        # numpy would broadcast [5.0] into a flat line: slope 0, stderr 0
        with pytest.raises(ValueError, match="one length"):
            fit_loglog(x, y)

    def test_degenerate_abscissa_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x, y, name", [
        ([1.0, 2.0], [1.0, 0.0], "y"),
        ([0.0, 2.0], [1.0, 3.0], "x"),
        ([1.0, 2.0], [-1.0, 3.0], "y"),
        ([1.0, math.inf], [1.0, 3.0], "x"),
        ([1.0, 2.0], [math.nan, 3.0], "y"),
    ])
    def test_non_positive_or_non_finite_rejected(self, x, y, name):
        # the log of such a value is not finite, so no slope could be fitted
        with pytest.raises(ValueError, match=f"positive finite {name}"):
            fit_loglog(x, y)


class TestHillEstimator:
    def test_pareto_tail_index_recovered(self):
        rng = np.random.default_rng(23)
        sample = rng.pareto(2.0, 20_000) + 1.0
        assert hill_estimator(sample) == pytest.approx(2.0, abs=0.5)

    def test_k_must_be_below_sample_size(self):
        # k is at least 2, so samples of size 1 and 2 have no reference statistic
        for size in (1, 2):
            with pytest.raises(ValueError, match="smaller than the sample size"):
                hill_estimator(np.arange(1.0, size + 1.0))

    def test_flat_positive_sample_gives_inf(self):
        assert hill_estimator(np.ones(100)) == math.inf

    def test_nonpositive_order_statistics_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator(np.zeros(100))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_sample_rejected(self, bad):
        sample = np.arange(1.0, 101.0)
        sample[7] = bad
        with pytest.raises(ValueError, match="finite sample"):
            hill_estimator(sample)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale, seed):
        # the tail index only sees ratios of order statistics
        rng = np.random.default_rng(seed)
        sample = rng.pareto(3.0, 200) + 1.0
        assert hill_estimator(scale * sample) == pytest.approx(
            hill_estimator(sample), rel=1e-9
        )


class TestFitProperties:
    @given(
        slope=st.floats(min_value=-3.0, max_value=3.0),
        amp=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_loglog_recovers_any_power_law(self, slope, amp):
        x = 2.0 ** -np.arange(6)
        fit = fit_loglog(x, amp * x**slope)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(amp), abs=1e-9)

