"""Gaussian metric map: distribution math and trace fitting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import norm

import replicast as rc
from oracles import quad_positive_mean, scalar_positive_mean
from replicast.metric_model import positive_part_means

from conftest import REF_MEAN_SERVICE_S, REF_PROFILE_RATES


def make_mm(mean_linear=0.2, mean_quadratic=0.0, std_intercept=0.1,
            std_slope=0.0, rho_max=50.0):
    return rc.MetricModel(
        metric_kind="cc",
        mean_linear=mean_linear,
        mean_quadratic=mean_quadratic,
        std_intercept=std_intercept,
        std_slope=std_slope,
        rho_max=rho_max,
        fit_mse=0.0,
        fit_r2=1.0,
    )


class TestGaussianDist:
    def test_sub_floor_std_rejected(self):
        with pytest.raises(rc.ValidationError, match="std"):
            rc.GaussianDist(1.0, 0.0)
        assert rc.GaussianDist(1.0, rc.STD_FLOOR).std == rc.STD_FLOOR

    def test_cdf_matches_reference_normal(self):
        d = rc.GaussianDist(2.0, 1.5)
        for x in np.linspace(-6.0, 10.0, 41):
            assert d.cdf(x) == pytest.approx(norm.cdf(x, loc=2.0, scale=1.5), abs=1e-14)

    def test_cdf_limits(self):
        d = rc.GaussianDist(0.0, 1.0)
        assert d.cdf(-60.0) == 0.0
        assert d.cdf(60.0) == 1.0

    @given(st.floats(-50, 50), st.floats(1e-6, 30),
           st.floats(-200, 200), st.floats(0, 10))
    def test_cdf_monotone(self, mean, std, x, dx):
        d = rc.GaussianDist(mean, std)
        assert d.cdf(x + dx) >= d.cdf(x)


def positive_mean(mean, std):
    """E[max(X, 0)] of one Gaussian, through positive_part_means on
    one-element arrays."""
    return float(positive_part_means(np.array([mean]), np.array([std]))[0])


class TestPositivePartMean:
    def test_standard_normal_half_moment(self):
        val = positive_mean(0.0, 1.0)
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_degenerate_width_reduces_to_mean(self):
        val = positive_mean(5.0, 0.001)
        assert val == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("mean,std", [
        (1.0, 1.0), (0.3, 2.0), (-1.5, 0.7), (12.0, 4.0), (0.0, 0.25),
    ])
    def test_matches_quadrature(self, mean, std):
        val = positive_mean(mean, std)
        assert val == pytest.approx(quad_positive_mean(mean, std), abs=1e-9)

    @given(st.lists(st.tuples(st.floats(-1e308, 1e308), st.floats(rc.STD_FLOOR, 1e300)),
                    min_size=1, max_size=30))
    @example([(0.0, 1.0), (-0.0, 1.0), (40.0, 1.0), (-40.0, 1.0), (39.999999, 1.0),
              (1e308, rc.STD_FLOOR), (-1e308, rc.STD_FLOOR), (3.0, 1e300)])
    def test_array_pass_equals_the_scalar_formula(self, laws):
        # every entry has the bits of the closed form on Python floats,
        # z = mean / std overflowing and |z| >= 40 included, and no warning
        mean, std = (np.array(col) for col in zip(*laws))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = positive_part_means(mean, std)
        want = [scalar_positive_mean(m, s) for m, s in laws]
        assert np.array_equal(got, want)
        assert [positive_mean(m, s) for m, s in laws] == want

    @given(st.floats(-100, 100), st.floats(1e-6, 50))
    def test_bounds(self, mean, std):
        val = positive_mean(mean, std)
        assert val >= 0.0
        assert val >= max(0.0, mean) - 1e-12


class TestObservedValueDistribution:
    def test_origin_forced(self):
        d = rc.observed_value_distribution(make_mm(), 0.0)
        assert d.mean == 0.0
        assert d.std == rc.STD_FLOOR

    def test_direct_evaluation(self):
        d = rc.observed_value_distribution(make_mm(0.2, 0.0, 0.1, 0.0), 10.0)
        assert d.mean == pytest.approx(2.0, abs=1e-15)
        assert d.std == pytest.approx(0.1, abs=1e-15)

    def test_negative_rho_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.observed_value_distribution(make_mm(), -1.0)

    @given(st.floats(-1.0, 1.0), st.floats(-0.05, 0.05), st.floats(0.0, 2.0),
           st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
    def test_equals_the_plain_float_law(self, a1, a2, b0, b1, rho):
        # the law as written before it took arrays: Python floats and max()
        want = ((0.0, rc.STD_FLOOR) if rho == 0.0
                else (a1 * rho + a2 * rho * rho, max(b0 + b1 * rho, rc.STD_FLOOR)))
        mm = make_mm(a1, a2, b0, b1)
        d = rc.observed_value_distribution(mm, rho)
        assert (d.mean, d.std) == want and type(d.std) is float
        # and element for element on an array of rates
        rates = np.array([rho, 0.0, rho / 3])
        assert mm.std_at(rates).tolist() == [float(mm.std_at(r)) for r in rates.tolist()]

    def test_deterministic(self):
        a = rc.observed_value_distribution(make_mm(), 7.3)
        b = rc.observed_value_distribution(make_mm(), 7.3)
        assert (a.mean, a.std) == (b.mean, b.std)


class TestFitMetricModel:
    def test_noiseless_linear_recovery(self):
        rates = np.arange(1.0, 11.0)
        trace = rc.trace_from_arrays(rates, 0.2 * rates, np.full(10, 0.2))
        mm = rc.fit_metric_model(trace, "cc")
        assert mm.mean_linear == pytest.approx(0.2, abs=1e-6)
        assert mm.mean_quadratic == pytest.approx(0.0, abs=1e-6)
        assert mm.fit_r2 >= 0.999

    def test_noiseless_quadratic_recovery(self):
        rates = np.arange(1.0, 13.0)
        y = 0.3 * rates + 0.01 * rates ** 2
        trace = rc.trace_from_arrays(rates, y, np.full(len(rates), 0.2))
        mm = rc.fit_metric_model(trace, "cc")
        assert mm.mean_linear == pytest.approx(0.3, abs=1e-6)
        assert mm.mean_quadratic == pytest.approx(0.01, abs=1e-6)
        assert mm.fit_r2 >= 0.999

    def test_all_zero_observed(self):
        rates = np.tile(np.arange(1.0, 6.0), 4)
        trace = rc.trace_from_arrays(rates, np.zeros(20), np.full(20, 0.2))
        mm = rc.fit_metric_model(trace, "cc")
        assert mm.mean_linear == 0.0
        assert mm.mean_quadratic == 0.0
        assert mm.std_at(3.0) == rc.STD_FLOOR

    def test_negative_dipping_mean_rejected(self):
        trace = rc.trace_from_arrays(
            [1.0, 2.0, 3.0, 10.0], [0.0, 0.0, 0.05, 50.0], [0.2] * 4)
        with pytest.raises(rc.FitRejectedError, match="fitted mean is negative at rho="):
            rc.fit_metric_model(trace, "cc")

    def test_single_distinct_rate_insufficient(self):
        trace = rc.trace_from_arrays([2.0, 2.0], [0.4, 0.41], [0.2, 0.2])
        with pytest.raises(rc.InsufficientDataError):
            rc.fit_metric_model(trace, "cc")

    def test_rank_deficient_design_insufficient(self):
        # two distinct rates 1e-12 apart make the design numerically rank
        # one
        trace = rc.trace_from_arrays([1.0, 1.0 + 1e-12], [0.2, 0.2], [0.2, 0.2])
        with pytest.raises(rc.InsufficientDataError, match="design matrix is rank deficient"):
            rc.fit_metric_model(trace, "cc")

    def test_bad_metric_kind(self):
        trace = rc.trace_from_arrays([1.0, 2.0], [0.2, 0.4], [0.2, 0.2])
        with pytest.raises(rc.ValidationError):
            rc.fit_metric_model(trace, "latency")

    def test_rps_uses_identity_like_mean(self):
        rng = np.random.default_rng(7)
        rates = np.repeat(np.arange(1.0, 9.0), 30)
        y = rates + rng.normal(0.0, 0.05, size=rates.size)
        y = np.clip(y, 0.0, None)
        trace = rc.trace_from_arrays(rates, y, np.full(rates.size, 0.2))
        mm = rc.fit_metric_model(trace, "rps")
        assert mm.metric_kind == "rps"
        assert mm.mean_at(5.0) == pytest.approx(5.0, rel=0.05)

    @given(st.floats(0.1, 10.0))
    def test_scale_consistency(self, c):
        rng = np.random.default_rng(42)
        rates = np.repeat(np.arange(1.0, 7.0), 25)
        y = 0.5 * rates + 0.02 * rates ** 2 + rng.normal(0.0, 0.03, rates.size)
        y = np.clip(y, 0.0, None)
        rts = np.full(rates.size, 0.2)
        base = rc.fit_metric_model(rc.trace_from_arrays(rates, y, rts), "cc")
        scaled = rc.fit_metric_model(rc.trace_from_arrays(rates, c * y, rts), "cc")
        assert scaled.mean_linear == pytest.approx(c * base.mean_linear, rel=1e-9, abs=1e-12)
        assert scaled.mean_quadratic == pytest.approx(c * base.mean_quadratic, rel=1e-9, abs=1e-12)
        assert scaled.std_intercept == pytest.approx(c * base.std_intercept, rel=1e-9, abs=1e-12)
        assert scaled.std_slope == pytest.approx(c * base.std_slope, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_short_trace_pools_the_residuals(self, noise):
        # under ten rows there are too few for five spread bins: the spread
        # is the residual scale around the fitted mean, flat in the rate
        rates = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
        y = 0.2 * rates + noise * np.array([1.0, -1.0, 0.5, -0.5, 2.0, -2.0])
        mm = rc.fit_metric_model(rc.trace_from_arrays(rates, y, np.full(6, 0.2)), "cc")
        a1, a2 = mm.mean_linear, mm.mean_quadratic
        resid = y - np.array([a1 * r + a2 * r * r for r in rates])
        pooled = float(np.sqrt(np.sum(resid ** 2) / (rates.size - 1)))
        assert mm.std_intercept == max(pooled, rc.STD_FLOOR)
        assert mm.std_slope == 0.0
        if noise == 0.0:
            assert mm.std_intercept == rc.STD_FLOOR

    def test_dict_round_trip(self):
        mm = make_mm(0.21, 0.003, 0.05, 0.01, 20.0)
        back = rc.MetricModel.from_dict(mm.to_dict())
        assert back == mm

    def test_simulator_trace_fit_obeys_littles_law(self, ref_bundle):
        mm = ref_bundle.metric
        assert mm.fit_r2 >= 0.9
        for rho in REF_PROFILE_RATES:
            expected = REF_MEAN_SERVICE_S * rho
            assert mm.mean_at(rho) == pytest.approx(expected, rel=0.05)
