"""Gaussian metric map: distribution math and trace fitting."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import norm

import replicast as rc
from oracles import (exact_metric_law, quad_positive_mean, reference_fit_law,
                     scalar_positive_mean)
from replicast.metric_model import fit_law, positive_part_means

from conftest import REF_MEAN_SERVICE_S, REF_PROFILE_RATES


def make_mm(mean_linear=0.2, mean_quadratic=0.0, var_linear=0.1,
            var_quadratic=0.0, rho_max=50.0):
    return rc.MetricModel("cc", rc.Law((0.0, mean_linear, mean_quadratic), rho_max, 0.0, 1.0),
                          rc.Law((0.0, var_linear, var_quadratic), rho_max, 0.0, 1.0))


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestLaw:
    @given(coefficients=st.tuples(FINITE, FINITE, FINITE),
           rho_max=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           mse=FINITE, r2=FINITE)
    def test_dict_round_trip(self, coefficients, rho_max, mse, r2):
        # through JSON text, with every bit (a -0.0 coefficient included)
        law = rc.Law(coefficients, rho_max, mse, r2)
        back = rc.Law.from_dict(json.loads(json.dumps(law.to_dict())), "law")
        assert back == law and repr(back) == repr(law)
        assert rc.Law(list(coefficients), rho_max, mse, r2) == law

    @given(a1=FINITE, a2=FINITE, rho=st.floats(min_value=0.0, max_value=1e6))
    def test_law_through_the_origin_is_its_two_terms(self, a1, a2, rho):
        # c0 = 0.0 adds exactly nothing (a -0.0 term reads 0.0), on floats
        # and element for element on arrays
        law = rc.Law((0.0, a1, a2), 1.0, 0.0, 1.0)
        rates = [rho, 0.0, rho / 3]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow to inf or nan
            want = [a1 * r + a2 * r * r for r in rates]
            got = law.at(np.array(rates))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal([law.at(r) for r in rates], want, equal_nan=True)

    def test_key_errors_name_the_law(self):
        good = rc.Law((0.0, 0.2, 0.0), 1.0, 0.0, 1.0).to_dict()
        with pytest.raises(rc.ValidationError, match="^m: unknown keys: c0$"):
            rc.Law.from_dict({**good, "c0": 0.0}, "m")
        with pytest.raises(rc.ValidationError, match="^m: missing required keys: mse$"):
            rc.Law.from_dict({k: v for k, v in good.items() if k != "mse"}, "m")
        with pytest.raises(rc.ValidationError, match=r"^m rho_max must be > 0, got -1\.0$"):
            rc.Law.from_dict({**good, "rho_max": -1.0}, "m")


class TestObservedValueDistribution:
    def test_origin_forced(self):
        d = rc.observed_value_distribution(make_mm(), 0.0)
        assert d.mean == 0.0
        assert d.std == rc.STD_FLOOR

    def test_direct_evaluation(self):
        d = rc.observed_value_distribution(make_mm(0.2, 0.0, 0.0005, 0.0005), 10.0)
        assert d.mean == pytest.approx(2.0, abs=1e-15)
        assert d.std == pytest.approx(math.sqrt(0.055), abs=1e-15)

    def test_negative_rho_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.observed_value_distribution(make_mm(), -1.0)

    @given(st.floats(-1.0, 1.0), st.floats(-0.05, 0.05), st.floats(-1.0, 2.0),
           st.floats(-0.05, 0.05), st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
    def test_equals_the_plain_float_law(self, a1, a2, v1, v2, rho):
        # the law on Python floats, math.sqrt and max(); at rho = 0 the
        # variance is 0 and the spread STD_FLOOR
        want = (a1 * rho + a2 * rho * rho,
                max(math.sqrt(max(v1 * rho + v2 * rho * rho, 0.0)), rc.STD_FLOOR))
        mm = make_mm(a1, a2, v1, v2)
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
        assert mm.mean.coefficients == pytest.approx((0.0, 0.2, 0.0), abs=1e-6)
        assert mm.mean.r2 >= 0.999

    def test_noiseless_quadratic_recovery(self):
        rates = np.arange(1.0, 13.0)
        y = 0.3 * rates + 0.01 * rates ** 2
        trace = rc.trace_from_arrays(rates, y, np.full(len(rates), 0.2))
        mm = rc.fit_metric_model(trace, "cc")
        assert mm.mean.coefficients == pytest.approx((0.0, 0.3, 0.01), abs=1e-6)
        assert mm.mean.r2 >= 0.999

    def test_all_zero_observed(self):
        rates = np.tile(np.arange(1.0, 6.0), 4)
        trace = rc.trace_from_arrays(rates, np.zeros(20), np.full(20, 0.2))
        mm = rc.fit_metric_model(trace, "cc")
        assert mm.mean.coefficients == (0.0, 0.0, 0.0)
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
        assert scaled.mean.coefficients == pytest.approx(
            [c * b for b in base.mean.coefficients], rel=1e-9, abs=1e-12)
        # the variance scales as c^2
        assert scaled.variance.coefficients == pytest.approx(
            [c * c * b for b in base.variance.coefficients], rel=1e-9, abs=1e-12)

    def test_noiseless_variance_recovery(self):
        # each rate holds mean +- sqrt(v1 rho + v2 rho^2): the mean fit is
        # exact and the squared residuals are the variance law
        a1, a2, v1, v2 = 0.3, 0.02, 0.01, 0.001
        rho = np.arange(1.0, 21.0)
        half = np.sqrt(v1 * rho + v2 * rho * rho)
        rates = np.repeat(rho, 2)
        y = a1 * rates + a2 * rates * rates + np.ravel(np.column_stack((half, -half)))
        mm = rc.fit_metric_model(rc.trace_from_arrays(rates, y, np.full(rates.size, 0.2)), "cc")
        assert mm.mean.coefficients == pytest.approx((0.0, a1, a2), abs=1e-9)
        assert mm.variance.coefficients == pytest.approx((0.0, v1, v2), abs=1e-9)

    @pytest.mark.parametrize("metric_kind, distribution", [
        ("cc", "exponential"),
        pytest.param("cc", "deterministic", marks=pytest.mark.xfail(
            strict=True, reason="the fit keeps a quadratic variance term of noise, "
                                "so the spread at rate 0.5 is 23% low")),
        ("rps", "exponential"),
        ("rps", "deterministic"),
    ])
    def test_fitted_spread_follows_the_exact_law(self, metric_kind, distribution):
        # the README quick start's profile: nine rates, 2700 s runs
        workload = rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=REF_MEAN_SERVICE_S,
                                    distribution=distribution)
        trace = rc.profile_trace(workload, REF_PROFILE_RATES, metric_kind=metric_kind,
                                 duration_s=2700.0, warmup_s=300.0)
        mm = rc.fit_metric_model(trace, metric_kind)
        _, v = exact_metric_law(workload, metric_kind, 60)
        for rho in REF_PROFILE_RATES:
            assert float(mm.std_at(rho)) == pytest.approx(math.sqrt(v * rho), rel=0.10)

    def test_dict_round_trip(self):
        mm = make_mm(0.21, 0.003, 0.05, 0.01, 20.0)
        back = rc.MetricModel.from_dict(mm.to_dict())
        assert back == mm

    def test_simulator_trace_fit_obeys_littles_law(self, ref_bundle):
        mm = ref_bundle.metric
        assert mm.mean.r2 >= 0.9
        for rho in REF_PROFILE_RATES:
            expected = REF_MEAN_SERVICE_S * rho
            assert mm.mean_at(rho) == pytest.approx(expected, rel=0.05)


class TestFitOracle:
    """fit_law returns what the fit as first written returns
    (oracles.reference_fit_law), bit for bit, or raises what it does;
    where the reference divides by zero, fit_law raises
    InsufficientDataError.

    Only r2 of a y that is constant within the fit's tolerance may
    differ: the reference decides that case by rounding alone.
    """

    @given(data=st.data(),
           rates=st.lists(st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
                          min_size=2, max_size=12, unique=True),
           powers=st.sampled_from([(1, 2), (0, 1, 2)]),
           shape=st.sampled_from(["law", "constant", "close rates"]),
           law=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 3),
           noise=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_same_fit_as_reference(self, data, rates, powers, shape, law, noise, seed):
        if shape == "close rates" and rates[0] + 1e-12 not in rates:
            rates[1] = rates[0] + 1e-12
        rows = data.draw(st.lists(st.integers(min_value=1, max_value=40),
                                  min_size=len(rates), max_size=len(rates)), label="rows")
        rho = np.repeat(rates, rows)
        if shape == "constant":
            y = np.full(rho.size, law[0])
        else:
            y = (law[0] + law[1] * rho + law[2] * rho * rho
                 + noise * np.random.default_rng(seed).standard_normal(rho.size))
        try:
            want = reference_fit_law(rho, y, powers)
        except (rc.InsufficientDataError, ZeroDivisionError):
            # the reference divides by zero where rho_max**2 underflows,
            # which fit_law rejects as input it cannot fit
            with pytest.raises(rc.InsufficientDataError):
                fit_law(rho, y, powers)
            return
        got = fit_law(rho, y, powers)
        if not float(np.sum((y - y.mean()) ** 2)) > y.size * want.tol ** 2:
            got, want = got._replace(r2=None), want._replace(r2=None)
        assert repr(got) == repr(want)
