"""Order-probability stage: Gaussian metric in, replica-order distribution out."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import replicast as rc
from oracles import mc_order_probs, scalar_cdf_probs


def probs(mean, std, tv, n_max):
    return rc.order_probabilities(rc.GaussianDist(mean, std), tv, n_max).probs


class TestWorkedExamples:
    def test_symmetric_straddle_example(self):
        p = probs(10.0, 3.0, 10.0, 3)
        assert p[0] == pytest.approx(0.5, abs=1e-5)
        assert p[1] == pytest.approx(0.49957, abs=1e-5)
        assert p[2] == pytest.approx(0.00043, abs=1e-5)

    def test_point_mass_below_target(self):
        p = probs(0.0, 1e-6, 10.0, 5)
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(p[1:] == 0.0)

    def test_point_mass_ceiling(self):
        p = probs(15.0, 1e-6, 10.0, 5)
        assert p[1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_tail_assigned_to_order_one(self):
        p = probs(-5.0, 1.0, 2.0, 4)
        assert p[0] == pytest.approx(1.0, abs=1e-6)

    def test_upper_tail_clamped_to_n_max(self):
        p = probs(1000.0, 1.0, 2.0, 4)
        assert p[3] == pytest.approx(1.0, abs=1e-12)

    def test_single_replica_degenerate(self):
        p = probs(123.0, 5.0, 1.0, 1)
        assert p.tolist() == [1.0]


class TestValidation:
    @pytest.mark.parametrize("tv", [0.0, -1.0])
    def test_bad_target_rejected(self, tv):
        with pytest.raises(rc.ValidationError):
            probs(1.0, 1.0, tv, 3)

    def test_bad_n_max_rejected(self):
        with pytest.raises(rc.ValidationError):
            probs(1.0, 1.0, 1.0, 0)

    def test_distribution_is_read_only(self):
        dist = rc.order_probabilities(rc.GaussianDist(5.0, 1.0), 2.0, 4)
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7

    def test_n_max_property_and_mean(self):
        dist = rc.order_probabilities(rc.GaussianDist(15.0, 1e-6), 10.0, 5)
        assert dist.n_max == 5
        assert dist.mean() == pytest.approx(2.0, abs=1e-9)


gaussian_params = st.tuples(
    st.floats(-10.0, 60.0),
    st.floats(1e-5, 25.0),
    st.floats(0.1, 20.0),
    st.integers(1, 12),
)


class TestProperties:
    @given(gaussian_params)
    def test_proper_distribution(self, params):
        mean, std, tv, n_max = params
        p = probs(mean, std, tv, n_max)
        assert len(p) == n_max
        assert np.all(p >= 0.0)
        assert np.all(p <= 1.0)
        assert abs(p.sum() - 1.0) <= 1e-12

    @given(gaussian_params, st.floats(0.0, 20.0))
    def test_monotone_shift_in_mean(self, params, bump):
        mean, std, tv, n_max = params
        lo = np.cumsum(probs(mean, std, tv, n_max))
        hi = np.cumsum(probs(mean + bump, std, tv, n_max))
        assert np.all(hi <= lo + 1e-12)

    @given(gaussian_params, st.floats(0.01, 100.0))
    def test_target_scale_invariance(self, params, c):
        mean, std, tv, n_max = params
        assume(std * c >= rc.STD_FLOOR)
        base = probs(mean, std, tv, n_max)
        scaled = probs(mean * c, std * c, tv * c, n_max)
        assert np.allclose(base, scaled, atol=1e-12)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("mean,std,tv,n_max,seed", [
        (4.2, 1.3, 2.0, 6, 11),
        (0.5, 2.0, 1.0, 4, 12),
        (18.0, 6.0, 5.0, 3, 13),
    ])
    def test_matches_sampling(self, mean, std, tv, n_max, seed):
        n = 200_000
        p = probs(mean, std, tv, n_max)
        phat = mc_order_probs(mean, std, tv, n_max, n, seed)
        se = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / n)
        assert np.all(np.abs(phat - p) <= 3.0 * se + 1e-9)


class TestVectorCdf:
    """The CDF values computed in one pass equal the scalar loop bit for bit."""

    @given(st.floats(-1e4, 1e4), st.floats(rc.STD_FLOOR, 1e3), st.floats(0.01, 50.0),
           st.integers(2, 400))
    def test_matches_scalar_cdf_loop(self, mean, std, tv, n_max):
        dist = rc.GaussianDist(mean, std)
        got = rc.order_probabilities(dist, tv, n_max).probs
        assert np.array_equal(got, scalar_cdf_probs(dist, tv, n_max))

    @pytest.mark.parametrize("mean,std,tv,n_max", [
        (0.0, 1.0, 1.0, 60),          # upper tail: F rounds to 1.0 from 6 sigma on
        (1000.0, 1.0, 1.0, 1000),     # lower tail: F a subnormal, then 0
        (500.0, 30.0, 2.0, 1000),     # both tails at n_max 1000
        (-3.0, 1e-6, 0.5, 5),         # point mass below the first threshold
    ])
    def test_deep_tails(self, mean, std, tv, n_max):
        dist = rc.GaussianDist(mean, std)
        got = rc.order_probabilities(dist, tv, n_max).probs
        assert np.array_equal(got, scalar_cdf_probs(dist, tv, n_max))
