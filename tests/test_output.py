"""Response-time fit and the stationary-weighted steady-state report."""

import json
import math
import warnings

import numpy as np
import pytest

import replicast as rc
from oracles import quad_positive_mean
from replicast.metric_model import fit_law, positive_part_means


def make_mm(mean_linear=0.2, mean_quadratic=0.0, var_linear=0.1,
            var_quadratic=0.0, rho_max=100.0):
    return rc.MetricModel("cc", rc.Law((0.0, mean_linear, mean_quadratic), rho_max, 0.0, 1.0),
                          rc.Law((0.0, var_linear, var_quadratic), rho_max, 0.0, 1.0))


def make_rtf(intercept=0.2, linear=0.0, quadratic=0.0, rho_max=100.0):
    return rc.Law((intercept, linear, quadratic), rho_max, 0.0, 1.0)


def trace_of(rates, rts):
    rates = np.asarray(rates, dtype=np.float64)
    return rc.trace_from_arrays(rates, 0.2 * rates, np.asarray(rts, dtype=np.float64))


class TestFitRtf:
    def test_noiseless_quadratic_recovery(self):
        rates = np.arange(1.0, 11.0)
        y = 0.2 + 0.01 * rates + 0.001 * rates ** 2
        rtf = rc.fit_rtf(trace_of(rates, y))
        assert rtf.coefficients == pytest.approx((0.2, 0.01, 0.001), abs=1e-6)
        assert rtf.r2 >= 0.999

    def test_constant_response_time_drops_rate_terms(self):
        rates = np.arange(1.0, 9.0)
        rtf = rc.fit_rtf(trace_of(rates, np.full(8, 0.25)))
        assert rtf.coefficients[0] == pytest.approx(0.25, abs=1e-12)
        assert rtf.coefficients[1:] == (0.0, 0.0)

    @pytest.mark.parametrize("rows", [10, 12, 20])
    def test_constant_response_time_reads_an_exact_fit(self, rows):
        # twelve 0.2s average to 0.20000000000000004, so their spread
        # about the mean is rounding, not a trend: within the fit's
        # tolerance y is constant and fitted exactly, which reads r2 1
        rates = np.arange(1.0, rows + 1.0)
        rtf = rc.fit_rtf(trace_of(rates, np.full(rows, 0.2)))
        assert rtf.r2 == 1.0

    def test_noisy_flat_trace_keeps_positive_curve(self):
        rng = np.random.default_rng(3)
        rates = np.repeat(np.arange(1.0, 11.0), 30)
        y = 0.2 + rng.normal(0.0, 0.01, rates.size)
        rtf = rc.fit_rtf(trace_of(rates, np.maximum(y, 1e-4)))
        for rho in np.linspace(0.0, rates.max(), 50):
            assert rtf.at(rho) > 0.0

    def test_dipping_fit_rejected(self):
        # the exact parabola through these three points crosses zero
        # near rho = 4.5
        with pytest.raises(rc.FitRejectedError,
                           match="fitted response time is non-positive at rho="):
            rc.fit_rtf(trace_of([1.0, 4.0, 5.0], [0.5, 0.01, 0.01]))

    def test_fit_within_tolerance_of_zero_rejected(self):
        # a line from 5e-13 s at rho 0: positive, but not above the
        # tolerance 1e-12 * max(1, max response time), so rejected where
        # a mean of the same size would be kept
        rates = np.repeat(np.arange(1.0, 6.0), 3)
        rts = 5e-13 + 0.1 * rates
        law = fit_law(rates, rts, (0, 1, 2))
        assert law.min_rho == 0.0 and 0.0 < law.min_value <= law.tol
        with pytest.raises(rc.FitRejectedError,
                           match="fitted response time is non-positive at rho="):
            rc.fit_rtf(trace_of(rates, rts))

    def test_too_few_distinct_rates(self):
        with pytest.raises(rc.InsufficientDataError):
            rc.fit_rtf(trace_of([2.0, 2.0, 4.0], [0.2, 0.2, 0.3]))

    def test_dict_round_trip(self):
        rtf = make_rtf(0.21, 0.003, 0.0005, rho_max=12.0)
        again = rc.Law.from_dict(json.loads(json.dumps(rtf.to_dict())), "response_time")
        assert again == rtf

    def test_nonpositive_intercept_rejected(self):
        with pytest.raises(rc.ValidationError,
                           match=r"response_time coefficients\[0\] must be > 0"):
            rc.ModelBundle(make_mm(), make_rtf(intercept=0.0))

    def test_reference_trace_fit(self, ref_bundle):
        # infinite-server ground truth: mean response time is flat, so the
        # r2 of any fit is ~0 by construction; judge recovery instead
        rtf = ref_bundle.response_time
        for rho in (1.0, 5.0, 10.0, 20.0):
            assert rtf.at(rho) == pytest.approx(0.2, rel=0.05)


def _point_distribution(chain, states_probs):
    states = sorted(states_probs)
    marginal = np.zeros(chain.n_max)
    for (_, j), p in states_probs.items():
        marginal[j - 1] += p
    return rc.StationaryDistribution(pi=[states_probs[s] for s in states], states=states,
                                     marginal_ready=marginal, n_transient=0,
                                     residual=0.0)


class TestSteadyStateReport:
    def test_single_state_weights(self):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=6.0, n_max=4)
        mm = make_mm(0.2, 0.0, 0.002, 0.0)
        rtf = make_rtf(0.2, 0.01, 0.001)
        chain = rc.build_chain(20.0, mm, cfg)
        st = _point_distribution(chain, {(4, 4): 1.0})
        rep = rc.steady_state_report(st, chain, mm, rtf)
        assert rep.avg_replica_count == pytest.approx(4.0, abs=1e-12)
        assert rep.avg_response_time_s == pytest.approx(rtf.at(5.0), abs=1e-12)
        want_c = quad_positive_mean(0.2 * 5.0, math.sqrt(0.002 * 5.0))
        assert rep.avg_concurrency == pytest.approx(want_c, abs=1e-9)

    def test_uniform_two_state_average(self):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=1.0, n_max=2)
        mm = make_mm()
        rtf = make_rtf(0.2, 0.05, 0.002)
        chain = rc.build_chain(2.0, mm, cfg)
        st = _point_distribution(chain, {(1, 1): 0.5, (2, 2): 0.5})
        rep = rc.steady_state_report(st, chain, mm, rtf)
        assert rep.avg_replica_count == pytest.approx(1.5, abs=1e-12)
        want_rt = 0.5 * (rtf.at(2.0) + rtf.at(1.0))
        assert rep.avg_response_time_s == pytest.approx(want_rt, abs=1e-12)

    def test_replica_average_matches_ready_marginal(self):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=2.0, n_max=6)
        mm = make_mm(0.2, 0.001, 0.1, 0.02)
        rtf = make_rtf()
        chain = rc.build_chain(18.0, mm, cfg)
        st = rc.stationary_distribution(chain)
        rep = rc.steady_state_report(st, chain, mm, rtf)
        from_marginal = float(np.dot(rep.marginal_ready, np.arange(1, 7)))
        assert rep.avg_replica_count == pytest.approx(from_marginal, abs=1e-12)
        assert rep.stationary.pi.sum() == pytest.approx(1.0, abs=1e-10)

    def _report_at(self, bundle, lam, tv, n_max=10):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=tv, n_max=n_max)
        chain = rc.build_chain(lam, bundle.metric, cfg)
        st = rc.stationary_distribution(chain)
        return rc.steady_state_report(st, chain, bundle.metric,
                                      bundle.response_time)

    def test_replicas_nonincreasing_in_target(self, ref_bundle):
        targets = [1.0, 2.0, 3.0, 5.0, 8.0]
        reps = [self._report_at(ref_bundle, 20.0, tv) for tv in targets]
        ns = [r.avg_replica_count for r in reps]
        for lo, hi in zip(ns[1:], ns[:-1]):
            assert lo <= hi + 1e-9

    def test_concurrency_nondecreasing_in_rate(self, ref_bundle):
        rates = [2.0, 5.0, 10.0, 20.0, 40.0]
        cs = [self._report_at(ref_bundle, lam, 5.0).avg_concurrency for lam in rates]
        for lo, hi in zip(cs[:-1], cs[1:]):
            assert hi >= lo - 1e-9

    def test_low_load_concurrency_follows_the_load(self, ref_bundle):
        # at 1e-6 req/s the offered load is 2e-7 in-flight requests; the
        # variance law vanishes with the rate, so the positive part of the
        # metric's Gaussian does too (a spread that stayed at its value
        # near rate 0.5 would make it about 0.1)
        rep = self._report_at(ref_bundle, 1e-6, 5.0, n_max=5)
        assert rep.avg_concurrency < 1e-3

    def test_per_ready_report_matches_per_state_loop(self, ref_bundle):
        # the report weights one value per ready count by the marginal;
        # the reference walks every (order, ready) state with its own
        # probability, as a per-state table does
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=2.0, n_max=8)
        mm, rtf = ref_bundle.metric, ref_bundle.response_time
        chain = rc.build_chain(60.0, mm, cfg)
        st = rc.stationary_distribution(chain)
        rep = rc.steady_state_report(st, chain, mm, rtf)
        reach = min(mm.mean.rho_max, mm.variance.rho_max, rtf.rho_max)
        want = []
        for s in range(chain.n_states):
            _, j = chain.state_of(s)
            rho = chain.arrival_rate / j
            d = rc.observed_value_distribution(mm, rho)
            want.append(dict(
                ready=j, probability=float(st.pi[s]),
                concurrency=float(positive_part_means(np.array([d.mean]), np.array([d.std]))[0]),
                response_time_s=rtf.at(rho), extrapolated=rho > reach * (1.0 + 1e-12)))
        for w in want:
            k = w["ready"] - 1
            assert rep.ready_concurrency[k] == w["concurrency"]
            assert rep.ready_response_time_s[k] == w["response_time_s"]
            assert rep.ready_extrapolated[k] == w["extrapolated"]
        for name, value in (
                ("avg_response_time_s", math.fsum(w["probability"] * w["response_time_s"]
                                                  for w in want)),
                ("avg_replica_count", math.fsum(w["probability"] * w["ready"] for w in want)),
                ("avg_concurrency", math.fsum(w["probability"] * w["concurrency"]
                                              for w in want)),
                ("extrapolated_mass", math.fsum(w["probability"] for w in want
                                                if w["extrapolated"]))):
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12, abs=1e-15)
        diagnostics = rep.to_dict()["diagnostics"]
        assert diagnostics["n_transient"] == st.n_transient
        assert diagnostics["recurrent_states"] == cfg.n_max ** 2 - st.n_transient
        assert diagnostics["closed_states"] == chain.n_states

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_hand_built_chain_needs_a_valid_arrival_rate(self, lam):
        # build_chain checks the rate; a chain built by hand is checked
        # when its per-ready-count table is made
        chain = rc.build_chain(2.0, make_mm(), rc.AutoscalerConfig(
            metric_kind="cc", target_value=1.0, n_max=2))
        bad = rc.ClusterChain(n_max=2, arrival_rate=lam, horizontal=chain.horizontal,
                              arrive=chain.arrive, stay=chain.stay)
        st = _point_distribution(bad, {(1, 1): 1.0})
        with pytest.raises(rc.ValidationError, match="arrival_rate must be finite and >= 0"):
            rc.steady_state_report(st, bad, make_mm(), make_rtf())

    @pytest.mark.parametrize("mm, want", [
        (make_mm(0.2, 0.001), "mean must be finite, got inf"),
        (make_mm(0.2, 0.0, 0.1, 1e300), "std must be >= 1e-06, got inf"),
    ])
    def test_report_with_a_law_that_is_not_one_raises_its_error(self, mm, want):
        # a chain built at a sane rate, reported with another model whose
        # law at rate 1e300 / j overflows: the error of that GaussianDist
        chain = rc.build_chain(2.0, make_mm(), rc.AutoscalerConfig(
            metric_kind="cc", target_value=1.0, n_max=2))
        far = rc.ClusterChain(n_max=2, arrival_rate=1e300, horizontal=chain.horizontal,
                              arrive=chain.arrive, stay=chain.stay)
        st = _point_distribution(far, {(1, 1): 1.0})
        with pytest.raises(rc.ValidationError) as scalar:
            rc.GaussianDist(mm.mean_at(1e300), float(mm.std_at(1e300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rc.ValidationError) as exc:
                rc.steady_state_report(st, far, mm, make_rtf())
        assert str(exc.value) == str(scalar.value) == want

    def test_metric_kind_mismatch_rejected(self):
        # the one check runs in build_chain, before any chain work
        cfg = rc.AutoscalerConfig(metric_kind="rps", target_value=2.0, n_max=2)
        with pytest.raises(rc.ValidationError) as exc:
            rc.build_chain(1.0, make_mm(), cfg)
        assert isinstance(exc.value, rc.ConfigMismatchError)
        assert "'cc'" in str(exc.value) and "'rps'" in str(exc.value)

    def test_extrapolation_mass_accounting(self):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=4.0, n_max=4)
        mm = make_mm(rho_max=5.0)
        rtf = make_rtf(rho_max=5.0)
        chain = rc.build_chain(40.0, mm, cfg)
        st = rc.stationary_distribution(chain)
        rep = rc.steady_state_report(st, chain, mm, rtf)
        # every reachable per-container rate is 40/j >= 10 > fitted 5
        assert rep.extrapolated_mass == pytest.approx(1.0, abs=1e-12)
        held = rep.marginal_ready > 0
        assert held.any() and rep.ready_extrapolated[held].all()
        low = rc.steady_state_report(
            _point_distribution(chain, {(1, 1): 1.0}), chain, make_mm(rho_max=50.0),
            make_rtf(rho_max=50.0))
        assert low.extrapolated_mass == 0.0

    def test_serialization(self):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=1.0, n_max=2)
        mm = make_mm()
        chain = rc.build_chain(2.0, mm, cfg)
        st = _point_distribution(chain, {(1, 1): 1.0})
        payload = rc.steady_state_report(st, chain, mm, make_rtf()).to_dict()
        assert json.loads(json.dumps(payload)) == payload
