"""Event-loop ground truth: queueing-theory oracles and bookkeeping."""

import json
import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import replicast as rc
from conftest import run_fresh
from oracles import exact_metric_law, reference_run_simulation, result_repr
from replicast import _kernels


def is_exp(mean_s=0.2):
    return rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=mean_s)


def is_det(mean_s=0.2):
    return rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=mean_s,
                            distribution="deterministic")


def autoscaler(target_value=100.0, n_max=1, **kw):
    return rc.AutoscalerConfig(metric_kind="cc", target_value=target_value,
                               n_max=n_max, **kw)


def run(workload, arrival_rate, duration_s=3600.0, warmup_s=300.0, seed=7,
        cfg=None, **kw):
    sim_cfg = rc.SimulationConfig(
        autoscaler=cfg or autoscaler(), workload=workload,
        arrival_rate=arrival_rate, duration_s=duration_s, warmup_s=warmup_s,
        seed=seed, **kw)
    return rc.simulate(sim_cfg)


class TestWorkloadModel:
    def test_sharing_rejects_deterministic(self):
        with pytest.raises(rc.ValidationError):
            rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.2,
                             distribution="deterministic")

    def test_unknown_distribution_rejected(self):
        with pytest.raises(rc.ValidationError,
                           match="infinite_server distribution must be exponential or "
                                 "deterministic, got 'pareto'"):
            rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=1.0,
                             distribution="pareto")

    def test_unknown_kind_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.WorkloadModel(kind="batch", mean_s=0.2)

    @pytest.mark.parametrize("mean", [0.0, -1.0, math.inf, math.nan, True, "0.2"])
    def test_bad_mean_rejected(self, mean):
        with pytest.raises(rc.ValidationError):
            rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=mean)

    def test_dict_round_trip(self):
        for wl in (is_exp(), is_det(0.5),
                   rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.3)):
            assert rc.WorkloadModel.from_dict(json.loads(json.dumps(wl.to_dict()))) == wl


class TestSimulationConfig:
    def test_duration_must_exceed_warmup(self):
        with pytest.raises(rc.ValidationError):
            rc.SimulationConfig(autoscaler=autoscaler(), workload=is_exp(),
                                arrival_rate=1.0, duration_s=300.0, warmup_s=300.0)

    def test_needs_one_post_warmup_sample(self):
        with pytest.raises(rc.ValidationError):
            rc.SimulationConfig(autoscaler=autoscaler(), workload=is_exp(),
                                arrival_rate=1.0, duration_s=300.5, warmup_s=300.0)

    @pytest.mark.parametrize("replicas", [0, 3])
    def test_initial_replicas_bounds(self, replicas):
        with pytest.raises(rc.ValidationError):
            rc.SimulationConfig(autoscaler=autoscaler(n_max=2), workload=is_exp(),
                                arrival_rate=1.0, duration_s=10.0, warmup_s=0.0,
                                initial_replicas=replicas)

    @pytest.mark.parametrize("field,bad,message", [
        ("autoscaler", {"metric_kind": "cc"}, "autoscaler must be an AutoscalerConfig"),
        ("workload", {"kind": "infinite_server"}, "workload must be a WorkloadModel"),
        ("arrival_rate", 0, "arrival_rate must be > 0, got 0.0"),
        ("warmup_s", -1, "warmup_s must be >= 0, got -1.0"),
    ])
    def test_out_of_domain_field_rejected(self, field, bad, message):
        kwargs = dict(autoscaler=autoscaler(), workload=is_exp(), arrival_rate=1.0,
                      duration_s=10.0, warmup_s=0.0)
        kwargs[field] = bad
        with pytest.raises(rc.ValidationError, match=message):
            rc.SimulationConfig(**kwargs)

    @pytest.mark.parametrize("field", ["arrival_rate", "duration_s", "warmup_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "5"])
    def test_non_finite_or_non_numeric_field_rejected(self, field, bad):
        kwargs = dict(arrival_rate=1.0, duration_s=10.0, warmup_s=0.0)
        kwargs[field] = bad
        with pytest.raises(rc.ValidationError, match=field):
            rc.SimulationConfig(autoscaler=autoscaler(), workload=is_exp(), **kwargs)

    def test_dict_round_trip(self):
        sim_cfg = rc.SimulationConfig(
            autoscaler=autoscaler(target_value=5.0, n_max=4), workload=is_exp(),
            arrival_rate=2.5, duration_s=600.0, warmup_s=60.0, seed=42)
        again = rc.SimulationConfig.from_dict(json.loads(json.dumps(sim_cfg.to_dict())))
        assert again == sim_cfg

    def test_unknown_key_rejected(self):
        payload = rc.SimulationConfig(
            autoscaler=autoscaler(), workload=is_exp(), arrival_rate=1.0,
            duration_s=10.0, warmup_s=0.0).to_dict()
        payload["burst_factor"] = 2
        with pytest.raises(rc.ValidationError):
            rc.SimulationConfig.from_dict(payload)


class TestInfiniteServerOracles:
    def test_single_container_concurrency_matches_offered_load(self):
        # one pinned container serving lambda=1 at E[S]=0.2: the sampled
        # concurrency is the M/M/inf occupancy, mean 0.2.  Over 35,700
        # post-warmup seconds the estimator's SD is about 0.0024, so the
        # 5% tolerance is 4 SD.
        rep = run(is_exp(0.2), arrival_rate=1.0, duration_s=36_000.0)
        assert rep.avg_concurrency == pytest.approx(0.2, rel=0.05)

    @pytest.mark.parametrize("rho", [2.5, 10.0, 20.0])
    @pytest.mark.parametrize("metric, workload", [("cc", is_exp(0.2)), ("cc", is_det(0.2)),
                                                  ("rps", is_exp(0.2))],
                             ids=["cc-exponential", "cc-deterministic", "rps"])
    def test_windowed_metric_follows_the_exact_law(self, metric, workload, rho):
        # one container's 60 s window over 35,700 post-warmup seconds: the
        # sample mean and variance lie within 3 standard errors of the
        # exact law, the errors taken from batch means over blocks of 600
        # samples, ten windows each, so that the blocks are nearly
        # independent
        cfg = rc.AutoscalerConfig(metric_kind=metric, target_value=1.0, n_max=1)
        rep = run(workload, arrival_rate=rho, duration_s=36_000.0, seed=5, cfg=cfg)
        m, v = exact_metric_law(workload, metric, 60)
        x = rep.trace.observed
        blocks = x[:x.size - x.size % 600].reshape(-1, 600)
        mean, var = x.mean(), x.var()

        def std_error(batch_means):
            return batch_means.std(ddof=1) / math.sqrt(batch_means.size)

        assert abs(mean - m * rho) < 3 * std_error(blocks.mean(axis=1))
        assert abs(var - v * rho) < 3 * std_error(((blocks - mean) ** 2).mean(axis=1))

    def test_higher_rate_tightens_little_estimate(self):
        rep = run(is_exp(0.2), arrival_rate=20.0, seed=11)
        assert rep.avg_concurrency == pytest.approx(4.0, rel=0.03)
        assert rep.avg_response_time_s == pytest.approx(0.2, rel=0.03)

    def test_deterministic_service_reports_exact_response_time(self):
        rep = run(is_det(0.2), arrival_rate=0.05, duration_s=1000.0,
                  warmup_s=100.0, seed=3)
        assert rep.completed_requests > 10
        assert rep.avg_response_time_s == pytest.approx(0.2, abs=1e-9)

    def test_sparse_arrivals_see_bare_service_time(self):
        rep = run(is_det(0.3), arrival_rate=0.001, duration_s=10_000.0,
                  warmup_s=0.0, seed=5)
        assert rep.completed_requests >= 1
        assert rep.avg_response_time_s == pytest.approx(0.3, abs=1e-9)


class TestProcessorSharingOracle:
    def test_mm1_ps_closed_form(self):
        # single container, lambda=2, mean demand 0.2: utilization 0.4,
        # so E[RT] = 0.2/0.6 and E[jobs] = 0.4/0.6
        wl = rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.2)
        rep = run(wl, arrival_rate=2.0, duration_s=7200.0, seed=17)
        assert rep.avg_response_time_s == pytest.approx(0.2 / 0.6, rel=0.08)
        assert rep.avg_concurrency == pytest.approx(0.4 / 0.6, rel=0.08)

    @pytest.mark.parametrize("j, lam", [(2, 6.0), (4, 14.0)])
    def test_fixed_containers_are_mm1_ps_at_their_share(self, j, lam):
        # j containers that never scale (the first evaluation falls after
        # the run) each take an independent 1/j share of the arrivals, so
        # each is an M/M/1-PS queue at lam / j with mean demand 0.2 s:
        # E[RT] = 0.2 / (1 - lam * 0.2 / j), 0.5 s at j 2 and 0.667 s at
        # j 4.  Sending each arrival to the least-loaded container instead
        # gives about 0.33 and 0.30 s.
        wl = rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.2)
        cfg = autoscaler(n_max=j, t_eva_s=1e6)
        rts = [run(wl, arrival_rate=lam, duration_s=20_000.0, warmup_s=500.0, seed=seed,
                   cfg=cfg, initial_replicas=j).avg_response_time_s for seed in (1, 2)]
        assert np.mean(rts) == pytest.approx(0.2 / (1.0 - lam * 0.2 / j), rel=0.05)


class TestBookkeeping:
    def test_request_conservation_is_exact(self):
        cfg = autoscaler(target_value=2.0, n_max=5)
        rep = run(is_exp(0.2), arrival_rate=8.0, duration_s=400.0,
                  warmup_s=50.0, cfg=cfg, seed=23)
        assert rep.arrivals_total == rep.completions_total + rep.in_flight_end

    def test_ready_counts_stay_in_bounds(self):
        cfg = autoscaler(target_value=2.0, n_max=4)
        rep = run(is_exp(0.2), arrival_rate=30.0, duration_s=600.0,
                  warmup_s=60.0, cfg=cfg, seed=29)
        assert rep.ready_counts.min() >= 1
        assert rep.ready_counts.max() <= 4
        assert np.all(rep.trace.observed >= 0.0)
        assert np.all(np.isfinite(rep.trace.response_times))

    def test_same_seed_reports_are_byte_identical(self):
        cfg = autoscaler(target_value=3.0, n_max=6)
        kwargs = dict(cfg=cfg, arrival_rate=12.0, duration_s=500.0,
                      warmup_s=100.0, seed=31)
        a = run(is_exp(0.2), **kwargs)
        b = run(is_exp(0.2), **kwargs)
        dump = lambda r: json.dumps(r.to_dict(include_series=True), sort_keys=True)
        assert dump(a) == dump(b)

    def test_report_echoes_the_whole_config(self):
        cfg = autoscaler(target_value=2.0, n_max=4)
        rep = run(is_exp(0.2), arrival_rate=5.0, duration_s=400.0, warmup_s=100.0,
                  cfg=cfg, seed=41, initial_replicas=3)
        payload = json.loads(json.dumps(rep.to_dict()))
        keys = [f.name for f in fields(rc.SimulationConfig)]
        assert payload["initial_replicas"] == 3
        assert rc.SimulationConfig.from_dict({k: payload[k] for k in keys}) == rep.config

    def test_series_length_matches_post_warmup_seconds(self):
        rep = run(is_exp(0.2), arrival_rate=5.0, duration_s=600.0, warmup_s=300.0,
                  cfg=autoscaler(target_value=2.0, n_max=3), seed=37)
        assert len(rep.times) == 300
        assert rep.times[0] == 301.0
        assert rep.times[-1] == 600.0

    @pytest.mark.parametrize("lam,n_max,duration", [
        (35.0, 1, 1800.0), (35.0, 1, 14_400.0), (35.0, 10, 1800.0), (35.0, 10, 14_400.0),
        (200.0, 100, 1800.0)])
    def test_departure_queue_memory_does_not_grow_with_the_run(self, lam, n_max, duration):
        # an infinite-server run holds one arrival block, the arrivals
        # kept for scale-downs from the oldest job in flight on, and a
        # response-time sum and count per second; per-job arrays kept for
        # the whole run would pass 4 MB at 35 req/s over 14,400 s, where
        # 504,000 jobs arrive.  At 200 req/s about 40 jobs are in flight
        # and the system never empties: 360,000 jobs arrive in 1800 s.
        sim_cfg = rc.SimulationConfig(
            autoscaler=autoscaler(target_value=2.0, n_max=n_max), workload=is_exp(0.2),
            arrival_rate=lam, duration_s=duration, warmup_s=300.0, seed=7)
        tracemalloc.start()
        try:
            rc.simulate(sim_cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_faster_evaluation_stays_sane(self):
        cfg_fast = autoscaler(target_value=2.0, n_max=5, t_eva_s=1.0)
        rep = run(is_exp(0.2), arrival_rate=15.0, duration_s=500.0,
                  warmup_s=100.0, cfg=cfg_fast, seed=41)
        assert math.isfinite(rep.avg_response_time_s)
        assert 1.0 <= rep.avg_replica_count <= 5.0
        assert rep.ready_counts.min() >= 1
        assert rep.ready_counts.max() <= 5

    @pytest.mark.parametrize("workload", [
        is_exp(0.2), is_det(0.2),
        rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.2)])
    @pytest.mark.parametrize("metric", ["cc", "rps"])
    def test_arrival_gaps_that_overflow(self, workload, metric):
        # at 1e-308 req/s a gap overflows to +inf, an arrival after any
        # horizon, and the run sees no arrival and no numpy warning
        cfg = rc.AutoscalerConfig(metric_kind=metric, target_value=1.0, n_max=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run(workload, arrival_rate=1e-308, duration_s=400.0, warmup_s=100.0,
                      cfg=cfg)
        assert rep.arrivals_total == 0
        assert rep.avg_response_time_s is None


def report_dump(rep, drop_seed=False):
    out = rep.to_dict(include_series=True)
    if drop_seed:
        del out["seed"]
    return json.dumps(out, sort_keys=True)


class TestSeeds:
    def test_negative_seed_is_deterministic(self):
        kwargs = dict(cfg=autoscaler(target_value=2.0, n_max=4), arrival_rate=9.0,
                      duration_s=300.0, warmup_s=50.0)
        a = run(is_exp(0.2), seed=-3, **kwargs)
        b = run(is_exp(0.2), seed=-3, **kwargs)
        assert report_dump(a) == report_dump(b)
        assert report_dump(a, True) != report_dump(run(is_exp(0.2), seed=3, **kwargs), True)

    def test_seed_is_taken_modulo_two_to_the_64(self):
        kwargs = dict(cfg=autoscaler(target_value=2.0, n_max=4), arrival_rate=9.0,
                      duration_s=300.0, warmup_s=50.0)
        for seed in (5, -7):
            a = run(is_exp(0.2), seed=seed, **kwargs)
            b = run(is_exp(0.2), seed=seed + 2**64, **kwargs)
            assert report_dump(a, True) == report_dump(b, True)

    def test_service_model_does_not_perturb_arrivals(self):
        # arrivals, service and provisioning draw from separate streams,
        # and one container takes every request, so the service model
        # cannot change the arrival process; 12,000 arrivals span several
        # random blocks
        kwargs = dict(arrival_rate=20.0, duration_s=600.0, warmup_s=60.0, seed=19)
        exp_rep = run(is_exp(0.2), **kwargs)
        det_rep = run(is_det(0.2), **kwargs)
        assert exp_rep.arrivals_total == det_rep.arrivals_total
        assert exp_rep.avg_response_time_s != det_rep.avg_response_time_s


WORKLOADS = (is_exp(0.2), is_det(0.2),
             rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.2))

# Routing uniforms that pick each position of up to four ready containers.
ROUTING_GRID = (0.0, 0.3, 0.5, 0.7, 0.9)


class TestKernelProperties:
    @given(workload=st.sampled_from(WORKLOADS),
           metric=st.sampled_from(rc.METRIC_KINDS),
           lam=st.floats(min_value=0.1, max_value=40.0),
           target=st.floats(min_value=0.5, max_value=10.0),
           n_max=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=-2**70, max_value=2**70))
    def test_conservation_bounds_and_determinism(self, workload, metric, lam, target,
                                                 n_max, seed):
        cfg = rc.AutoscalerConfig(metric_kind=metric, target_value=target, n_max=n_max)
        sim_cfg = rc.SimulationConfig(autoscaler=cfg, workload=workload,
                                      arrival_rate=lam, duration_s=200.0,
                                      warmup_s=20.0, seed=seed)
        rep = rc.simulate(sim_cfg)
        assert rep.arrivals_total == rep.completions_total + rep.in_flight_end
        assert rep.ready_counts.min() >= 1
        assert rep.ready_counts.max() <= n_max
        assert 1.0 <= rep.avg_replica_count <= n_max
        assert report_dump(rep) == report_dump(rc.simulate(sim_cfg))


class ScriptedStream:
    """A Generator stand-in that returns scripted values, then a filler."""

    def __init__(self, values, filler):
        self.values = list(values)
        self.filler = filler

    def _next(self, n):
        out = self.values[:n] + [self.filler] * max(0, n - len(self.values))
        del self.values[:n]
        return np.array(out, dtype=np.float64)

    def standard_exponential(self, n):
        return self._next(n)

    def random(self, n):
        return self._next(n)


def kernel_config(workload, lam=1.0, duration=5.0, warmup=0.0, initial=None, **autoscaler):
    """The validated config that both event loops read, for calling them
    directly: cc, target 1 and n_max 2 unless ``autoscaler`` says
    otherwise, and every container ready unless ``initial`` says how many."""
    cfg = rc.AutoscalerConfig(**{"metric_kind": "cc", "target_value": 1.0, "n_max": 2,
                                 **autoscaler})
    return rc.SimulationConfig(autoscaler=cfg, workload=workload, arrival_rate=lam,
                               duration_s=duration, warmup_s=warmup,
                               initial_replicas=cfg.n_max if initial is None else initial)


def infinite_server(distribution, det_mean=1.0):
    """Infinite-server service: exponential of mean 1, so a scripted
    service stream gives the service times, or deterministic of det_mean."""
    return is_det(det_mean) if distribution == "deterministic" else is_exp(1.0)


DISTRIBUTIONS = ("exponential", "deterministic")


class TestKernelOracle:
    """The event loop returns exactly what the loop as first written does.

    Same random streams in, so every draw, event order and floating-point
    operation must agree for reports to stay byte-identical.
    """

    @given(data=st.data(),
           workload=st.sampled_from(WORKLOADS),
           metric=st.sampled_from(rc.METRIC_KINDS),
           lam=st.floats(min_value=0.1, max_value=40.0),
           target=st.floats(min_value=0.5, max_value=10.0),
           n_max=st.integers(min_value=1, max_value=12),
           t_eva=st.sampled_from([0.3, 0.5, 2.0]),
           window=st.sampled_from([2.5, 6.0, 60.0]),
           duration=st.floats(min_value=2.0, max_value=300.0),
           warmup_share=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=-2**70, max_value=2**70))
    def test_same_result_as_reference_loop(self, data, workload, metric, lam, target,
                                           n_max, t_eva, window, duration,
                                           warmup_share, seed):
        init = data.draw(st.integers(min_value=1, max_value=n_max), label="initial")
        self.against_reference(data, workload, metric, lam, target, n_max, init, t_eva,
                               window, duration, warmup_share, seed)

    @given(data=st.data(),
           distribution=st.sampled_from(DISTRIBUTIONS),
           metric=st.sampled_from(rc.METRIC_KINDS),
           lam=st.floats(min_value=0.01, max_value=100.0),
           mean=st.floats(min_value=1e-3, max_value=60.0),
           window=st.sampled_from([1.0, 6.0, 60.0]),
           duration=st.floats(min_value=2.0, max_value=300.0),
           warmup_share=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=-2**70, max_value=2**70))
    def test_one_container_same_result_as_reference_loop(self, data, distribution, metric,
                                                         lam, mean, window, duration,
                                                         warmup_share, seed):
        # n_max 1 under infinite-server service: nothing is provisioned,
        # so nothing is routed and the counts alone give the result
        workload = rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=mean,
                                    distribution=distribution)
        self.against_reference(data, workload, metric, lam, 1.0, 1, 1, 2.0, window,
                               duration, warmup_share, seed)

    @staticmethod
    def against_reference(data, workload, metric, lam, target, n_max, init, t_eva, window,
                          duration, warmup_share, seed):
        # Small blocks refill inside a control interval and split runs of
        # equal departure times and the response-time folds across blocks.
        block = data.draw(st.sampled_from([5, 64, 4096]), label="block")
        sim_cfg = kernel_config(workload, lam=lam, duration=duration,
                                warmup=warmup_share * (math.floor(duration) - 1.0),
                                initial=init, metric_kind=metric, target_value=target,
                                n_max=n_max, t_eva_s=t_eva, stable_window_s=window)

        def streams():
            seeds = np.random.SeedSequence(seed % 2**64).spawn(4)
            return [np.random.default_rng(s) for s in seeds]

        # Set and restored by hand: hypothesis reuses function-scoped
        # fixtures such as monkeypatch across its examples.
        saved = _kernels._BLOCK, oracles._BLOCK
        _kernels._BLOCK = oracles._BLOCK = block
        try:
            got = _kernels.run_simulation(sim_cfg, *streams())
            want = reference_run_simulation(sim_cfg, *streams())
        finally:
            _kernels._BLOCK, oracles._BLOCK = saved
        assert result_repr(got) == result_repr(want)

    @staticmethod
    def both_loops(sim_cfg, gaps, services, provisioning=(), routing=()):
        """Both loops on scripted random blocks; sim_cfg sets lam 1, so
        the arrival gaps are as scripted.  Arrivals past the routing
        script go to the oldest ready container."""
        results = []
        for loop in (_kernels.run_simulation, reference_run_simulation):
            streams = (ScriptedStream(gaps, 1e3), ScriptedStream(services, 1.0),
                       ScriptedStream(provisioning, 1.0), ScriptedStream(routing, 0.0))
            results.append(result_repr(loop(sim_cfg, *streams)))
        return results

    @classmethod
    def scripted_run(cls, gaps, services, workload, warmup=0.0, n_max=2, metric="cc",
                     routing=()):
        """lam 1, n_max containers all ready, and no scale evaluation
        within the 5 s run, so no container leaves and under infinite
        server the routing changes nothing."""
        sim_cfg = kernel_config(workload, warmup=warmup, metric_kind=metric, n_max=n_max,
                                t_eva_s=100.0)
        return cls.both_loops(sim_cfg, gaps, services, routing=routing)

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_equal_departures_leave_in_arrival_order(self, distribution, n_max):
        # jobs arrive at 0.876 (position 0), 0.9057 (position 1) and one
        # ulp later (position 0); with 0.6 s service the last two depart
        # at the same rounded time 1.5057 and leave in arrival order, on
        # one container as on two.  The second's response-time sum adds them
        # in that order, which gives other bits than the order by slot.
        gaps = [0.876, 0.0297, math.ulp(0.9057)]
        a = np.cumsum(gaps)
        assert a[1] < a[2] and a[1] + 0.6 == a[2] + 0.6
        rt = [d - x for d, x in zip(a + 0.6, a)]
        assert (rt[0] + rt[2]) + rt[1] != (rt[0] + rt[1]) + rt[2]
        services = [0.6] * 3 if distribution == "exponential" else []
        got, want = self.scripted_run(gaps, services, infinite_server(distribution, det_mean=0.6),
                                      n_max=n_max, routing=[0.0, 0.5, 0.0])
        assert got == want
        assert eval(got)[2][1] == ((rt[0] + rt[1]) + rt[2]) / 3

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_response_times_add_in_arrival_order(self, n_max):
        # jobs arrive at 0.1, 0.2 and 0.3 and depart at 0.9, 0.3 and 0.7,
        # all in the first second but in another order than they came.
        # The second's sum and the post-warmup sum add the response times
        # in arrival order, whose bits differ from the departure order's.
        gaps, services = [0.1, 0.1, 0.1], [0.8, 0.1, 0.4]
        a = np.cumsum(gaps)
        d = a + services
        assert d[1] < d[2] < d[0] < 1.0
        rt = (d - a).tolist()
        by_arrival = (rt[0] + rt[1]) + rt[2]
        assert by_arrival != (rt[1] + rt[2]) + rt[0]
        got, want = self.scripted_run(gaps, services, infinite_server("exponential"),
                                      n_max=n_max, routing=[0.0, 0.5, 0.0])
        assert got == want
        _, _, tick_rt, carried, _, rt_sum_pw, completions_pw, *_ = eval(got)
        assert (tick_rt[0], carried[0]) == (by_arrival / 3, 0)
        assert (rt_sum_pw, completions_pw) == (by_arrival, 3)

    @given(gaps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=30),
           services=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), max_size=30),
           distribution=st.sampled_from(DISTRIBUTIONS),
           det_mean=st.sampled_from([1e-300, 0.5, 1.0]),
           metric=st.sampled_from(rc.METRIC_KINDS),
           window=st.sampled_from([1, 3, 60]),
           duration=st.sampled_from([3.25, 4.0, 5.0, 5.5]),
           warmup=st.sampled_from([0.0, 1.0, 2.0]),
           block=st.sampled_from([1, 2, 3, 5]))
    def test_one_container_on_a_grid_of_times(self, gaps, services, distribution, det_mean,
                                              metric, window, duration, warmup, block):
        # one container, so the counts alone give the result: times on a
        # quarter-second grid put arrivals and departures on monitor
        # ticks, on each other, on the warmup and on the horizon, and tiny
        # blocks end on them too.  A deterministic mean of 1e-300
        # rounds away at every arrival after 0, so those jobs have zero
        # service, which a mean of 0 would give but the config rejects.
        sim_cfg = kernel_config(infinite_server(distribution, det_mean=det_mean),
                                duration=duration, warmup=warmup, metric_kind=metric,
                                n_max=1, t_eva_s=2.0, stable_window_s=window)
        saved = _kernels._BLOCK, oracles._BLOCK
        _kernels._BLOCK = oracles._BLOCK = block
        try:
            got, want = self.both_loops(sim_cfg, gaps, services)
        finally:
            _kernels._BLOCK, oracles._BLOCK = saved
        assert got == want

    @given(gaps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=30),
           services=st.lists(st.sampled_from([0.1, 0.35, 0.6, 0.85, 1.1]), max_size=30),
           routing=st.lists(st.sampled_from(ROUTING_GRID), max_size=30),
           distribution=st.sampled_from(DISTRIBUTIONS),
           det_mean=st.sampled_from([0.1, 0.35, 1.1]),
           metric=st.sampled_from(rc.METRIC_KINDS),
           n_max=st.integers(min_value=2, max_value=4),
           initial=st.integers(min_value=1, max_value=4),
           window=st.sampled_from([1, 3, 60]),
           duration=st.sampled_from([3.25, 4.0, 5.0, 5.5]),
           warmup=st.sampled_from([0.0, 1.0, 2.0]),
           block=st.sampled_from([1, 2, 3, 5]))
    def test_containers_on_a_grid_of_times(self, gaps, services, routing, distribution,
                                           det_mean, metric, n_max, initial, window, duration,
                                           warmup, block):
        # arrivals on a quarter-second grid, services off it, so jobs on
        # different containers leave at equal times with different
        # response times; one-second evaluation and provisioning at 20/s
        # scale the containers up and down within the run, and the
        # routing draws send jobs to each position
        sim_cfg = kernel_config(infinite_server(distribution, det_mean=det_mean),
                                duration=duration, warmup=warmup, initial=min(initial, n_max),
                                metric_kind=metric, n_max=n_max, t_eva_s=1.0,
                                stable_window_s=window, mu_pro=20.0, mu_dep=20.0)
        saved = _kernels._BLOCK, oracles._BLOCK
        _kernels._BLOCK = oracles._BLOCK = block
        try:
            got, want = self.both_loops(sim_cfg, gaps, services, routing=routing)
        finally:
            _kernels._BLOCK, oracles._BLOCK = saved
        assert got == want

    @given(gaps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=30),
           services=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), max_size=30),
           provisioning=st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=10),
           routing=st.lists(st.sampled_from(ROUTING_GRID), max_size=30),
           metric=st.sampled_from(rc.METRIC_KINDS),
           n_max=st.integers(min_value=2, max_value=4),
           initial=st.integers(min_value=1, max_value=4),
           t_eva=st.sampled_from([0.5, 1.0]),
           block=st.sampled_from([1, 2, 3, 5]))
    def test_scaling_on_a_grid_of_times(self, gaps, services, provisioning, routing, metric,
                                        n_max, initial, t_eva, block):
        # arrivals, service times and provisioning delays on a
        # quarter-second grid, so that containers are added and removed on
        # an arrival, a departure or a monitor tick, zero-service jobs
        # included, and a removed container's jobs and arrivals are
        # counted up to such instants
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, initial=min(initial, n_max),
                                metric_kind=metric, n_max=n_max, t_eva_s=t_eva,
                                stable_window_s=1.0, mu_dep=1.0)
        saved = _kernels._BLOCK, oracles._BLOCK
        _kernels._BLOCK = oracles._BLOCK = block
        try:
            got, want = self.both_loops(sim_cfg, gaps, services, provisioning, routing)
        finally:
            _kernels._BLOCK, oracles._BLOCK = saved
        assert got == want

    @pytest.mark.parametrize("block", [5, 64])
    @pytest.mark.parametrize("metric", rc.METRIC_KINDS)
    @pytest.mark.parametrize("workload", [
        is_exp(1.0), rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.15)],
        ids=["infinite-server", "processor-sharing"])
    def test_system_that_never_empties(self, monkeypatch, block, metric, workload):
        # 200 req/s of 1 s mean service keep about 200 jobs in flight, so
        # every scale-down drains jobs that arrived blocks ago, under a
        # ready-count history of many changes.  Target 5.5 and a 6 s
        # window put the desired count near 37 of 40, moving up and down
        # every few seconds, from 20 containers at the start.  Under
        # processor sharing 0.15 s of demand per job keeps about 30
        # containers busy, so departures pick among that many busy slots
        # while the count moves.
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        monkeypatch.setattr(oracles, "_BLOCK", block)
        sim_cfg = kernel_config(workload, lam=200.0, duration=120.0, warmup=60.0,
                                initial=20, metric_kind=metric, target_value=5.5, n_max=40,
                                stable_window_s=6.0)
        results = []
        for loop in (_kernels.run_simulation, reference_run_simulation):
            seeds = np.random.SeedSequence(3).spawn(4)
            results.append(result_repr(loop(sim_cfg, *(np.random.default_rng(s) for s in seeds))))
        assert results[0] == results[1]
        assert len(set(eval(results[0])[0][20:])) > 1

    def test_rps_counts_arrivals_at_a_container_removed_after_the_system_empties(self):
        # rps, target 1, one-second window and evaluation.  One arrival in
        # the first second orders one container at 1 s, and the newest, at
        # position 1, leaves at 1.7 s.  Jobs arrive at 1.1 s (position 0)
        # and 1.2 s (position 1) and both leave at 1.4 s, so no job is in
        # flight from 1.4 s to the scale-down.  The sample at 2 s counts
        # the second's two arrivals less the one at position 1, which only
        # its arrival, not a job in flight, shows.
        sim_cfg = kernel_config(is_exp(1.0), metric_kind=rc.METRIC_RPS, t_eva_s=1.0,
                                stable_window_s=1.0, mu_dep=1.0)
        got, want = self.both_loops(sim_cfg, [0.1, 1.0, 0.1], [0.2, 0.3, 0.2], [0.7],
                                    [0.0, 0.0, 0.5])
        assert got == want
        tick_ready, tick_ov = eval(got)[:2]
        assert tick_ready[:2] == [2, 1]
        assert tick_ov[:2] == [0.5, 1.0]

    def test_zero_service_arrival_at_a_scale_down(self):
        # the first job leaves at 0.3 s, so at 1 s one container is
        # ordered, and the one at position 1 leaves at 1.25 s, when a
        # zero-service job arrives: it comes after the scale-down, so it
        # goes to the one container left, although its draw would pick
        # position 1 of two
        sim_cfg = kernel_config(is_exp(1.0), t_eva_s=1.0, stable_window_s=1.0, mu_dep=1.0)
        got, want = self.both_loops(sim_cfg, [0.1, 1.15, 0.25], [0.2, 0.0, 0.5], [0.25],
                                    [0.0, 0.75, 0.0])
        assert got == want
        assert eval(got)[0] == [2, 1, 1, 1, 1]

    def test_arrival_as_a_container_becomes_ready_can_go_to_it(self):
        # cc, target 1, one-second window and evaluation, one of two
        # containers ready.  Jobs at 0.25 and 0.5 s, leaving at 1.5 s,
        # order a second container at 1 s, ready at 1.25 s, when a job
        # arrives that leaves at 4 s: provisioning fires first, so the job
        # sees two containers and its draw 0.5 sends it to the new one, at
        # position 1.  The monitor at 2 s sees it there and one container
        # is ordered; the one at position 1 leaves at 2.25 s with the job,
        # so from 3 s on no job is in flight on the ready container.
        sim_cfg = kernel_config(is_exp(1.0), initial=1, t_eva_s=1.0, stable_window_s=1.0,
                                mu_pro=1.0, mu_dep=1.0)
        got, want = self.both_loops(sim_cfg, [0.25, 0.25, 0.75], [1.25, 1.0, 2.75],
                                    [0.25, 0.25], [0.0, 0.0, 0.5])
        assert got == want
        tick_ready, tick_ov = eval(got)[:2]
        assert tick_ready == [1, 2, 1, 1, 1]
        assert tick_ov == [2.0, 0.5, 0.0, 0.0, 0.0]

    def test_job_in_flight_across_blocks_drains_with_its_container(self, monkeypatch):
        # cc, target 1, one-second window and evaluation, blocks of one
        # arrival.  A job at 0.125 s goes to position 1 and leaves at
        # 2.125 s; jobs every 0.125 s up to 1.125 s go to position 0 and
        # leave 0.0625 s later, so each arrival refills the block.  The
        # monitor at 1 s sees one job and one container is ordered; the
        # one at position 1 leaves at 1.25 s with the first job, which the
        # refills since its arrival must keep, so the monitor at 2 s
        # counts no job on the ready container.
        monkeypatch.setattr(_kernels, "_BLOCK", 1)
        monkeypatch.setattr(oracles, "_BLOCK", 1)
        sim_cfg = kernel_config(is_exp(1.0), t_eva_s=1.0, stable_window_s=1.0, mu_dep=1.0)
        got, want = self.both_loops(sim_cfg, [0.125] * 9, [2.0] + [0.0625] * 8, [0.25],
                                    [0.5])
        assert got == want
        tick_ready, tick_ov = eval(got)[:2]
        assert tick_ready == [2, 1, 1, 1, 1]
        assert tick_ov == [0.5, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("last_departure", [5.7, 3.9])
    def test_drained_container_frees_its_slot(self, last_departure):
        # cc, target 1, a one-second window and evaluation, so each
        # evaluation orders the in-flight jobs on ready containers seen
        # by the monitor just before it; provisioning takes 0.02 s.  Jobs
        # at positions 0-2 (slots 0-2) at 0.1-0.3 s; at 2 s only slot 1's
        # job is left, so slots 2 (empty) and 1 (one job) scale down.  The
        # scale-up at 3.02 s skips slot 1 while its job is in flight and
        # takes slot 2.  The one at 4.02 s takes a new slot 3 while the job
        # is in flight (5.7) but slot 1 once it has left (3.9).  The 4.3 s
        # job goes to slot 2 at position 1 in the first case and to the
        # newest container, at position 2, in the second, and scaling down
        # at 5.02 s leaves the job off the monitor at 6 s only then.  Slots
        # change no infinite-server result, so only the routing draw tells
        # the two cases apart in the package's loop.
        arrivals = [0.1, 0.2, 0.3, 2.2, 2.4, 3.6, 3.7, 3.8, 4.2, 4.3]
        ends = [1.5, last_departure, 1.5, 3.5, 3.5, 4.1, 4.1, 4.1, 6.5, 6.5]
        gaps = np.diff([0.0, *arrivals]).tolist()
        services = [e - a for e, a in zip(ends, np.cumsum(gaps))]
        routing = [0.0, 0.4, 0.7, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0,
                   0.5 if last_departure > 5 else 0.9]
        sim_cfg = kernel_config(is_exp(1.0), duration=8.0, initial=3, n_max=4, t_eva_s=1.0,
                                stable_window_s=1.0, mu_dep=1.0)
        got, want = self.both_loops(sim_cfg, gaps, services, [0.02] * 10, routing)
        assert got == want
        ready = [3, 3, 1, 2, 3, 2, 2 if last_departure > 5 else 1, 1]
        assert eval(got)[0] == ready

    def test_sharing_scale_up_skips_a_draining_slot(self, monkeypatch):
        # processor sharing, cc, target 1, a one-second window and
        # evaluation, two of four containers ready, blocks of 8.  A job at
        # 0.1 s goes to slot 1, so tick 1 orders one container and slot 1,
        # the newest, leaves at 1.1 s holding it.  Three jobs on slot 0
        # order three containers at 2 s.  The scale-up at 2.1 s skips slot
        # 1, whose job is still in flight, and takes a new slot 2, where a
        # job arrives at 2.2 s (position 1).  Slot 1's job leaves at 2.3 s
        # (pick 1 of busy slots 0-2), so the scale-up at 2.5 s takes slot
        # 1.  A job at 2.6 s goes to the newest, at position 2: slot 1,
        # again pick 1 of the busy slots 0-2, so it leaves at 2.8 s.  Had
        # slot 2 or a new slot 3 taken its place, the departures at 2.3 or
        # 2.8 s would pick another slot's job.
        monkeypatch.setattr(_kernels, "_BLOCK", 8)
        monkeypatch.setattr(oracles, "_BLOCK", 8)
        gaps = [0.1, 1.1, 0.1, 0.1, 0.8, 0.4]
        # a block of exponentials, then one of (pick, job) uniforms
        services = [10.0, 4.0, 0.3, 4.0, 0.6, 10.0, 1.0, 1.0, 0.5, 0.0, 0.5, 0.0]
        sim_cfg = kernel_config(rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING,
                                                 mean_s=1.0),
                                initial=2, n_max=4, t_eva_s=1.0, stable_window_s=1.0,
                                mu_pro=1.0, mu_dep=1.0)
        got, want = self.both_loops(sim_cfg, gaps, services, [0.1, 0.2, 0.4, 0.5],
                                    [0.5, 0.0, 0.0, 0.0, 0.5, 0.9])
        assert got == want
        tick_ready, _, _, _, _, rt_sum_pw, completions_pw, *_ = eval(got)
        assert tick_ready == [2, 1, 3, 4, 4]
        assert (rt_sum_pw, completions_pw) == (2.2 + 0.2, 2)

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_departures_at_warmup_and_at_a_monitor_tick(self, distribution, n_max):
        # two jobs leave at exactly 2.5 s, the warmup, and exactly 3 s, a
        # monitor tick: the first is not counted after warmup, and both
        # close the second ending at 3 s.  They arrive at 0.5 and 0.75 s,
        # or at 2 and 2.5 s under 0.5 s deterministic service, where the
        # second arrives as the first leaves.
        if distribution == "exponential":
            gaps, services = [0.5, 0.25], [2.0, 2.25]
        else:
            gaps, services = [2.0, 0.5], []
        got, want = self.scripted_run(gaps, services, infinite_server(distribution, det_mean=0.5),
                                      warmup=2.5, n_max=n_max)
        assert got == want
        _, _, tick_rt, carried, _, rt_sum_pw, completions_pw, *_ = eval(got)
        arrived = np.cumsum(gaps)
        rts = [2.5 - arrived[0], 3.0 - arrived[1]]
        assert (rt_sum_pw, completions_pw) == (rts[1], 1)
        assert (tick_rt[2], carried[2]) == ((rts[0] + rts[1]) / 2, 0)
        assert carried[:2] == [1, 1] and carried[3:] == [1, 1]

    @pytest.mark.parametrize("metric", rc.METRIC_KINDS)
    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_zero_service_departs_after_its_arrival(self, distribution, n_max, metric):
        # under exponential service the first job leaves at 1.0, when the
        # second arrives with zero service, and so does a third with a
        # zero gap; the monitor fires at 1.0 between the departure and
        # the arrivals, so it sees neither arrival: no job in flight, one
        # arrival in the first second.  The config rejects a
        # deterministic mean of 0, but 1e-300 rounds away at every
        # arrival time here, so every job gets a zero service time.
        gaps = [0.25, 0.75, 0.0, 0.3, 0.2]
        services = [0.75, 0.0, 0.0, 0.4, 0.0]
        got, want = self.scripted_run(gaps, services,
                                      infinite_server(distribution, det_mean=1e-300),
                                      n_max=n_max, metric=metric)
        assert got == want
        sample = 1 if metric == rc.METRIC_RPS else 0
        assert eval(got)[1][0] == sample / n_max

    def test_zero_service_arrival_is_routed_before_it_leaves(self):
        # jobs at 0.25 s (position 0, leaves at 0.35 s), 0.3 s (position
        # 1, leaves at 4.3 s) and 0.6 s with zero service, which goes to
        # position 0 and leaves at its arrival.  Scaling down at 1.01 s
        # removes position 1, the newest, with the 4.3 s job, so from 2 s
        # on the monitor sees no job on the ready container.
        sim_cfg = kernel_config(is_exp(1.0), t_eva_s=1.0, stable_window_s=1.0)
        got, want = self.both_loops(sim_cfg, [0.25, 0.05, 0.3], [0.1, 4.0, 0.0], [0.02],
                                    [0.0, 0.5, 0.0])
        assert got == want
        tick_ready, tick_ov = eval(got)[:2]
        assert tick_ready == [2, 1, 1, 1, 1]
        assert tick_ov == [0.5, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_arrival_and_departure_at_the_horizon(self, distribution, n_max):
        # the 5 s run counts an arrival and a departure at exactly 5 s,
        # and a zero-service job arriving then leaves within the run;
        # the job due at 6 s is in flight at the end
        if distribution == "exponential":
            gaps, services, want_counts = [0.5, 3.5, 1.0, 0.0], [4.5, 2.0, 0.0, 0.0], [4, 3, 1]
        else:
            gaps, services, want_counts = [0.5, 3.5, 1.0], [], [3, 2, 1]
        got, want = self.scripted_run(gaps, services, infinite_server(distribution),
                                      n_max=n_max)
        assert got == want
        assert list(eval(got)[7:]) == want_counts

    def test_sharing_departures_on_an_arrival_a_tick_and_the_horizon(self, monkeypatch):
        # processor sharing, two containers, a 5.5 s run.  Jobs arrive at
        # 0.5 (slot 0, leaves at 1.0, a monitor tick, before the monitor
        # samples), 1.5 (slot 0, leaves at 2.5), 2.5 (slot 0, after the
        # job departing at 2.5, so slot 0 is empty again), 3.0 (slot 1;
        # two busy, the next completion at 3.0 + 5.0/2) and 5.5, the
        # horizon, after the departure at 5.5 picked slot 1.
        # Blocks of 4 make the service stream draw exponentials at 0.5,
        # uniforms at 1.0 and 5.5, then exponentials again.
        monkeypatch.setattr(_kernels, "_BLOCK", 4)
        monkeypatch.setattr(oracles, "_BLOCK", 4)
        gaps = [0.5, 1.0, 1.0, 0.5, 2.5]
        services = [0.5, 1.0, 3.0, 5.0, 0.5, 0.5, 0.5, 0.5, 0.75, 0.5]
        sim_cfg = kernel_config(rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING,
                                                 mean_s=1.0),
                                duration=5.5, t_eva_s=100.0)
        got, want = self.both_loops(sim_cfg, gaps, services, routing=[0.0, 0.0, 0.0, 0.5])
        assert got == want
        _, tick_ov, _, _, _, rt_sum_pw, completions_pw, *counts = eval(got)
        assert tick_ov[0] == 0.0
        assert (rt_sum_pw, completions_pw) == (0.5 + 1.0 + 2.5, 3)
        assert counts == [5, 3, 2]

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("workload", [is_exp(0.2), WORKLOADS[2]],
                             ids=["infinite_server", "processor_sharing"])
    def test_window_longer_than_the_run(self, workload, n_max):
        # the run has floor(duration) monitor ticks, so any longer window
        # never fills: one of 1e300 s runs as one of 50 s, without
        # allocating it
        results = []
        for loop, window in ((_kernels.run_simulation, 1e300),
                             (_kernels.run_simulation, 50.0),
                             (reference_run_simulation, 50.0)):
            sim_cfg = kernel_config(workload, lam=8.0, duration=50.9, warmup=10.0,
                                    n_max=n_max, t_eva_s=2.0, stable_window_s=window)
            seeds = np.random.SeedSequence(5).spawn(4)
            results.append(result_repr(loop(sim_cfg, *(np.random.default_rng(s) for s in seeds))))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n_max", [1, 12])
    @pytest.mark.parametrize("block", [5, 64])
    @pytest.mark.parametrize("workload", [is_exp(30.0), is_det(30.0),
                                          rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING,
                                                           mean_s=30.0)])
    @pytest.mark.parametrize("metric", rc.METRIC_KINDS)
    @pytest.mark.parametrize("lam", [3.0, 40.0])
    def test_departures_pending_across_many_blocks(self, monkeypatch, block, workload,
                                                   metric, lam, n_max):
        # 30 s service keeps up to about 1200 jobs in flight, so pending
        # departures span many small blocks.  Both loops draw the same
        # block sizes, because under processor sharing the service
        # stream interleaves exponential and uniform blocks.
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        monkeypatch.setattr(oracles, "_BLOCK", block)
        sim_cfg = kernel_config(workload, lam=lam, duration=150.0, warmup=20.0,
                                initial=min(3, n_max), metric_kind=metric, target_value=5.0,
                                n_max=n_max, t_eva_s=2.0)
        results = []
        for loop in (_kernels.run_simulation, reference_run_simulation):
            seeds = np.random.SeedSequence(11).spawn(4)
            results.append(result_repr(loop(sim_cfg, *(np.random.default_rng(s) for s in seeds))))
        assert results[0] == results[1]


class TestFastForward:
    """The edges of the infinite-server fast-forward, ``_kernels._fast_forward``.

    Each run matches the reference loop, and ``steps`` records each
    fast-forward as (first evaluation, ticks fired, next evaluation,
    whether it changes the order), which shows what the scalar section
    was left with.
    """

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        fast_forward = _kernels._fast_forward

        def recorded(cum, m0, samples, t_eval, *args):
            out = fast_forward(cum, m0, samples, t_eval, *args)
            calls.append((t_eval, *out))
            return out

        monkeypatch.setattr(_kernels, "_fast_forward", recorded)
        return calls

    @staticmethod
    def blocks_of(monkeypatch, block):
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        monkeypatch.setattr(oracles, "_BLOCK", block)

    @pytest.mark.parametrize("services, provisioning, warmup, ready, area, want_steps", [
        ([0.1] * 3, [0.5], 0.0, [1] * 6, 6.0, [(2.0, 2, 4.0, False), (4.0, 4, 8.0, False)]),
        ([3.0, 3.0, 0.1], [0.5], 0.0, [1, 1, 2, 2, 1, 1], 8.0,
         [(2.0, 2, 2.0, True), (4.0, 2, 4.0, True), (6.0, 2, 8.0, False)]),
        ([3.0, 3.0, 0.1], [1.0, 1.0], 4.5, [1, 1, 1, 2, 1, 1], 1.5,
         [(2.0, 2, 2.0, True), (4.0, 1, 4.0, False), (4.0, 1, 4.0, True),
          (6.0, 2, 8.0, False)])])
    def test_evaluation_at_a_blocks_stop(self, monkeypatch, steps, services, provisioning, warmup,
                                         ready, area, want_steps):
        # cc, target 1, a one-second window, evaluations every 2 s and
        # blocks of three arrivals: the third arrives at 2.0 s, the
        # block's stop, an evaluation and a tick.  The fast-forward fires
        # that evaluation, which keeps one container when no job is in
        # flight at 2 s and orders two when the first two jobs are.  In
        # the last case the second container is ready at 3.0 s, on a
        # tick, which the monitor sees first with one container ready.
        # It leaves at 4.5 s, exactly the warmup, so the span that ends
        # there adds nothing to the replica integral: one container from
        # 4.5 to 6 s.
        self.blocks_of(monkeypatch, 3)
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, warmup=warmup, initial=1,
                                t_eva_s=2.0, stable_window_s=1.0)
        got, want = TestKernelOracle.both_loops(sim_cfg, [0.5, 0.25, 1.25], services,
                                                provisioning)
        assert got == want
        assert eval(got)[0] == ready
        assert eval(got)[4] == area
        assert steps == want_steps

    def test_evaluation_rounded_past_a_blocks_stop(self, monkeypatch, steps):
        # one container, evaluations every 0.1 s and blocks of three
        # arrivals, at 0, 0 and 0.3 s, the block's stop.  The first
        # fast-forward estimates three evaluations up to it, but the third
        # accumulates to 0.30000000000000004, past the stop, so it is left
        # to the next call
        self.blocks_of(monkeypatch, 3)
        sim_cfg = kernel_config(is_exp(1.0), n_max=1, t_eva_s=0.1)
        got, want = TestKernelOracle.both_loops(sim_cfg, [0.0, 0.0, 0.3], [0.1] * 3)
        assert got == want
        assert steps[:2] == [(0.1, 0, 0.30000000000000004, False),
                             (0.30000000000000004, 0, 0.6, False)]
        assert sum(ticks for _, ticks, _, _ in steps) == 5

    def test_order_change_at_the_first_evaluation_after_a_refill(self, monkeypatch, steps):
        # blocks of two arrivals, at 0.5 and 1.5 s with 3 s service: the
        # first block fires tick 1 and stops at 1.5 s, and the first
        # evaluation after the refill, at 2 s, sees both jobs and orders
        # a second container, ready at 2.5 s
        self.blocks_of(monkeypatch, 2)
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, initial=1, t_eva_s=2.0,
                                stable_window_s=1.0)
        got, want = TestKernelOracle.both_loops(sim_cfg, [0.5, 1.0], [3.0, 3.0], [0.5])
        assert got == want
        assert eval(got)[0] == [1, 1, 2, 2, 1, 1]
        assert steps[:2] == [(2.0, 1, 2.0, False), (2.0, 1, 2.0, True)]

    @pytest.mark.parametrize("n_max", [1, 4])
    @pytest.mark.parametrize("block", [5, 64])
    @pytest.mark.parametrize("metric", rc.METRIC_KINDS)
    def test_evaluations_off_the_ticks_over_many_blocks(self, monkeypatch, steps, block, metric,
                                                         n_max):
        # evaluations every 0.3 s, three before the first tick, see
        # floor(t) ticks; 8 req/s of 1 s service at target 3 and a 6 s
        # window move the order around 3 within n_max 4.  With one
        # container nothing changes and no tick is left to the scalar
        # section.
        self.blocks_of(monkeypatch, block)
        sim_cfg = kernel_config(is_exp(1.0), lam=8.0, duration=60.0, warmup=10.0, initial=1,
                                metric_kind=metric, target_value=3.0, n_max=n_max, t_eva_s=0.3,
                                stable_window_s=6.0)
        results = []
        for loop in (_kernels.run_simulation, reference_run_simulation):
            seeds = np.random.SeedSequence(13).spawn(4)
            results.append(result_repr(loop(sim_cfg, *(np.random.default_rng(s) for s in seeds))))
        assert results[0] == results[1]
        changes = sum(changed for *_, changed in steps)
        if n_max == 1:
            assert changes == 0 and sum(ticks for _, ticks, _, _ in steps) == 60
        else:
            assert changes > 1 and len(set(eval(results[0])[0])) > 1
        assert any(t % 1.0 for t, *_ in steps)

    def test_provisioning_pending_across_a_refill(self, monkeypatch, steps):
        # blocks of two arrivals.  Jobs at 0.5 and 0.75 s with 3 s service
        # order a second container at 1 s, ready at 3.5 s; meanwhile the
        # block stopping at 2 s is folded and the next loaded.  Tick 2 and
        # the evaluation at 2 s fire up to that block's stop, tick 3 and
        # the evaluation at 3 s up to the provisioning event, with one
        # container ready; at 4 s no job is in flight and one container is
        # ordered, which leaves at 4.5 s, before ticks 5 and 6.
        self.blocks_of(monkeypatch, 2)
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, initial=1, t_eva_s=1.0,
                                stable_window_s=1.0)
        got, want = TestKernelOracle.both_loops(sim_cfg, [0.5, 0.25, 0.75, 0.5],
                                                [3.0, 3.0, 0.1, 0.1], [2.5])
        assert got == want
        assert eval(got)[:2] == ([1, 1, 1, 2, 1, 1], [2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
        assert steps == [(1.0, 1, 1.0, True), (2.0, 1, 3.0, False), (3.0, 1, 4.0, False),
                         (4.0, 1, 4.0, True), (5.0, 2, 7.0, False)]

    @pytest.mark.parametrize("metric, gaps, services, want_steps", [
        ("cc", [0.25], [3.5], [(1.0, 1, 1.0, True), (2.0, 5, 7.0, False)]),
        ("rps", [0.25, 1.0], [0.1, 0.1], [(1.0, 1, 1.0, True), (2.0, 5, 7.0, False)])])
    def test_scaled_down_container_counts_until_it_is_empty(self, steps, metric, gaps, services,
                                                             want_steps):
        # two containers, target 1, a one-second window and evaluation.
        # A job at 0.25 s orders one container at 1 s, and position 1
        # leaves at 1.5 s.  cc: it holds a job until 3.75 s, which the
        # scale-down takes off ticks 2 and 3.  rps: it took the arrival at
        # 1.25 s, which the scale-down takes off tick 2.  Either way ticks
        # 2 to 6 fire in one fast-forward.
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, metric_kind=metric, t_eva_s=1.0,
                                stable_window_s=1.0, mu_dep=1.0)
        got, want = TestKernelOracle.both_loops(sim_cfg, gaps, services, [0.5], [0.5, 0.5])
        assert got == want
        assert eval(got)[:2] == ([2, 1, 1, 1, 1, 1], [0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert steps == want_steps

    def test_cc_scale_down_whose_job_departs_two_refills_later(self, monkeypatch, steps):
        # cc, target 1, a one-second window and evaluation, blocks of one
        # arrival.  A job at 0.25 s goes to position 1 and leaves at
        # 4.25 s; later jobs go to position 0 and leave 0.0625 s after
        # arriving.  Tick 1 orders one container, and position 1 leaves at
        # 1.5 s in the block stopping at 2.5 s; its job is taken off tick
        # 2 there and off ticks 3 and 4 in the blocks stopping at 3.5 and
        # 4.5 s, two refills later.
        self.blocks_of(monkeypatch, 1)
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, t_eva_s=1.0, stable_window_s=1.0,
                                mu_dep=1.0)
        got, want = TestKernelOracle.both_loops(sim_cfg, [0.25, 1.0, 1.25, 1.0, 1.0, 1.0],
                                                [4.0] + [0.0625] * 5, [0.5], [0.5])
        assert got == want
        assert eval(got)[:2] == ([2, 1, 1, 1, 1, 1], [0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert sum(ticks for _, ticks, _, _ in steps) == 6

    def test_rps_scale_down_owed_across_a_block_without_a_tick(self, monkeypatch, steps):
        # rps, target 2, a one-second window and evaluation, blocks of one
        # arrival.  Tick 1 counts one arrival and orders one container;
        # position 1, which took the arrival at 1.25 s, leaves at 1.5 s, in
        # the last second before the stop at 1.75 s.  Neither that block
        # nor the next, stopping at 1.875 s, holds a tick, so the arrival
        # is taken off tick 2 in the block after: three arrivals in the
        # second, two on the ready container, which keep one container.
        self.blocks_of(monkeypatch, 1)
        sim_cfg = kernel_config(is_exp(1.0), duration=6.0, metric_kind=rc.METRIC_RPS,
                                target_value=2.0, t_eva_s=1.0, stable_window_s=1.0, mu_dep=1.0)
        got, want = TestKernelOracle.both_loops(sim_cfg, [0.25, 1.0, 0.5, 0.125], [0.1] * 4,
                                                [0.5], [0.0, 0.5])
        assert got == want
        assert eval(got)[:2] == ([2, 1, 1, 1, 1, 1], [0.5, 2.0, 0.0, 0.0, 0.0, 0.0])
        assert sum(ticks for _, ticks, _, _ in steps) == 6

    @pytest.mark.parametrize("workload", [is_exp(1.0), is_det(1.0)], ids=DISTRIBUTIONS)
    @pytest.mark.parametrize("metric", rc.METRIC_KINDS)
    def test_every_tick_fires_in_the_fast_forward(self, monkeypatch, steps, metric, workload):
        # the scaling run of test_system_that_never_empties in blocks of
        # 64 arrivals: provisioning events pending and scaled-down
        # containers' jobs or arrivals leave no tick to the scalar section
        self.blocks_of(monkeypatch, 64)
        sim_cfg = kernel_config(workload, lam=200.0, duration=120.5, warmup=60.0, initial=20,
                                metric_kind=metric, target_value=5.5, n_max=40,
                                stable_window_s=6.0)
        results = []
        for loop in (_kernels.run_simulation, reference_run_simulation):
            seeds = np.random.SeedSequence(3).spawn(4)
            results.append(result_repr(loop(sim_cfg, *(np.random.default_rng(s) for s in seeds))))
        assert results[0] == results[1]
        assert len(set(eval(results[0])[0][20:])) > 1
        assert sum(ticks for _, ticks, _, _ in steps) == 120

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_window_longer_than_the_run_over_many_blocks(self, monkeypatch, n_max):
        # the fast-forward bounds the window by the ticks it has, so one
        # of 1e300 s runs as one of 51 s, also across blocks of five
        # arrivals and with evaluations before the first tick
        self.blocks_of(monkeypatch, 5)
        results = []
        for loop, window in ((_kernels.run_simulation, 1e300),
                             (_kernels.run_simulation, 51.0),
                             (reference_run_simulation, 51.0)):
            sim_cfg = kernel_config(is_exp(1.0), lam=8.0, duration=50.9, warmup=10.0,
                                    initial=1, n_max=n_max, target_value=2.0, t_eva_s=0.3,
                                    stable_window_s=window)
            seeds = np.random.SeedSequence(5).spawn(4)
            results.append(result_repr(loop(sim_cfg, *(np.random.default_rng(s) for s in seeds))))
        assert results[0] == results[1] == results[2]


class TestAggregateControlLaw:
    """The evaluator orders ceil(aggregate windowed metric / target).

    Under a per-container law the replica count feeds back into its own
    input and both points below settle at 2 replicas instead.
    """

    def test_concurrency_settles_at_offered_load_over_target(self):
        # aggregate in-flight 35 * 0.2 = 7 over target 2 orders ceil(3.5) = 4
        rep = run(is_exp(0.2), arrival_rate=35.0, duration_s=1800.0,
                  cfg=autoscaler(target_value=2.0, n_max=10), seed=7)
        assert np.bincount(rep.ready_counts).argmax() == 4
        assert rep.avg_replica_count == pytest.approx(4.0, abs=0.1)
        # reported per container, Little's law gives 35 * 0.2 / 4
        assert rep.avg_concurrency == pytest.approx(1.75, rel=0.05)

    def test_rps_settles_at_rate_over_target(self):
        # aggregate 12 req/s over target 5 orders ceil(2.4) = 3
        cfg = rc.AutoscalerConfig(metric_kind="rps", target_value=5.0, n_max=10)
        rep = run(is_exp(0.2), arrival_rate=12.0, duration_s=1800.0, cfg=cfg,
                  seed=7)
        assert np.bincount(rep.ready_counts).argmax() == 3
        assert rep.avg_replica_count == pytest.approx(3.0, abs=0.1)
        assert rep.avg_concurrency == pytest.approx(12.0 / 3.0, rel=0.05)


class TestTraceEmission:
    def test_emitted_trace_round_trips(self, tmp_path):
        # the aggregate concurrency 20 * 0.2 = 4 sits on the threshold
        # between two and three replicas, so the replica count keeps
        # crossing and the trace sees several distinct rates
        cfg = autoscaler(target_value=2.0, n_max=10)
        rep = run(is_exp(0.2), arrival_rate=20.0, duration_s=600.0,
                  warmup_s=300.0, cfg=cfg, seed=43)
        path = tmp_path / "trace.csv"
        rc.write_trace(rep.trace, path)
        trace = rc.parse_trace(path)
        assert len(trace) == 300
        assert np.allclose(trace.rates, rep.trace.rates)

    def test_profile_trace_covers_requested_rates(self):
        trace = rc.profile_trace(is_exp(0.2), [2.0, 10.0], duration_s=420.0,
                                 warmup_s=300.0, seed=900)
        assert len(trace) == 240
        assert set(np.unique(trace.rates)) == {2.0, 10.0}

    def test_profile_trace_rejects_empty_grid(self):
        with pytest.raises(rc.ValidationError):
            rc.profile_trace(is_exp(0.2), [])


class TestFreshInterpreter:
    def test_in_process_report_matches_fresh_interpreter(self, tmp_path):
        sim_cfg = rc.SimulationConfig(
            autoscaler=autoscaler(target_value=2.0, n_max=4), workload=is_exp(0.2),
            arrival_rate=9.0, duration_s=220.0, warmup_s=20.0, seed=53)
        dump = json.dumps(rc.simulate(sim_cfg).to_dict(include_series=True),
                          sort_keys=True)
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(sim_cfg.to_dict()), encoding="utf-8")
        script = (
            "import json, sys\n"
            "import replicast as rc\n"
            "cfg = rc.SimulationConfig.from_dict(json.load(open(sys.argv[1])))\n"
            "rep = rc.simulate(cfg)\n"
            "print(json.dumps(rep.to_dict(include_series=True), sort_keys=True))\n"
        )
        assert run_fresh(script, str(cfg_path)).strip() == dump
