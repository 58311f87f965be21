"""Acceptance gates.

Seven end-to-end criteria, each registering one PASS/FAIL line in the
terminal summary (see conftest).  Each test states its tolerance and
runtime budget inline; a failing criterion fails its test rather than
being papered over.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import replicast as rc
from replicast import cli
from conftest import REF_MEAN_SERVICE_S, REF_PROFILE_RATES
from oracles import (build_rate_matrix, dense_block, exact_metric_law, power_iteration_pi,
                     random_stochastic_matrix, taylor_expm)

GRID_LAMBDAS = (5.0, 20.0, 50.0)
GRID_TARGETS = (2.0, 5.0, 10.0)
GRID_N_MAX = 10
REL_TOL = 0.15


def grid_autoscaler(tv):
    return rc.AutoscalerConfig(metric_kind="cc", target_value=tv, n_max=GRID_N_MAX)


def exact_model(metric, workload):
    """``metric`` with the windowed metric's exact law (mean 0.2 rho,
    variance rho S kappa / W for the 60 s window) in place of its fit."""
    m, v = exact_metric_law(workload, rc.METRIC_CONCURRENCY, 60)
    return dataclasses.replace(
        metric, mean=dataclasses.replace(metric.mean, coefficients=(0.0, m, 0.0)),
        variance=dataclasses.replace(metric.variance, coefficients=(0.0, v, 0.0)))


@pytest.fixture(scope="session")
def grid_compare(ref_bundle, ref_workload, tmp_path_factory):
    """Run `compare --seeds 10` for all nine rate/target points.

    Ten 3600 s replications per point, 300 s warmup, against the
    analytical prediction from the shared reference bundle.  Returns the
    per-point CLI exit codes and comparison payloads plus the wall time
    of the whole sweep.
    """
    root = tmp_path_factory.mktemp("grid")
    bundle_path = root / "model.json"
    rc.save_bundle(ref_bundle, bundle_path)
    t0 = time.perf_counter()
    points = []
    idx = 0
    for lam in GRID_LAMBDAS:
        for tv in GRID_TARGETS:
            sim_cfg = rc.SimulationConfig(
                autoscaler=grid_autoscaler(tv), workload=ref_workload,
                arrival_rate=lam, duration_s=3600.0, warmup_s=300.0,
                seed=5000 + 10 * idx)
            cfg_path = root / f"sim_{idx}.json"
            cfg_path.write_text(json.dumps(sim_cfg.to_dict()), encoding="utf-8")
            out_path = root / f"cmp_{idx}.json"
            code = cli.main(["compare", "--model", str(bundle_path),
                             "--sim-config", str(cfg_path),
                             "--seeds", "10", "--out", str(out_path)])
            payload = json.loads(out_path.read_text(encoding="utf-8"))
            points.append({"lam": lam, "tv": tv, "exit_code": code,
                           "payload": payload})
            idx += 1
    return points, time.perf_counter() - t0


def test_criterion_1_transient_solver_oracle(criterion):
    # closed form within 1e-8, and the vertical matrices of random
    # lifecycles up to 20 states against a scaling-and-squaring Taylor
    # exponential of their rate matrices; < 1 s
    t0 = time.perf_counter()
    cfg2 = rc.AutoscalerConfig(metric_kind="cc", target_value=1.0, n_max=2)
    got2 = rc.vertical_transition_probs(2, cfg2)[0]
    closed = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0)])
    worst = float(np.max(np.abs(got2 - closed)))

    rng = np.random.default_rng(2026)
    for _ in range(8):
        n = int(rng.integers(2, 21))
        i = int(rng.integers(1, n + 1))
        mu_pro, mu_dep = (float(x) for x in rng.uniform(0.05, 3.0, size=2))
        for t in (0.5, 3.0, 12.0):
            cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=1.0, n_max=n,
                                      mu_pro=mu_pro, mu_dep=mu_dep, t_eva_s=t)
            got = rc.vertical_transition_probs(i, cfg)
            want = taylor_expm(build_rate_matrix(i, cfg), t)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and elapsed < 1.0
    criterion(1, ok, f"max abs deviation {worst:.2e} (tol 1e-8), {elapsed:.2f} s (< 1 s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_stationary_solver_oracle(ref_bundle, criterion):
    # every chain in the suite satisfies the fixed-point identities, and
    # a random 16-state chain matches long power iteration; < 5 s
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_mass = 0.0
    for lam in GRID_LAMBDAS:
        for tv in GRID_TARGETS:
            chain = rc.build_chain(lam, ref_bundle.metric, grid_autoscaler(tv))
            st = rc.stationary_distribution(chain)
            residual = float(np.max(np.abs(st.pi @ dense_block(chain) - st.pi)))
            worst_residual = max(worst_residual, residual)
            worst_mass = max(worst_mass, abs(float(st.pi.sum()) - 1.0))

    worst_power = 0.0
    rng = np.random.default_rng(7)
    p = random_stochastic_matrix(rng, 16)
    pi = rc.solve_stationary(p)
    worst_residual = max(worst_residual, float(np.max(np.abs(pi @ p - pi))))
    worst_mass = max(worst_mass, abs(float(pi.sum()) - 1.0))
    worst_power = float(np.max(np.abs(pi - power_iteration_pi(p, steps=100_000))))
    elapsed = time.perf_counter() - t0

    ok = (worst_residual <= 1e-10 and worst_mass <= 1e-12
          and worst_power <= 1e-9 and elapsed < 5.0)
    criterion(2, ok, f"residual {worst_residual:.2e} (tol 1e-10), mass defect "
                     f"{worst_mass:.2e} (tol 1e-12), vs power iteration "
                     f"{worst_power:.2e} (tol 1e-9), {elapsed:.2f} s (< 5 s)")
    assert worst_residual <= 1e-10
    assert worst_mass <= 1e-12
    assert worst_power <= 1e-9
    assert elapsed < 5.0


def test_criterion_3_order_probabilities_monte_carlo(criterion):
    # twenty random (mean, std, target, cap) tuples, one million samples
    # each, every bin within three standard errors; < 10 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n_samples = 1_000_000
    worst_ratio = 0.0
    for _ in range(20):
        mean = float(rng.uniform(-5.0, 40.0))
        std = float(rng.uniform(0.05, 15.0))
        tv = float(rng.uniform(0.5, 12.0))
        n_max = int(rng.integers(1, 13))
        model_p = rc.order_probabilities(rc.GaussianDist(mean, std), tv, n_max)
        draws = rng.normal(mean, std, n_samples)
        orders = np.clip(np.ceil(draws / tv), 1, n_max).astype(np.int64)
        mc_p = np.bincount(orders - 1, minlength=n_max) / n_samples
        p_ref = np.maximum(model_p, mc_p)
        se = np.sqrt(np.maximum(p_ref * (1.0 - np.minimum(model_p, mc_p)), 0.0)
                     / n_samples)
        ratios = np.abs(mc_p - model_p) / (3.0 * se + 1e-12)
        worst_ratio = max(worst_ratio, float(ratios.max()))
    elapsed = time.perf_counter() - t0

    ok = worst_ratio <= 1.0 and elapsed < 10.0
    criterion(3, ok, f"worst |mc - model| = {worst_ratio:.2f}x of 3 SE (tol 1x), "
                     f"{elapsed:.2f} s (< 10 s)")
    assert worst_ratio <= 1.0
    assert elapsed < 10.0


def test_criterion_4_end_to_end_accuracy(grid_compare, criterion):
    # analytical vs simulated means for all of lambda {5,20,50} x
    # target {2,5,10}: replicas, concurrency and response time each
    # within 15% of the 10-seed simulation mean; < 10 min
    points, elapsed = grid_compare
    failures = []
    worst = ("", 0.0)
    for pt in points:
        errs = pt["payload"]["relative_errors"]
        peak = max(errs.values())
        if peak > worst[1]:
            worst = (f"lam={pt['lam']:g} tv={pt['tv']:g}", peak)
        if any(err > REL_TOL for err in errs.values()):
            bad = ", ".join(f"{k.split('_')[1]} {v:.1%}" for k, v in errs.items()
                            if v > REL_TOL)
            failures.append(f"lam={pt['lam']:g} tv={pt['tv']:g}: {bad}")

    ok = not failures and elapsed < 600.0
    if failures:
        detail = (f"{len(points) - len(failures)}/9 points within 15%; over: "
                  + "; ".join(failures) + f"; {elapsed:.0f} s (< 600 s)")
    else:
        detail = (f"9/9 points within 15%, worst {worst[1]:.1%} at {worst[0]}, "
                  f"{elapsed:.0f} s (< 600 s)")
    criterion(4, ok, detail)
    assert elapsed < 600.0
    assert not failures, "points beyond 15%: " + "; ".join(failures)


def test_chain_under_the_exact_law_matches_the_grid(ref_bundle, ref_workload, grid_compare,
                                                   criterion_note):
    # the chain built from the windowed metric's exact law (mean 0.2 rho,
    # variance rho S kappa / W for the 60 s window) against criterion 4's
    # simulations: at each of the nine points its replica count lies
    # within the 10-seed 95% half-width or 1% of the simulated mean,
    # whichever is wider.  So the chain's fresh draw at each evaluation,
    # where the simulator's window spans 30 of them, costs little, and
    # criterion 4's errors come from the fitted law.  No new simulation.
    law = exact_model(ref_bundle.metric, ref_workload)
    points, _ = grid_compare
    errors = []
    for pt in points:
        chain = rc.build_chain(pt["lam"], law, grid_autoscaler(pt["tv"]))
        rep = rc.steady_state_report(rc.stationary_distribution(chain), chain, law,
                                     ref_bundle.response_time)
        sim = pt["payload"]["simulated_mean"]["avg_replica_count"]
        half = pt["payload"]["simulated_ci95_half_width"]["avg_replica_count"]
        errors.append((f"lam={pt['lam']:g} tv={pt['tv']:g}", rep.avg_replica_count - sim,
                       max(half, 0.01 * sim), sim))
    where, err, bound, sim = max(errors, key=lambda e: abs(e[1]) / e[3])
    criterion_note(4, f"the chain under the exact law is within the bound at "
                      f"{sum(abs(e[1]) <= e[2] for e in errors)}/9 points, worst replica "
                      f"error {err / sim:+.2%} at {where} (bound {bound / sim:.2%})")
    assert all(abs(e[1]) <= e[2] for e in errors), errors


# Profile seeds for the spread of the fitted law: criterion 4's, and 19
# more a hundred apart.
PROFILE_SEEDS = (1000, *range(40000, 41801, 100))


@pytest.fixture(scope="session")
def profile_seed_errors(ref_bundle, ref_workload):
    """Each profile seed's worst relative replica error over criterion
    4's nine points, of the chain from the law it fits against the chain
    from the exact law, keyed by seconds profiled per rate."""
    exact = exact_model(ref_bundle.metric, ref_workload)
    rtf = ref_bundle.response_time

    def replicas(law):
        out = []
        for lam in GRID_LAMBDAS:
            for tv in GRID_TARGETS:
                chain = rc.build_chain(lam, law, grid_autoscaler(tv))
                rep = rc.steady_state_report(rc.stationary_distribution(chain), chain, law, rtf)
                out.append(rep.avg_replica_count)
        return np.array(out)

    want = replicas(exact)
    errors = {}
    for duration in (2700.0, 900.0):
        errors[duration] = [
            float(np.max(np.abs(replicas(rc.fit_metric_model(trace, rc.METRIC_CONCURRENCY))
                                - want) / want))
            for trace in (rc.profile_trace(ref_workload, REF_PROFILE_RATES,
                                           metric_kind=rc.METRIC_CONCURRENCY,
                                           duration_s=duration, warmup_s=300.0, seed=seed)
                          for seed in PROFILE_SEEDS)]
    return errors


def test_profile_seed_spread_beside_criterion_4(profile_seed_errors, criterion_note):
    # criterion 4 fits one profile seed; over 20, how far does the chain
    # from each fitted law sit from the chain from the exact law at its
    # worst grid point?  A diagnostic: the bound is the strict xfail below.
    parts = []
    for duration, errors in profile_seed_errors.items():
        parts.append(f"median {np.median(errors):.1%} and max {max(errors):.1%}, "
                     f"{sum(e > 0.10 for e in errors)} over 10% at {duration:g} s per rate")
    criterion_note(4, f"over {len(PROFILE_SEEDS)} profile seeds the worst-point replica error "
                      "against the exact-law chain is " + "; ".join(parts))
    assert all(math.isfinite(e) for errors in profile_seed_errors.values() for e in errors)


@pytest.mark.xfail(strict=True, reason="the fitted law depends on the profile seed: the "
                                       "worst of 20 seeds is 31.5% off the exact-law chain")
def test_every_profile_seed_within_criterion_4s_bound(profile_seed_errors):
    assert max(profile_seed_errors[2700.0]) <= REL_TOL


def test_criterion_5_noiseless_quadratic_recovery(criterion):
    # exact quadratic data recovered to 1e-6 with r2 >= 0.999, for both
    # the metric fit and the response-time fit
    rates = np.tile(np.arange(1.0, 11.0), 3)
    metric_y = 0.3 * rates + 0.01 * rates ** 2
    rt_y = 0.2 + 0.01 * rates + 0.001 * rates ** 2
    trace = rc.trace_from_arrays(rates, metric_y, rt_y)

    mm = rc.fit_metric_model(trace, "cc")
    rtf = rc.fit_rtf(trace)
    _, a1, a2 = mm.mean.coefficients
    c0, c1, c2 = rtf.coefficients
    errs = {
        "metric linear": abs(a1 - 0.3),
        "metric quadratic": abs(a2 - 0.01),
        "rt intercept": abs(c0 - 0.2),
        "rt linear": abs(c1 - 0.01),
        "rt quadratic": abs(c2 - 0.001),
    }
    worst_name = max(errs, key=errs.get)
    worst = errs[worst_name]
    r2_min = min(mm.mean.r2, rtf.r2)

    ok = worst <= 1e-6 and r2_min >= 0.999
    criterion(5, ok, f"worst coefficient error {worst:.2e} ({worst_name}, tol 1e-6), "
                     f"min r2 {r2_min:.6f} (>= 0.999)")
    assert worst <= 1e-6
    assert r2_min >= 0.999


def test_criterion_6_monotone_trends_and_compare_verdicts(ref_bundle, grid_compare,
                                                          criterion):
    # raising the target at lambda=20 must not raise replicas or lower
    # response time, and `compare` must exit 0 on at least 8 of the 9
    # grid points at the default 15% tolerance
    targets = (1.0, 2.0, 3.0, 5.0, 8.0, 10.0)
    replicas = []
    rts = []
    for tv in targets:
        cfg = grid_autoscaler(tv)
        chain = rc.build_chain(20.0, ref_bundle.metric, cfg)
        st = rc.stationary_distribution(chain)
        rep = rc.steady_state_report(st, chain, ref_bundle.metric,
                                     ref_bundle.response_time)
        replicas.append(rep.avg_replica_count)
        rts.append(rep.avg_response_time_s)
    replicas_ok = all(b <= a + 1e-9 for a, b in zip(replicas, replicas[1:]))
    rts_ok = all(b >= a - 1e-9 for a, b in zip(rts, rts[1:]))

    points, _ = grid_compare
    n_pass = sum(1 for pt in points if pt["exit_code"] == 0)
    ok = replicas_ok and rts_ok and n_pass >= 8
    criterion(6, ok, f"replica trend {'ok' if replicas_ok else 'VIOLATED'}, "
                     f"response-time trend {'ok' if rts_ok else 'VIOLATED'}, "
                     f"compare exit 0 on {n_pass}/9 points (need >= 8)")
    assert replicas_ok, f"replica counts not nonincreasing in target: {replicas}"
    assert rts_ok, f"response times not nondecreasing in target: {rts}"
    assert n_pass >= 8, f"compare passed only {n_pass}/9 points"


def test_criterion_7_conservation_and_determinism(ref_workload, criterion):
    # sampled per-container concurrency obeys Little's law within 5%,
    # request accounting balances exactly, and a fixed seed reproduces
    # the report byte for byte
    cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=100.0, n_max=1)
    sim_cfg = rc.SimulationConfig(autoscaler=cfg, workload=ref_workload,
                                  arrival_rate=20.0, duration_s=3600.0,
                                  warmup_s=300.0, seed=123)
    rep = rc.simulate(sim_cfg)
    little = (sim_cfg.arrival_rate / rep.avg_replica_count) * REF_MEAN_SERVICE_S
    little_err = abs(rep.avg_concurrency - little) / little
    conserved = rep.arrivals_total == rep.completions_total + rep.in_flight_end

    again = rc.simulate(sim_cfg)
    dump = lambda r: json.dumps(r.to_dict(include_series=True), sort_keys=True)
    identical = dump(rep) == dump(again)

    ok = little_err <= 0.05 and conserved and identical
    criterion(7, ok, f"Little's law error {little_err:.2%} (tol 5%), conservation "
                     f"{'exact' if conserved else 'BROKEN'}, repeat run "
                     f"{'identical' if identical else 'DIFFERS'}")
    assert little_err <= 0.05
    assert conserved
    assert identical
