"""Replica-state chain: vertical moves, assembly on the closed set, stationary solve."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import norm

import replicast as rc
from oracles import (build_rate_matrix, dense_block, dense_chain_matrix,
                     power_iteration_pi, random_stochastic_matrix, recurrent_classes,
                     recurrent_state_count, reference_horizontal, reference_vertical_law,
                     taylor_expm)


def make_cfg(n_max=3, target_value=1.0, **overrides):
    base = dict(metric_kind="cc", target_value=target_value, n_max=n_max)
    base.update(overrides)
    return rc.AutoscalerConfig(**base)


def make_mm(mean_linear=0.2, mean_quadratic=0.0, std_intercept=0.0,
            std_slope=0.0, rho_max=100.0):
    return rc.MetricModel(
        metric_kind="cc", mean_linear=mean_linear, mean_quadratic=mean_quadratic,
        std_intercept=std_intercept, std_slope=std_slope, rho_max=rho_max,
        fit_mse=0.0, fit_r2=1.0)


def full_vertical(cfg):
    """V[i-1, j-1, j'-1] for every order i, one public call per target."""
    return np.stack([rc.vertical_transition_probs(i, cfg) for i in range(1, cfg.n_max + 1)])


def closed_keys(chain):
    """Full-chain indices (i-1)*n_max + (j-1) of the chain's closed states."""
    return (chain.states[:, 0] - 1) * chain.n_max + chain.states[:, 1] - 1


def tables_tensor(arrive, stay):
    """V[i-1, j-1, j'-1] placed by hand from the binomial tables."""
    n = arrive.shape[0]
    v = np.zeros((n, n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k, lo = abs(i - j), min(i, j)
            v[i - 1, j - 1, lo - 1:lo + k] = (arrive if i > j else stay)[k, :k + 1]
    return v


def still_tables(n):
    """Binomial tables under which no container ever arrives or leaves."""
    arrive = np.zeros((n, n))
    arrive[:, 0] = 1.0
    return arrive, np.eye(n)


class TestRateMatrix:
    def test_provisioning_rates_scale_with_deficit(self):
        q = build_rate_matrix(3, make_cfg(n_max=3))
        assert q[0, 1] == pytest.approx(2.0)
        assert q[1, 2] == pytest.approx(1.0)

    def test_removal_rates_scale_with_excess(self):
        q = build_rate_matrix(1, make_cfg(n_max=3))
        assert q[2, 1] == pytest.approx(4.0)
        assert q[1, 0] == pytest.approx(2.0)

    def test_target_row_is_absorbing(self):
        for i in (1, 2, 3):
            q = build_rate_matrix(i, make_cfg(n_max=3))
            assert np.all(q[i - 1] == 0.0)

    @pytest.mark.parametrize("n_max,i_target", [(1, 1), (4, 2), (10, 10), (7, 1)])
    def test_generator_structure(self, n_max, i_target):
        q = build_rate_matrix(i_target, make_cfg(n_max=n_max))
        assert q.shape == (n_max, n_max)
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)
        off = q - np.diag(np.diag(q))
        assert np.all(off >= 0.0)
        # birth-death: no transitions beyond the adjacent ready counts
        for d in range(2, n_max):
            assert np.all(np.diag(q, k=d) == 0.0)
            assert np.all(np.diag(q, k=-d) == 0.0)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(rc.ValidationError):
            build_rate_matrix(4, make_cfg(n_max=3))
        with pytest.raises(rc.ValidationError):
            build_rate_matrix(0, make_cfg(n_max=3))


# (n_max, mu_pro, mu_dep, t_eva_s): defaults, slow and fast lifecycles,
# and mu * t in the hundreds, where every row absorbs at the target
VERTICAL_SETTINGS = [
    (40, 1.0, 2.0, 2.0),
    (40, 0.05, 0.1, 0.7),
    (25, 3.0, 0.4, 11.0),
    (33, 0.6, 5.0, 0.3),
    (12, 50.0, 80.0, 10.0),
    (40, 30.0, 30.0, 9.0),
]


class TestTransientDistribution:
    """The vertical matrix is the provisioning process's law over one
    evaluation period, exp(Q t_eva), computed in closed form."""

    def test_zero_time_is_identity(self):
        # t_eva_s must be > 0; as it shrinks the matrix tends to the identity
        cfg = make_cfg(n_max=4, t_eva_s=1e-14)
        for i in range(1, 5):
            v = rc.vertical_transition_probs(i, cfg)
            assert np.allclose(v, np.eye(4), rtol=0.0, atol=1e-12)

    def test_two_state_closed_form(self):
        # the surplus container drains at mu_dep = 2 over t = 1
        v = rc.vertical_transition_probs(1, make_cfg(n_max=2, t_eva_s=1.0))
        assert v[1, 0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-8)
        assert v[1, 1] == pytest.approx(math.exp(-2.0), abs=1e-8)

    @pytest.mark.parametrize("setting", range(len(VERTICAL_SETTINGS)))
    def test_matches_taylor_expm(self, setting):
        n_max, mu_pro, mu_dep, t_eva_s = VERTICAL_SETTINGS[setting]
        cfg = make_cfg(n_max=n_max, mu_pro=mu_pro, mu_dep=mu_dep, t_eva_s=t_eva_s)
        for i in range(1, n_max + 1):
            got = rc.vertical_transition_probs(i, cfg)
            want = taylor_expm(build_rate_matrix(i, cfg), t_eva_s)
            assert np.allclose(got, want, rtol=0.0, atol=1e-8)

    def test_conserves_probability_at_extreme_horizons(self):
        for t in (1.0, 1e3, 1e6):
            cfg = make_cfg(n_max=5, t_eva_s=t)
            for i in range(1, 6):
                v = rc.vertical_transition_probs(i, cfg)
                assert np.all(v >= 0.0)
                assert np.max(np.abs(v.sum(axis=1) - 1.0)) <= 1e-10

    def test_absorbs_at_target_for_large_t(self):
        v = rc.vertical_transition_probs(4, make_cfg(n_max=5, t_eva_s=1e6))
        assert np.allclose(v[:, 3], 1.0, rtol=0.0, atol=1e-9)

    def test_invalid_start_rejected(self):
        cfg = make_cfg(n_max=3)
        for bad in (0, 4, -1, 2.0, True):
            with pytest.raises(rc.ValidationError):
                rc.vertical_transition_probs(bad, cfg)


class TestVerticalProbs:
    def test_at_target_row_is_unit(self):
        v = rc.vertical_transition_probs(2, make_cfg(n_max=4))
        assert v[1].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_two_state_row_matches_closed_form(self):
        v = rc.vertical_transition_probs(2, make_cfg(n_max=2))
        assert v[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-8)
        assert v[0, 1] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-8)

    def test_rows_stochastic(self):
        for i in range(1, 6):
            v = rc.vertical_transition_probs(i, make_cfg(n_max=5))
            assert np.allclose(v.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(v >= 0.0)

    def test_stochastically_monotone_in_target(self):
        cfg = make_cfg(n_max=6)
        mats = [rc.vertical_transition_probs(i, cfg) for i in range(1, 7)]
        for lo, hi in zip(mats, mats[1:]):
            # larger target puts more mass on larger j': cumulative sums drop
            assert np.all(np.cumsum(hi, axis=1) <= np.cumsum(lo, axis=1) + 1e-12)


class TestHorizontalProbs:
    def test_point_mass_ceiling(self):
        # the aggregate j * 0.2 * (lambda/j) = 0.2 * 7.5 lands at 1.5*TV
        # whatever the ready count, so the order is 2 from every j
        cfg = make_cfg(n_max=4, target_value=1.0)
        for j in range(1, 5):
            h = rc.horizontal_transition_probs(j, 7.5, make_mm(0.2), cfg)
            assert h[1] == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_rate_orders_one_replica(self):
        cfg = make_cfg(n_max=4, target_value=1.0)
        h = rc.horizontal_transition_probs(1, 1e-12, make_mm(0.2), cfg)
        assert h[0] == pytest.approx(1.0, abs=1e-12)

    def test_equals_evaluator_on_metric_distribution(self):
        cfg = make_cfg(n_max=5, target_value=2.0)
        mm = make_mm(0.3, 0.001, 0.05, 0.01)
        lam = 12.0
        for j in range(1, 6):
            h = rc.horizontal_transition_probs(j, lam, mm, cfg)
            # the aggregate over j ready containers, each at rate lam/j
            per = rc.observed_value_distribution(mm, lam / j)
            dist = rc.GaussianDist(j * per.mean, math.sqrt(j) * per.std)
            want = rc.order_probabilities(dist, cfg.target_value, cfg.n_max)
            assert np.allclose(h, want, atol=1e-15)


LIFECYCLES = [(1.0, 2.0, 2.0), (0.05, 0.1, 0.7), (30.0, 30.0, 9.0)]


class TestOnePassFactors:
    """build_chain's order vectors, made for every ready count in one array
    pass, and its binomial tables, filled in one loop, equal the
    per-ready-count and per-table builds bit for bit."""

    @given(lam=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-3, 1e4)),
           a1=st.floats(0.0, 2.0), a2=st.floats(-0.02, 0.02),
           b0=st.floats(0.0, 2.0), b1=st.floats(-0.5, 0.5),
           tv=st.floats(0.05, 20.0), n_max=st.integers(1, 60))
    # a subnormal rate: every rho but the first underflows to 0
    @example(lam=5e-324, a1=0.2, a2=0.0, b0=0.5, b1=0.1, tv=1.0, n_max=8)
    # a negative quadratic: the mean is negative at small ready counts
    @example(lam=5000.0, a1=0.2, a2=-0.01, b0=0.1, b1=0.02, tv=2.0, n_max=60)
    # a negative spread slope that reaches STD_FLOOR
    @example(lam=400.0, a1=0.2, a2=0.0, b0=0.5, b1=-0.5, tv=2.0, n_max=40)
    @example(lam=3.0, a1=0.2, a2=0.0, b0=0.5, b1=0.1, tv=1.0, n_max=1)
    def test_horizontal_equals_scalar_oracle(self, lam, a1, a2, b0, b1, tv, n_max):
        mm = make_mm(a1, a2, b0, b1)
        cfg = make_cfg(n_max=n_max, target_value=tv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = rc.build_chain(lam, mm, cfg)
        assert np.array_equal(chain.horizontal, reference_horizontal(lam, mm, cfg))

    def test_examples_reach_the_floor_rules(self):
        # the examples above do reach the rules they name
        assert 5e-324 / 2 == 0.0
        assert make_mm(0.2, 0.0, 0.5, -0.5).std_at(400.0 / 3) == rc.STD_FLOOR
        assert make_mm(0.2, -0.01).mean_at(5000.0) < 0

    def test_single_ready_count_is_a_row_of_the_chain(self):
        mm, cfg = make_mm(0.3, 0.001, 0.05, 0.01), make_cfg(n_max=7, target_value=2.0)
        chain = rc.build_chain(12.0, mm, cfg)
        for j in range(1, 8):
            assert np.array_equal(rc.horizontal_transition_probs(j, 12.0, mm, cfg),
                                  chain.horizontal[j - 1])

    @pytest.mark.parametrize("n_max", [1, 2, 7, 60])
    @pytest.mark.parametrize("mu_pro, mu_dep, t_eva", LIFECYCLES + [(1e-18, 40.0, 2.0)])
    def test_vertical_tables_equal_per_table_pascal(self, n_max, mu_pro, mu_dep, t_eva):
        cfg = make_cfg(n_max=n_max, mu_pro=mu_pro, mu_dep=mu_dep, t_eva_s=t_eva)
        got, want = rc.cluster._vertical_law(cfg), reference_vertical_law(cfg)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_one_lifecycle_shares_its_read_only_tables(self):
        # the points of a sweep differ in rate and target, not lifecycle
        arrive, stay = rc.cluster._vertical_law(make_cfg(n_max=6, target_value=2.0))
        again = rc.cluster._vertical_law(make_cfg(n_max=6, target_value=5.0))
        assert again[0] is arrive and again[1] is stay
        assert not arrive.flags.writeable and not stay.flags.writeable
        other = make_cfg(n_max=6, target_value=2.0, mu_pro=0.05)
        got = rc.cluster._vertical_law(other)
        assert got[0] is not arrive
        assert all(np.array_equal(g, w) for g, w in zip(got, reference_vertical_law(other)))

    @pytest.mark.parametrize("lam, mm", [
        (1e300, make_mm(0.2, -0.001, 0.1, 0.01)),    # the quadratic overflows to -inf
        (1e300, make_mm(0.2, 0.001, 0.1, 0.01)),     # ... and to +inf
        (1e10, make_mm(0.2, 0.0, 0.1, 1e300)),       # finite mean, infinite spread
        (1e300, make_mm(1e10, -1e10, 0.1, 0.0)),     # inf - inf: a mean of nan
    ])
    def test_non_finite_law_raises_the_scalar_error(self, lam, mm):
        cfg = make_cfg(n_max=6, target_value=2.0)
        with pytest.raises(rc.ValidationError) as want:
            reference_horizontal(lam, mm, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rc.ValidationError) as got:
                rc.build_chain(lam, mm, cfg)
        assert str(got.value) == str(want.value)


class TestAggregateControlLaw:
    def test_chain_orders_offered_load_over_target(self):
        # the same point the simulator pins: the aggregate mean 0.2 * 35 = 7
        # over target 2 orders ceil(3.5) = 4 from every ready count, with
        # spread sqrt(j) * (0.05 + 0.02 * 35 / j) <= 0.45 at j = 4, more
        # than two spreads from the thresholds 6 and 8
        cfg = make_cfg(n_max=10, target_value=2.0)
        chain = rc.build_chain(35.0, make_mm(0.2, 0.0, 0.05, 0.02), cfg)
        st = rc.stationary_distribution(chain)
        assert st.marginal_ready.argmax() == 3
        assert float(st.marginal_ready @ np.arange(1, 11)) == pytest.approx(4.0, abs=0.1)


class TestChainAssembly:
    def test_rows_sum_to_one(self):
        cfg = make_cfg(n_max=6, target_value=2.0)
        chain = rc.build_chain(25.0, make_mm(0.2, 0.0, 0.1, 0.01), cfg)
        # the closed set is O x [min O, max O], O the orders any h[j] reaches
        orders = np.flatnonzero((chain.horizontal >= 1e-15).any(axis=0)) + 1
        want = [(i, j) for i in orders for j in range(orders[0], orders[-1] + 1)]
        assert chain.states.tolist() == [list(s) for s in want]
        assert chain.n_states == len(want)
        assert np.allclose(dense_block(chain).sum(axis=1), 1.0, atol=1e-10)
        assert np.all(dense_block(chain) >= 0.0)

    def test_single_state_chain(self):
        chain = rc.build_chain(5.0, make_mm(), make_cfg(n_max=1))
        assert dense_block(chain).tolist() == [[1.0]]

    def test_state_indexing_round_trip(self):
        chain = rc.build_chain(5.0, make_mm(), make_cfg(n_max=4))
        closed = {tuple(s) for s in chain.states.tolist()}
        for i in range(1, 5):
            for j in range(1, 5):
                if (i, j) in closed:
                    assert chain.state_of(chain.state_index(i, j)) == (i, j)
                else:
                    with pytest.raises(rc.ValidationError):
                        chain.state_index(i, j)
        with pytest.raises(rc.ValidationError):
            chain.state_index(0, 1)
        with pytest.raises(rc.ValidationError, match="state index -1 out of range"):
            chain.state_of(-1)

    def test_matches_hand_assembled_four_state_matrix(self):
        lam, tv = 3.0, 0.5
        cfg = make_cfg(n_max=2, target_value=tv)
        mm = make_mm(0.2, 0.0, 0.25, 0.0)
        chain = rc.build_chain(lam, mm, cfg)

        # factor tables built from first principles
        h = {}
        for j in (1, 2):
            # aggregate over j ready containers: mean j * 0.2 * (lam/j),
            # spread sqrt(j) * 0.25
            below = norm.cdf(tv, loc=0.2 * lam, scale=math.sqrt(j) * 0.25)
            h[j] = np.array([below, 1.0 - below])
        v = {
            1: np.array([[1.0, 0.0],
                         [1.0 - math.exp(-2.0 * cfg.t_eva_s), math.exp(-2.0 * cfg.t_eva_s)]]),
            2: np.array([[math.exp(-cfg.t_eva_s), 1.0 - math.exp(-cfg.t_eva_s)],
                         [0.0, 1.0]]),
        }
        expected = np.zeros((4, 4))
        for i in (1, 2):
            for j in (1, 2):
                for ip in (1, 2):
                    for jp in (1, 2):
                        s = (i - 1) * 2 + (j - 1)
                        sp = (ip - 1) * 2 + (jp - 1)
                        expected[s, sp] = h[j][ip - 1] * v[i][j - 1, jp - 1]
        assert chain.n_states == 4
        assert np.allclose(dense_block(chain), expected, atol=1e-10)

    def test_caller_arrays_are_copied_and_frozen(self):
        h = np.full((2, 2), 0.5)
        arrive = np.array([[1.0, 0.0], [0.5, 0.5]])
        stay = arrive.copy()
        chain = rc.ClusterChain(n_max=2, arrival_rate=1.0, horizontal=h, arrive=arrive,
                                stay=stay)
        h[0, 0] = arrive[1, 0] = stay[1, 0] = 0.0
        assert np.all(chain.horizontal == 0.5)
        assert chain.arrive.tolist() == chain.stay.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        # (1, 2) drains to 1 or stays at 2 with even odds, then orders either
        row = dense_block(chain)[chain.state_index(1, 2)]
        assert np.all(row == 0.25)
        built = rc.build_chain(5.0, make_mm(), make_cfg(n_max=2))
        for c in (chain, built):
            for arr in (c.horizontal, c.arrive, c.stay, c.states,
                        c.source, c.target, c.probability):
                assert not arr.flags.writeable

    @pytest.mark.parametrize("bad", [
        {"horizontal": np.full((2, 3), 0.5)},
        {"arrive": np.full((2, 3), 0.5)},
        {"horizontal": np.array([[1.5, -0.5], [0.5, 0.5]])},
        {"stay": np.full((2, 2), np.nan)},
        {"horizontal": np.array([[0.5, 0.6], [0.5, 0.5]])},
        {"stay": np.array([[0.5, 0.5], [0.5, 0.5]])},
    ])
    def test_factors_checked_once(self, bad):
        table = np.array([[1.0, 0.0], [0.5, 0.5]])
        factors = {"horizontal": np.full((2, 2), 0.5), "arrive": table, "stay": table}
        factors.update(bad)
        with pytest.raises(rc.ValidationError):
            rc.ClusterChain(n_max=2, arrival_rate=1.0, **factors)

    @pytest.mark.parametrize("lifecycle", LIFECYCLES)
    @pytest.mark.parametrize("n_max", [1, 2, 5, 12])
    def test_sparse_assembly_matches_dense_reference(self, n_max, lifecycle):
        mu_pro, mu_dep, t_eva_s = lifecycle
        cfg = make_cfg(n_max=n_max, target_value=2.0, mu_pro=mu_pro, mu_dep=mu_dep,
                       t_eva_s=t_eva_s)
        chain = rc.build_chain(3.0 * n_max, make_mm(0.2, 0.001, 0.1, 0.02), cfg)
        full = dense_chain_matrix(chain.horizontal, full_vertical(cfg))
        keys = closed_keys(chain)
        # the closed states' rows of the full chain never leave them
        assert np.all(np.delete(full[keys], keys, axis=1) == 0.0)
        want = full[np.ix_(keys, keys)]
        got = dense_block(chain)
        assert np.max(np.abs(got - want)) <= 1e-15
        # the same entries survive truncation
        assert np.array_equal(got > 0.0, want > 0.0)

    @pytest.mark.parametrize("lifecycle", LIFECYCLES)
    @pytest.mark.parametrize("n_max", [3, 12, 50])
    def test_closed_set_solve_matches_full_chain(self, n_max, lifecycle):
        mu_pro, mu_dep, t_eva_s = lifecycle
        cfg = make_cfg(n_max=n_max, target_value=2.0, mu_pro=mu_pro, mu_dep=mu_dep,
                       t_eva_s=t_eva_s)
        chain = rc.build_chain(4.0 * n_max, make_mm(0.2, 0.001, 0.1, 0.02), cfg)
        st = rc.stationary_distribution(chain)
        full = dense_chain_matrix(chain.horizontal, full_vertical(cfg))
        want = rc.solve_stationary(full)
        keys = closed_keys(chain)
        assert np.max(np.abs(st.pi - want[keys])) <= 1e-14
        assert np.all(np.delete(want, keys) == 0.0)
        assert st.n_transient == n_max ** 2 - recurrent_state_count(full)
        assert np.max(np.abs(st.marginal_ready - want.reshape(n_max, n_max).sum(axis=0))) <= 1e-14

    @pytest.mark.parametrize("batch", [1, 200, rc.cluster._ASSEMBLY_BATCH])
    @pytest.mark.parametrize("trapped", [False, True])
    def test_batches_of_ready_counts_give_one_pass_transitions(self, monkeypatch, batch,
                                                               trapped):
        # _assemble takes the ready counts in runs of bounded size; any
        # split gives the transitions, in order, of one run over them all,
        # trapped ready counts (every j orders 3, nothing arrives) included
        if trapped:
            arrive, _ = still_tables(4)
            horizontal = np.zeros((4, 4))
            horizontal[:, 2] = 1.0
            factors = (horizontal, arrive, rc.cluster._vertical_law(make_cfg(n_max=4))[1])
            assert rc.cluster._trapping_ready_counts(*factors, 3, 3).tolist() == [1, 2]
        else:
            chain = rc.build_chain(200.0, make_mm(0.2, 0.0, 0.1, 0.02),
                                   make_cfg(n_max=50, target_value=2.0))
            factors = (chain.horizontal, chain.arrive, chain.stay)
        monkeypatch.setattr(rc.cluster, "_ASSEMBLY_BATCH", 1 << 62)
        whole = rc.cluster._assemble(*factors)
        monkeypatch.setattr(rc.cluster, "_ASSEMBLY_BATCH", batch)
        split = rc.cluster._assemble(*factors)
        assert all(np.array_equal(s, w) for s, w in zip(split, whole))

    def test_assembly_never_builds_the_dense_matrix(self):
        # at n_max 50 the dense matrix alone is 2500^2 doubles, 50 MB
        cfg = make_cfg(n_max=50, target_value=2.0)
        mm = make_mm(0.2, 0.0, 0.1, 0.02)
        tracemalloc.start()
        try:
            st = rc.stationary_distribution(rc.build_chain(200.0, mm, cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert st.closed_states < 2500
        assert st.n_transient + st.recurrent_states == 2500
        assert peak < 25e6

    def test_closed_set_cost_does_not_follow_n_max_cubed(self):
        # the full chain at n_max 200 has 40,000 states and an 8e6-entry
        # vertical tensor (64 MB); the closed set needs neither
        cfg = make_cfg(n_max=200, target_value=2.0)
        mm = make_mm(0.2, 0.0, 0.1, 0.02)
        tracemalloc.start()
        try:
            st = rc.stationary_distribution(rc.build_chain(200.0, mm, cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert st.n_transient + st.recurrent_states == 40_000
        assert st.marginal_ready.sum() == pytest.approx(1.0, abs=1e-12)
        assert peak < 50e6

    def test_factorization_invariant(self):
        cfg = make_cfg(n_max=5, target_value=2.0)
        chain = rc.build_chain(18.0, make_mm(0.2, 0.001, 0.1, 0.02), cfg)
        vertical = full_vertical(cfg)
        p = dense_block(chain)
        for s, (i, j) in enumerate(chain.states.tolist()):
            for ip in range(1, 6):
                cols = [t for t, (io, _) in enumerate(chain.states.tolist()) if io == ip]
                readies = chain.states[cols, 1]
                vert = vertical[i - 1, j - 1, readies - 1]
                # ratio defined where the vertical factor has real mass
                # and the product entry survived truncation
                mask = (vert > 1e-9) & (p[s, cols] > 0.0)
                if not np.any(mask):
                    continue
                ratios = p[s, cols][mask] / vert[mask]
                assert ratios.max() - ratios.min() <= 1e-12


def random_digraph(seed: int) -> np.ndarray:
    """Adjacency of a seeded random digraph on 1-60 states, every state
    with an edge out.

    Seeds cycle through three shapes: closed classes (a cycle each, plus
    random edges inside; a one-state class is absorbing) fed by a
    transient part that may loop but always leaks, as a shuffle of
    labels; the same with the transient states labelled first, in chain
    order, and the first third of them leading back to the first, so
    that a search starting from the state most edges enter walks the
    chain; and a sparse random digraph with one to three edges per state.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 61))
    adj = np.zeros((n, n), dtype=bool)
    if seed % 3 == 2:
        for v in range(n):
            adj[v, rng.choice(n, size=int(rng.integers(1, 4)))] = True
        return adj
    n_closed = int(rng.integers(1, n + 1))
    labels = np.arange(n) if seed % 3 == 1 else rng.permutation(n)
    transient, closed = labels[:n - n_closed], labels[n - n_closed:]
    cuts = rng.choice(np.arange(1, n_closed), replace=False,
                      size=min(n_closed - 1, int(rng.integers(0, 8))))
    for cls in np.split(closed, np.sort(cuts)):
        adj[cls, np.roll(cls, -1)] = True
        adj[np.ix_(cls, cls)] |= rng.random((cls.size, cls.size)) < 0.15
    if transient.size:
        # each transient state leads to the next, the last to a closed one
        adj[transient, np.append(transient[1:], rng.choice(closed))] = True
        adj[transient[:, None], closed] |= rng.random((transient.size, n_closed)) < 0.05
        if seed % 3 == 0:
            adj[np.ix_(transient, transient)] |= rng.random((transient.size,) * 2) < 0.1
        elif seed % 3 == 1:
            adj[transient[1:1 + transient.size // 3], transient[0]] = True
    return adj


class TestRecurrenceStructure:
    def test_matches_strong_components_on_random_digraphs(self, monkeypatch):
        closures = []
        original = rc.cluster._closure

        def counting(*args):
            closures.append(1)
            return original(*args)

        monkeypatch.setattr(rc.cluster, "_closure", counting)
        several = absorbing = 0
        most_restarts = 0
        for seed in range(200):
            adj = random_digraph(seed)
            want = recurrent_classes(adj.astype(float))
            source, target = np.nonzero(adj)
            closures.clear()
            got = rc.cluster._recurrence_structure(source, target, adj.shape[0])
            assert [cls.tolist() for cls in got] == want, seed
            several += len(want) > 1
            absorbing += any(len(cls) == 1 for cls in want)
            # two closures per visited start state; one start per class
            # when no search restarts
            most_restarts = max(most_restarts, len(closures) // 2 - len(want))
        # the digraphs hold the cases the search must get right
        assert several >= 100 and absorbing >= 100 and most_restarts >= 20

    def test_search_starts_at_a_recurrent_state(self, monkeypatch):
        # the state most transitions enter is recurrent here, so one pair
        # of closures finds the class; from the lowest state, which is
        # transient, the search took three pairs
        closures = []
        original = rc.cluster._closure

        def counting(*args):
            closures.append(1)
            return original(*args)

        monkeypatch.setattr(rc.cluster, "_closure", counting)
        chain = rc.build_chain(200.0, make_mm(0.2, 0.0, 0.2, 0.01),
                               make_cfg(n_max=50, target_value=2.0))
        st = rc.stationary_distribution(chain)
        assert st.n_transient > 0 and len(closures) == 2

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_solve_names_the_oracles_classes(self, seed):
        adj = random_digraph(seed)
        rng = np.random.default_rng(seed)
        p = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
        p /= p.sum(axis=1, keepdims=True)
        want = recurrent_classes(p)
        if len(want) > 1:
            with pytest.raises(rc.NonErgodicError) as exc:
                rc.solve_stationary(p)
            assert exc.value.recurrent_classes == want
        else:
            pi = rc.solve_stationary(p)
            assert np.flatnonzero(pi).tolist() == want[0]
            assert float(np.max(np.abs(pi @ p - pi))) <= 1e-10


class TestStationarySolve:
    def test_single_state(self):
        pi = rc.solve_stationary(np.array([[1.0]]))
        assert pi.tolist() == [1.0]

    def test_symmetric_two_state(self):
        pi = rc.solve_stationary(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_sixteen_state_matches_power_iteration(self, seed):
        rng = np.random.default_rng(seed)
        p = random_stochastic_matrix(rng, 16)
        pi = rc.solve_stationary(p)
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert float(np.max(np.abs(pi @ p - pi))) <= 1e-10
        want = power_iteration_pi(p, steps=100_000)
        assert np.allclose(pi, want, atol=1e-9)

    def test_structure_analysed_once(self, monkeypatch):
        calls = []
        original = rc.cluster._recurrence_structure

        def counting(source, target, n):
            calls.append(n)
            return original(source, target, n)

        monkeypatch.setattr(rc.cluster, "_recurrence_structure", counting)
        # the eight-transient-state chain of the test below, whose closed
        # set is the one state (2, 2)
        chain = rc.build_chain(15.0, make_mm(0.2), make_cfg(n_max=3, target_value=1.9))
        st = rc.stationary_distribution(chain)
        assert calls == [1]
        assert st.n_transient == 8

    def test_pi_reproduced_by_matrix_powers(self):
        cfg = make_cfg(n_max=4, target_value=2.0)
        chain = rc.build_chain(16.0, make_mm(0.2, 0.0, 0.2, 0.01), cfg)
        st = rc.stationary_distribution(chain)
        p = dense_block(chain)
        v = st.pi.copy()
        for _ in range(100):
            v = v @ p
        assert np.allclose(v, st.pi, atol=1e-9)

    @pytest.mark.parametrize("n_max, lam", [(4, 16.0), (12, 60.0)])
    def test_residual_is_the_solved_chains(self, n_max, lam):
        chain = rc.build_chain(lam, make_mm(0.2, 0.0, 0.2, 0.01),
                               make_cfg(n_max=n_max, target_value=2.0))
        st = rc.stationary_distribution(chain)
        want = float(np.max(np.abs(st.pi @ dense_block(chain) - st.pi)))
        assert math.isfinite(st.residual) and st.residual <= 1e-10
        assert abs(st.residual - want) <= 1e-15

    def test_multiple_recurrent_classes_rejected(self):
        p = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.solve_stationary(p)
        assert len(exc.value.recurrent_classes) == 2

    def test_non_ergodic_message_summarises_large_classes(self):
        # one line per class with its size and index range; the full
        # classes stay on the exception
        rng = np.random.default_rng(11)
        p = np.zeros((200, 200))
        p[:100, :100] = random_stochastic_matrix(rng, 100)
        p[100:, 100:] = random_stochastic_matrix(rng, 100)
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.solve_stationary(p)
        message = str(exc.value)
        assert len(message) < 500
        assert message.count("100 states") == 2
        assert "indices 0-99" in message and "indices 100-199" in message
        assert exc.value.recurrent_classes == [list(range(100)), list(range(100, 200))]

    def test_non_ergodic_chain_names_order_ready_states(self):
        # every order repeats the ready count and no container arrives or
        # leaves, so (i, j) moves to (j, j): every (j, j) absorbs
        arrive, stay = still_tables(4)
        chain = rc.ClusterChain(n_max=4, arrival_rate=1.0, horizontal=np.eye(4),
                                arrive=arrive, stay=stay)
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.stationary_distribution(chain)
        assert "(1, 1)" in str(exc.value)
        assert "(2, 2)" in str(exc.value)
        assert sorted(exc.value.recurrent_classes) == [[(j, j)] for j in range(1, 5)]

    def test_absorbing_state_names_its_cause(self):
        # the mean rho - 0.01 rho^2 is -200 at rho 200, so with one ready
        # container the aggregate orders 1 and (1, 1) absorbs: the message
        # says so, read from the chain's order vector at ready count 1
        mm = make_mm(1.0, -0.01, 0.05, 0.0)
        chain = rc.build_chain(200.0, mm, make_cfg(n_max=8, target_value=23.0))
        assert chain.horizontal[0, 0] == 1.0
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.stationary_distribution(chain)
        lines = str(exc.value).splitlines()
        assert "  1 state: (1, 1), ready 1 orders 1 with probability 1" in lines
        assert [(1, 1)] in exc.value.recurrent_classes
        # a ready count trapped below its order names the order it keeps
        arrive, stay = still_tables(3)
        horizontal = np.zeros((3, 3))
        horizontal[:, 2] = 1.0
        chain = rc.ClusterChain(n_max=3, arrival_rate=1.0, horizontal=horizontal,
                                arrive=arrive, stay=stay)
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.stationary_distribution(chain)
        assert "1 state: (3, 1), ready 1 orders 3 with probability 1" in str(exc.value)

    def test_trapped_ready_counts_name_their_classes(self):
        # every j orders 3 with certainty, nothing arrives, surplus drains:
        # ready counts 1 and 2 can never reach the order, while 4 drains
        # into the closed set {(3, 3)}
        arrive, _ = still_tables(4)
        horizontal = np.zeros((4, 4))
        horizontal[:, 2] = 1.0
        drain = rc.cluster._vertical_law(make_cfg(n_max=4))[1]
        chain = rc.ClusterChain(n_max=4, arrival_rate=1.0, horizontal=horizontal,
                                arrive=arrive, stay=drain)
        assert chain.states.tolist() == [[3, 1], [3, 2], [3, 3]]
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.stationary_distribution(chain)
        assert sorted(exc.value.recurrent_classes) == [[(3, 1)], [(3, 2)], [(3, 3)]]

    def test_trap_check_reads_the_truncated_products(self):
        # an arrival has chance 1.5e-15, but every order has chance 0.5,
        # so each product is 7.5e-16 and truncated: ready count 1 traps
        # below the orders 2 and 3, and 2 is never provisioned to 3
        arrive = np.array([[1.0, 0.0, 0.0], [1.0 - 1.5e-15, 1.5e-15, 0.0],
                           [1.0 - 1.5e-15, 1.5e-15, 0.0]])
        stay = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.25, 0.5, 0.25]])
        horizontal = np.tile([0.0, 0.5, 0.5], (3, 1))
        chain = rc.ClusterChain(n_max=3, arrival_rate=1.0, horizontal=horizontal,
                                arrive=arrive, stay=stay)
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.stationary_distribution(chain)
        assert sorted(exc.value.recurrent_classes) == [[(2, 1), (3, 1)], [(2, 2), (3, 2)]]
        with pytest.raises(rc.NonErgodicError) as full_exc:
            rc.solve_stationary(dense_chain_matrix(horizontal, tables_tensor(arrive, stay)))
        assert len(full_exc.value.recurrent_classes) == 2

    def test_slow_provisioning_traps_below_every_order(self, ref_bundle):
        # the README point with provisioning too slow to leave a trace in
        # one period: ready count 1 lies below every order and 2 is never
        # drained, so both keep their orders 2..4 for ever
        cfg = make_cfg(n_max=10, target_value=5.0, mu_pro=1e-18)
        chain = rc.build_chain(60.0, ref_bundle.metric, cfg)
        with pytest.raises(rc.NonErgodicError) as exc:
            rc.stationary_distribution(chain)
        assert sorted(exc.value.recurrent_classes) == [
            [(2, 1), (3, 1), (4, 1)], [(2, 2), (3, 2), (4, 2)]]
        full = dense_chain_matrix(chain.horizontal, full_vertical(cfg))
        with pytest.raises(rc.NonErgodicError) as full_exc:
            rc.solve_stationary(full)
        assert len(full_exc.value.recurrent_classes) == 2

    def test_transient_states_counted_and_carry_zero_mass(self):
        # degenerate sigma makes the order deterministic: the aggregate
        # 0.2 * 15 = 3.0 orders ceil(3.0 / 1.9) = 2 from every j, so (2,2)
        # absorbs and the other eight states are transient
        cfg = make_cfg(n_max=3, target_value=1.9)
        chain = rc.build_chain(15.0, make_mm(0.2), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = rc.stationary_distribution(chain)
        assert st.n_transient == 8
        assert st.recurrent_states == 1
        # the other states lie outside the closed set and carry no mass
        assert st.states.tolist() == [[2, 2]]
        assert st.pi[chain.state_index(2, 2)] == pytest.approx(1.0, abs=1e-12)
        assert st.marginal_ready.tolist() == [0.0, 1.0, 0.0]

    def test_marginal_ready_sums_over_orders(self):
        cfg = make_cfg(n_max=3, target_value=2.0)
        chain = rc.build_chain(10.0, make_mm(0.2, 0.0, 0.3, 0.01), cfg)
        st = rc.stationary_distribution(chain)
        grid = np.zeros((3, 3))
        grid[st.states[:, 0] - 1, st.states[:, 1] - 1] = st.pi
        assert np.allclose(st.marginal_ready, grid.sum(axis=0), atol=1e-15)

    def test_inaccurate_solve_raises_without_retry(self, monkeypatch):
        p = random_stochastic_matrix(np.random.default_rng(3), 6)
        monkeypatch.setattr(rc.cluster.np.linalg, "solve", lambda a, b: np.ones(b.size))
        with pytest.raises(rc.NumericalError, match="residual"):
            rc.solve_stationary(p)

    def test_singular_solve_raises(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(rc.cluster.np.linalg, "solve", singular)
        p = random_stochastic_matrix(np.random.default_rng(3), 6)
        with pytest.raises(rc.NumericalError, match="singular"):
            rc.solve_stationary(p)

    def test_rejects_non_stochastic_matrix(self):
        with pytest.raises(rc.ValidationError):
            rc.solve_stationary(np.array([[0.7, 0.7], [0.5, 0.5]]))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(rc.ValidationError, match=r"must be square, got shape \(2, 3\)"):
            rc.solve_stationary(np.full((2, 3), 1.0 / 3.0))

    @pytest.mark.parametrize("bad", [-1e-13, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_entry(self, bad):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        p[0, 1] = bad
        p[0, 0] = 1.0 - bad if math.isfinite(bad) else 0.5
        with pytest.raises(rc.ValidationError, match="entries must be finite and >= -1e-14"):
            rc.solve_stationary(p)
