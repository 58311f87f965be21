"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths under test:
the matrix exponential is Taylor series with repeated squaring of the
provisioning process's rate matrix (the package uses the closed-form
binomial law), the stationary oracle is plain power iteration (the
package solves a linear system), the order-probability oracle is Monte
Carlo, the order vectors are built one ready count and one threshold at
a time through the scalar API (the package evaluates every ready count
in one array pass), the binomial tables are built one at a time (the
package fills both in one loop), the positive-part expectation is adaptive quadrature (the package
uses the closed form) and the closed form one Python float at a time
(the package evaluates every ready count in one array pass), the recurrent classes come from scipy's strongly
connected components (the package searches forward and backward
closures), and the chain's matrix is assembled densely over all n_max^2
states, one Kronecker row per state (the package assembles a list of
transitions on the closed set of states from the factors' nonzeros).
The reference event loop scans every container slot, sorts the ready
ones by birth to route each arrival, and reads its random numbers one
numpy scalar at a time (the package keeps a stack of ready containers,
routes no arrival under infinite-server service, keeps running window
totals and reads random blocks as Python lists).
It keeps its heap of (departure time, arrival index, slot, arrival
time) tuples on purpose: the package keeps no departure order and
assigns each job, as its block is drawn, to the tick that first sees it
gone, so the heap is the independent statement of which job leaves
next, equal departure times included, which leave in arrival order.
Under infinite-server service it keeps each departed job's response time
with its arrival index and adds a second's, at its tick, and those
after warmup, at the end, in arrival order.
The windowed metric's exact law under infinite-server service comes
from queueing theory (the package fits it from a trace).
The fit oracle is the fit as first written, in three functions with
each prefix's Gram matrix formed twice (the package folds them into one
loop that forms it once); it is not independent, so it pins the
package's fit to the bit.
The trace reader splits the file into lines and parses every token with
float, one line at a time, and checks the row rules one row at a time
(the package reads the rows with numpy's parser, checks the rules in
one array pass and scans lines only when numpy refuses the file).
"""

import math
from heapq import heappop, heappush

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from replicast.config import (_DIST_DETERMINISTIC, METRIC_RPS, TRACE_HEADER,
                              WORKLOAD_PROCESSOR_SHARING)
from replicast.errors import InsufficientDataError, TraceParseError, ValidationError
from replicast.metric_model import GaussianDist, LawFit, observed_value_distribution

# The reference event loop's random block size and sentinel.
_BLOCK = 4096
_INF = math.inf


def build_rate_matrix(i_target: int, cfg) -> np.ndarray:
    """Generator of the provisioning process while the order is i_target.

    States are ready counts 1..n_max.  Below target, the (i_target - j)
    pending containers provision in parallel at mu_pro each; above
    target, the (j - i_target) surplus containers drain at mu_dep each.
    The target itself is absorbing.
    """
    n = cfg.n_max
    if not 1 <= i_target <= n:
        raise ValidationError(f"target ready count must be in [1, {n}], got {i_target}")
    q = np.zeros((n, n), dtype=np.float64)
    for j in range(1, n + 1):
        if j < i_target:
            rate = (i_target - j) * cfg.mu_pro
            q[j - 1, j] = rate
            q[j - 1, j - 1] -= rate
        elif j > i_target:
            rate = (j - i_target) * cfg.mu_dep
            q[j - 1, j - 2] = rate
            q[j - 1, j - 1] -= rate
    return q


def taylor_expm(a: np.ndarray, t: float) -> np.ndarray:
    """exp(a*t) via scaling-and-squaring of a plain Taylor series."""
    m = np.asarray(a, dtype=float) * t
    n = m.shape[0]
    norm = float(np.max(np.abs(m).sum(axis=1)))
    s = max(0, int(math.ceil(math.log2(norm))) + 4) if norm > 0 else 0
    m = m / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ m / k
        out = out + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(s):
        out = out @ out
    return out


def power_iteration_pi(p: np.ndarray, steps: int = 100_000) -> np.ndarray:
    """Stationary vector by brute-force repeated multiplication."""
    n = p.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(steps):
        v = v @ p
    return v / v.sum()


def mc_order_probs(mean: float, std: float, tv: float, n_max: int,
                   n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo of clamp(ceil(X/TV), 1, n_max), X ~ N(mean, std)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(mean, std, size=n_samples)
    orders = np.clip(np.ceil(x / tv), 1, n_max).astype(np.int64)
    counts = np.bincount(orders, minlength=n_max + 1)[1:]
    return counts / float(n_samples)


def scalar_cdf_probs(dist, tv: float, n_max: int) -> np.ndarray:
    """order_probabilities with one scalar GaussianDist.cdf call per order."""
    cdf = np.array([dist.cdf(i * tv) for i in range(1, n_max)])
    p = np.empty(n_max)
    p[0] = cdf[0]
    p[1:-1] = np.diff(cdf)
    p[-1] = 1.0 - cdf[-1]
    np.clip(p, 0.0, None, out=p)
    return p / p.sum()


def reference_horizontal(arrival_rate: float, model, cfg) -> np.ndarray:
    """The chain's order vectors, one ready count j at a time: the scalar
    per-container law at rate arrival_rate / j, its aggregate
    GaussianDist(j * mean, sqrt(j) * std) and one cdf call per threshold."""
    n = cfg.n_max
    out = np.empty((n, n))
    for j in range(1, n + 1):
        per = observed_value_distribution(model, arrival_rate / j)
        dist = GaussianDist(j * per.mean, math.sqrt(j) * per.std)
        out[j - 1] = scalar_cdf_probs(dist, cfg.target_value, n) if n > 1 else 1.0
    return out


def binomial_rows(k_max: int, success: float, failure: float) -> np.ndarray:
    """Row k holds the Binomial(k, success) pmf over 0..k, by Pascal's rule."""
    rows = np.zeros((k_max + 1, k_max + 1))
    rows[0, 0] = 1.0
    for k in range(1, k_max + 1):
        rows[k, :k] = failure * rows[k - 1, :k]
        rows[k, 1:k + 1] += success * rows[k - 1, :k]
    return rows


def reference_vertical_law(cfg) -> tuple:
    """The (arrive, stay) binomial tables, each built by its own loop."""
    n, t = cfg.n_max, cfg.t_eva_s
    arrive = binomial_rows(n - 1, -math.expm1(-cfg.mu_pro * t), math.exp(-cfg.mu_pro * t))
    stay = binomial_rows(n - 1, math.exp(-cfg.mu_dep * t), -math.expm1(-cfg.mu_dep * t))
    return arrive, stay


def scalar_positive_mean(mean: float, std: float) -> float:
    """E[max(X, 0)] for X ~ N(mean, std) by the closed form on Python
    floats, one law at a time."""
    z = mean / std
    phi = (1.0 / math.sqrt(2.0 * math.pi)) * math.exp(-0.5 * z * z) if abs(z) < 40.0 else 0.0
    big_phi = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return mean * big_phi + std * phi


def quad_positive_mean(mean: float, std: float) -> float:
    """Integral of x * N(mean, std) density over [0, inf)."""
    norm = std * math.sqrt(2.0 * math.pi)

    def integrand(x):
        return x * math.exp(-0.5 * ((x - mean) / std) ** 2) / norm

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
    return val


def random_stochastic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense random row-stochastic matrix (strictly positive, ergodic)."""
    p = rng.uniform(0.01, 1.0, size=(n, n))
    return p / p.sum(axis=1, keepdims=True)


def dense_chain_matrix(horizontal: np.ndarray, vertical: np.ndarray,
                       truncate_below: float = 1e-15) -> np.ndarray:
    """Row (i, j) = kron(horizontal[j], vertical[i, j]), entries below
    truncate_below zeroed, each row rescaled to sum to one."""
    n = horizontal.shape[0]
    p = np.empty((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[i * n + j] = np.kron(horizontal[j], vertical[i, j])
    p[p < truncate_below] = 0.0
    return p / p.sum(axis=1, keepdims=True)


def dense_block(chain) -> np.ndarray:
    """The chain's transitions on its closed states as a dense |S| x |S|
    matrix: entry [source[e], target[e]] = probability[e]."""
    p = np.zeros((chain.n_states, chain.n_states))
    p[chain.source, chain.target] = chain.probability
    return p


def recurrent_classes(p: np.ndarray) -> list:
    """The closed strongly connected components of p's graph, each as a
    sorted list of states, the classes sorted by their first state."""
    graph = csr_matrix(p > 0.0)
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    leaves = set(labels[rows[labels[rows] != labels[cols]]].tolist())
    return sorted(np.flatnonzero(labels == c).tolist() for c in range(n_comp)
                  if c not in leaves)


def recurrent_state_count(p: np.ndarray) -> int:
    """States in a closed strongly connected component of p's graph."""
    return sum(len(cls) for cls in recurrent_classes(p))


def reference_run_simulation(sim_cfg, arr_rng, svc_rng, prov_rng, route_rng):
    """The event loop as first written: every slot scanned for routing,
    scale-down and the monitor, each arrival routed as it comes, the
    window re-summed each second, and random numbers read one numpy
    scalar at a time.  The package's ``_kernels.run_simulation`` must
    return exactly the same tuple."""
    cfg = sim_cfg.autoscaler
    rps = cfg.metric_kind == METRIC_RPS
    tv, n_max, t_eva = cfg.target_value, cfg.n_max, cfg.t_eva_s
    window_len, mu_pro, mu_dep = cfg.window_length, cfg.mu_pro, cfg.mu_dep
    sharing = sim_cfg.workload.kind == WORKLOAD_PROCESSOR_SHARING
    deterministic = sim_cfg.workload.distribution == _DIST_DETERMINISTIC
    wl_mean = sim_cfg.workload.mean_s
    lam, duration, warmup = sim_cfg.arrival_rate, sim_cfg.duration_s, sim_cfg.warmup_s
    init_replicas = sim_cfg.initial_replicas

    # Random blocks: a stream refills when its index reaches _BLOCK, so
    # the service and provisioning streams draw nothing until first used.
    arr_exp = arr_rng.standard_exponential(_BLOCK)
    svc_exp = np.empty(0, dtype=np.float64)
    svc_i = _BLOCK
    svc_uni = np.empty(0, dtype=np.float64)
    svc_u = _BLOCK
    prov_exp = np.empty(0, dtype=np.float64)
    prov_i = _BLOCK
    route_uni = np.empty(0, dtype=np.float64)
    route_i = _BLOCK

    # Container slots.  state: 0 free, 1 ready, 2 draining.  Birth order
    # decides where an arrival goes and which container a scale-down
    # removes.  A provisioned container takes the lowest free slot, or a
    # new one at the end.
    state = [1] * init_replicas
    conc = [0] * init_replicas
    arr_count = [0] * init_replicas
    birth = list(range(init_replicas))
    # Arrival times of each slot's in-flight jobs (processor sharing only).
    ps_times = [[] for _ in range(init_replicas)]
    busy = 0
    birth_seq = init_replicas
    j_ready = init_replicas
    order = init_replicas

    # Pending completions (infinite server only): (time, arrival index,
    # slot, arrival time).  The sentinel never fires, so heap[0] always
    # exists.
    heap = [(_INF, -1, -1, 0.0)]
    # (arrival index, response time) of the jobs departed in the open
    # second and after warmup (infinite server only).
    sec_jobs = []
    pw_jobs = []

    # Stable window of per-second samples of the aggregate metric over
    # ready containers (in-flight sum for cc, arrival count for rps).
    wbuf = [0.0] * window_len
    w_count = 0
    w_idx = 0
    ov = 0.0

    tick_ready = []
    tick_ov = []
    tick_rt = []
    tick_carried = []

    arrivals = 0
    completions = 0
    rt_sum_pw = 0.0
    completions_pw = 0
    rt_sum_sec = 0.0
    n_sec = 0
    last_rt = wl_mean  # gap-fill seed until the first completion
    area_replica = 0.0
    j_since = 0.0

    t_arrival = float(arr_exp[0]) / lam
    arr_i = 1
    t_monitor = 1.0
    t_eval = t_eva
    t_prov = _INF
    t_ps_dep = _INF
    # Earliest of the three control events, kept current by the branch
    # that moves any of them.
    t_ctrl = min(t_monitor, t_eval)

    while True:
        if sharing:
            t_dep = t_ps_dep
        else:
            t_dep = heap[0][0]

        if t_dep <= t_ctrl and t_dep <= t_arrival:
            # --- departure ---
            t = t_dep
            if t > duration:
                break
            if sharing:
                # Pick the departing container uniformly among busy ones,
                # then the finishing job uniformly within it: exponential
                # demands make every busy container equally likely to
                # produce the next departure regardless of its job count.
                if svc_u + 2 > _BLOCK:
                    svc_uni = svc_rng.random(_BLOCK)
                    svc_u = 0
                pick = int(float(svc_uni[svc_u]) * busy)
                idx_u = float(svc_uni[svc_u + 1])
                svc_u += 2
                if pick >= busy:
                    pick = busy - 1
                slot = -1
                seen = 0
                for k in range(len(conc)):
                    if conc[k] > 0:
                        if seen == pick:
                            slot = k
                            break
                        seen += 1
                jobs = ps_times[slot]
                c = conc[slot]
                idx = int(idx_u * c)
                if idx >= c:
                    idx = c - 1
                rt = t - jobs[idx]
                jobs[idx] = jobs[c - 1]
                jobs.pop()
                conc[slot] = c - 1
                if c == 1:
                    busy -= 1
                    if state[slot] == 2:
                        state[slot] = 0
                        birth[slot] = -1
                        arr_count[slot] = 0
                if busy > 0:
                    if svc_i == _BLOCK:
                        svc_exp = svc_rng.standard_exponential(_BLOCK)
                        svc_i = 0
                    t_ps_dep = t + float(svc_exp[svc_i]) * wl_mean / busy
                    svc_i += 1
                else:
                    t_ps_dep = _INF
            else:
                done = heappop(heap)
                slot = done[2]
                rt = t - done[3]
                c = conc[slot] - 1
                conc[slot] = c
                if c == 0 and state[slot] == 2:
                    state[slot] = 0
                    birth[slot] = -1
                    arr_count[slot] = 0
            completions += 1
            n_sec += 1
            if t > warmup:
                completions_pw += 1
            if sharing:
                rt_sum_sec += rt
                if t > warmup:
                    rt_sum_pw += rt
            else:
                # Infinite-server response times add in arrival order: kept
                # with their arrival index until the tick and the end.
                sec_jobs.append((done[1], rt))
                if t > warmup:
                    pw_jobs.append((done[1], rt))

        elif t_ctrl <= t_arrival:
            if t_ctrl > duration:
                break
            t_from = -1.0
            if t_monitor <= t_ctrl:
                # --- per-second monitor ---
                sample = 0.0
                for k in range(len(state)):
                    if state[k] == 1:
                        if rps:
                            sample += arr_count[k]
                        else:
                            sample += conc[k]
                    arr_count[k] = 0
                wbuf[w_idx] = sample
                if w_count < window_len:
                    w_count += 1
                w_idx += 1
                if w_idx == window_len:
                    w_idx = 0
                # Full re-sum: 60 adds per simulated second buys exactness.
                w_sum = 0.0
                for k in range(w_count):
                    w_sum += wbuf[k]
                ov = w_sum / w_count

                for _, rt in sorted(sec_jobs):
                    rt_sum_sec += rt
                sec_jobs = []
                tick_ready.append(j_ready)
                # Reported per container: the aggregate window over the
                # current ready count.
                tick_ov.append(ov / j_ready)
                if n_sec > 0:
                    last_rt = rt_sum_sec / n_sec
                    tick_carried.append(0)
                else:
                    tick_carried.append(1)
                tick_rt.append(last_rt)
                rt_sum_sec = 0.0
                n_sec = 0
                t_monitor += 1.0

            elif t_eval <= t_ctrl:
                # --- scale evaluator ---
                # Knative's KPA: the aggregate windowed metric over the
                # per-container target, clamped to [1, n_max]; the top clamp
                # comes first, as the ceiling of an infinite ratio raises.
                q = ov / tv
                desired = n_max if q > n_max else max(1, math.ceil(q))
                if desired != order:
                    order = desired
                    t_from = t_eval
                t_eval += t_eva

            else:
                # --- provisioning engine: one container becomes ready or leaves ---
                t = t_prov
                if t > warmup:
                    lo = j_since if j_since > warmup else warmup
                    area_replica += j_ready * (t - lo)
                j_since = t
                if j_ready < order:
                    slot = -1
                    for k in range(len(state)):
                        if state[k] == 0:
                            slot = k
                            break
                    if slot == -1:
                        slot = len(state)
                        state.append(1)
                        conc.append(0)
                        arr_count.append(0)
                        birth.append(birth_seq)
                        ps_times.append([])
                    else:
                        # A free slot already holds no jobs and no arrivals.
                        state[slot] = 1
                        birth[slot] = birth_seq
                    birth_seq += 1
                    j_ready += 1
                else:
                    # Graceful scale-down of the newest ready container: it
                    # finishes in-flight requests but gets no new ones.
                    slot = -1
                    newest = -1
                    for k in range(len(state)):
                        if state[k] == 1 and birth[k] > newest:
                            newest = birth[k]
                            slot = k
                    if conc[slot] == 0:
                        state[slot] = 0
                        birth[slot] = -1
                        arr_count[slot] = 0
                    else:
                        state[slot] = 2
                    j_ready -= 1
                t_from = t

            if t_from >= 0.0:
                # Next provisioning event after a new order or a finished
                # one: each missing container provisions at mu_pro, each
                # surplus one leaves at mu_dep.
                if j_ready == order:
                    t_prov = _INF
                else:
                    if prov_i == _BLOCK:
                        prov_exp = prov_rng.standard_exponential(_BLOCK)
                        prov_i = 0
                    if j_ready < order:
                        rate = (order - j_ready) * mu_pro
                    else:
                        rate = (j_ready - order) * mu_dep
                    t_prov = t_from + float(prov_exp[prov_i]) / rate
                    prov_i += 1
            t_ctrl = min(t_monitor, t_eval, t_prov)

        else:
            # --- arrival: to the ready container at position floor(u * j)
            # in birth order ---
            t = t_arrival
            if t > duration:
                break
            ready = sorted((birth[k], k) for k in range(len(state)) if state[k] == 1)
            if route_i == _BLOCK:
                route_uni = route_rng.random(_BLOCK)
                route_i = 0
            best = ready[int(float(route_uni[route_i]) * len(ready))][1]
            route_i += 1
            best_c = conc[best]
            arrivals += 1
            arr_count[best] += 1
            conc[best] = best_c + 1
            if sharing:
                ps_times[best].append(t)
                if best_c == 0:
                    busy += 1
                    if svc_i == _BLOCK:
                        svc_exp = svc_rng.standard_exponential(_BLOCK)
                        svc_i = 0
                    t_ps_dep = t + float(svc_exp[svc_i]) * wl_mean / busy
                    svc_i += 1
            else:
                if deterministic:
                    svc = wl_mean
                else:
                    if svc_i == _BLOCK:
                        svc_exp = svc_rng.standard_exponential(_BLOCK)
                        svc_i = 0
                    svc = float(svc_exp[svc_i]) * wl_mean
                    svc_i += 1
                heappush(heap, (t + svc, arrivals, best, t))
            if arr_i == _BLOCK:
                arr_exp = arr_rng.standard_exponential(_BLOCK)
                arr_i = 0
            t_arrival = t + float(arr_exp[arr_i]) / lam
            arr_i += 1

    for _, rt in sorted(pw_jobs):
        rt_sum_pw += rt

    # Close the replica-count integral at the horizon.
    if duration > warmup:
        lo = j_since if j_since > warmup else warmup
        if duration > lo:
            area_replica += j_ready * (duration - lo)

    in_flight = 0
    for k in range(len(conc)):
        in_flight += conc[k]

    return (tick_ready, tick_ov, tick_rt, tick_carried,
            area_replica, rt_sum_pw, completions_pw,
            arrivals, completions, in_flight)


def result_repr(result) -> str:
    """The repr of an event loop's result with its arrays as lists, so the
    package's loop and the reference compare as text: repr is exact for
    floats and tells 1 from 1.0 and 0.0 from -0.0."""
    return repr(tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in result))


def exact_metric_law(workload, metric_kind: str, window: int) -> tuple:
    """Mean and variance of one container's stable-window metric at
    per-container rate rho under an infinite-server workload, per unit of
    rho: the law is N(m * rho, v * rho) for the returned (m, v).

    The window averages `window` per-second samples.  Under cc a sample
    is the in-flight count, a stationary M/G/inf count with mean and
    variance rho * S, whose autocorrelation at a lag of k seconds is
    r(k) = exp(-k / S) for exponential service and (1 - k / S)^+ for
    deterministic service; the average's variance is rho * S * kappa / W
    with kappa = 1 + 2 * sum_{1 <= k < W} (1 - k / W) * r(k).  Under rps
    a sample is the second's arrival count, independent Poisson(rho), so
    the average has mean rho and variance rho / W.
    """
    if metric_kind == METRIC_RPS:
        return 1.0, 1.0 / window
    s = workload.mean_s
    k = np.arange(1.0, window)
    if workload.distribution == _DIST_DETERMINISTIC:
        r = np.maximum(1.0 - k / s, 0.0)
    else:
        r = np.exp(-k / s)
    kappa = 1.0 + 2.0 * float(np.sum((1.0 - k / window) * r))
    return s, s * kappa / window


def _reference_solve_normal_equations(design, y):
    gram = design.T @ design
    rhs = design.T @ y
    scale = float(np.sqrt(np.prod(np.diag(gram)))) if np.all(np.diag(gram) > 0) else 0.0
    det = float(np.linalg.det(gram))
    if scale == 0.0 or abs(det) < 1e-10 * scale:
        raise InsufficientDataError(
            "design matrix is rank deficient; trace needs more distinct positive rates")
    return np.linalg.solve(gram, rhs)


def _reference_fit_polynomial_terms(design, y):
    n, k = design.shape
    y_scale = max(1.0, float(np.max(np.abs(y)))) if n else 1.0
    coef_out = np.zeros(k)

    def fit_prefix(p):
        sub = design[:, :p]
        coef = _reference_solve_normal_equations(sub, y)
        resid = y - sub @ coef
        return coef, float(resid @ resid)

    coef, ssr = fit_prefix(1)
    kept = 1
    for p in range(2, k + 1):
        cand, cand_ssr = fit_prefix(p)
        dof = n - p
        if dof > 0:
            sigma2 = cand_ssr / dof
            sub = design[:, :p]
            cov_last = float(np.linalg.inv(sub.T @ sub)[p - 1, p - 1])
            se = math.sqrt(max(sigma2 * cov_last, 0.0))
            significant = abs(cand[p - 1]) > 4.0 * se + 1e-12 * y_scale
        else:
            significant = ssr > n * (1e-12 * y_scale) ** 2
        if not significant:
            break
        coef, ssr = cand, cand_ssr
        kept = p
    coef_out[:kept] = coef
    return coef_out


def reference_fit_law(rates, y, powers) -> LawFit:
    """fit_law as first written: the normal equations of each nested
    prefix solved by one helper, the prefixes pruned by another, which
    forms each Gram matrix twice and rounds with a tolerance of its own.
    Its r2 of an exactly or nearly constant y follows an older rule."""
    rho_max = float(rates.max())
    u = rates / rho_max
    design = np.column_stack([u ** p for p in powers])
    coef = _reference_fit_polynomial_terms(design, y)
    residuals = y - design @ coef
    mse = float(np.mean(residuals ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(residuals ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-12 * max(1.0, float(np.sum(y ** 2))) else 0.0
    coefficients = tuple(float(c) / math.prod([rho_max] * p) for p, c in zip(powers, coef))
    by_power = dict(zip(powers, coefficients))
    c0, c1, c2 = (by_power.get(p, 0.0) for p in range(3))
    candidates = [(0.0, c0), (rho_max, c0 + c1 * rho_max + c2 * rho_max * rho_max)]
    if c2 > 0:
        vertex = -c1 / (2.0 * c2)
        if 0.0 < vertex < rho_max:
            candidates.append((vertex, c0 + c1 * vertex + c2 * vertex * vertex))
    min_rho, min_value = min(candidates, key=lambda c: c[1])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    return LawFit(coefficients, rho_max, mse, r2, min_rho, min_value, tol)


_TRACE_NAMES = TRACE_HEADER.split(",")


def reference_first_invalid_row(rows):
    """(index, message) of the first (rate, observed, rt) row that breaks a
    trace rule, checked one row and one rule at a time, or None."""
    for i, (rate, obs, rt) in enumerate(rows):
        for name, v in zip(_TRACE_NAMES, (rate, obs, rt)):
            if not math.isfinite(v):
                return i, f"{name} must be finite, got {v!r}"
        if rate < 0:
            return i, f"per_container_rate must be >= 0, got {rate!r}"
        if obs < 0:
            return i, f"observed_metric must be >= 0, got {obs!r}"
        if rate > 0 and not rt > 0:
            return i, ("mean_response_time_s must be > 0 when "
                       f"per_container_rate > 0, got {rt!r}")
    return None


def reference_parse_trace(path) -> tuple:
    """(rates, observed, response_times) of a trace CSV, read line by line.

    The file is split on "\\n" (after Python's universal newlines), one
    trailing empty line is dropped and every token is parsed with float.
    A bad line raises TraceParseError naming it, unless a row rule is
    broken on an earlier line, which is then named instead; a trace with
    fewer than two distinct rates raises InsufficientDataError.  A byte
    that is not UTF-8 reads as a lone surrogate, which no number holds.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise TraceParseError(f"{path}: empty file, expected header {TRACE_HEADER!r}")
    if lines[0].strip() != TRACE_HEADER:
        raise TraceParseError(f"{path}: line 1: expected header {TRACE_HEADER!r}, got {lines[0]!r}")
    rows = []

    def fail(lineno, message):
        bad = reference_first_invalid_row(rows)
        if bad is not None:
            lineno, message = bad[0] + 2, bad[1]
        raise TraceParseError(f"{path}: line {lineno}: {message}")

    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            fail(lineno, "blank row")
        parts = line.split(",")
        if len(parts) != 3:
            fail(lineno, f"expected 3 fields, got {len(parts)}")
        row = []
        for token, name in zip(parts, _TRACE_NAMES):
            try:
                row.append(float(token))
            except ValueError:
                fail(lineno, f"{name} is not a number: {token!r}")
        rows.append(row)
    if reference_first_invalid_row(rows) is not None:
        fail(None, None)
    n_rates = len({rate for rate, _, _ in rows})
    if n_rates < 2:
        raise InsufficientDataError(
            f"{path}: trace has {n_rates} distinct per-container rate(s); "
            "at least 2 are required for fitting")
    return tuple(np.array([row[k] for row in rows], dtype=np.float64) for k in range(3))
