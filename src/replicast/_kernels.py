"""Event loop of the discrete-event simulator.

The loop is plain CPython.  Random numbers come in fixed-size float64
blocks from four numpy Generators (arrivals, service, provisioning,
routing).  Arrival gaps are divided by the rate and exponential service
times multiplied by their mean in numpy, one correctly rounded operation
each, so every value has the same bits as the scalar expression.  One
source, ``_arrival_blocks``, gives both service models each block of
arrival times with its routing uniforms.  Every other stream is read one
value at a time from ``_draws``, an iterator over its blocks that steps
in C.  A block draw yields the same values as the same number of scalar
draws, and each stream draws its next block only when a value is needed
after the last one is used, as it would one draw at a time, so the block
size only bounds memory.

Arrival times are computed a block at a time: the gaps' cumulative sum,
with the last arrival time of the previous block added to the first
gap.  ``np.cumsum`` adds left to right, one rounding per element, so
each time has the same bits as the running ``t + gap`` of a scalar loop.

One section runs the control events (the per-second monitor, the scale
evaluator and the provisioning engine), and it is the only code that
changes the order or schedules provisioning.
Event kinds at equal timestamps fire in the fixed priority
departure < monitor < evaluation < provisioning < arrival, which makes
runs bit-reproducible for a given seed.  The ready containers form a
stack in the order they became ready: scale-up pushes, and scale-down
pops the newest, so a container keeps its position from the moment it
is ready until it leaves.  Arrival i goes to position floor(u_i * j),
u_i being the i-th uniform of the routing stream and j the ready count
at the arrival: each ready container takes an independent share, as the
chain's per-container rate lambda / j assumes.  A scaled-down container
keeps its in-flight jobs but gets no new ones.  The stable window is
kept as running totals of its per-second samples, which are counts, so
each windowed value is the exact difference of two integer totals: one
int64 array per run holds the total of the first k ticks at k, the
monitor writes the next, the evaluator subtracts two, and one numpy pass
after the loop gives every tick's value.  The ready count is recorded
once, as the time and count of each change, from which the same pass
reads each tick's count and the replica integral after warmup.

Under processor sharing the next departure depends on the busy count,
so between two control events an inner loop processes each arrival and
departure in turn.  Each container has a slot holding the arrival times
of its jobs, whose length is its job count, and scale-up takes the
lowest slot that is not ready and holds no jobs; a slot's arrival count
is None while it is not ready, so each slot tested costs two lookups.
The busy slots are kept in slot order, so a departure takes the one at
its pick.

Under infinite-server service a job's departure is fixed when its block
is drawn: ``d = a + s`` (``a + mean`` for deterministic service) and its
response time ``d - a``, one rounding each.  So is the monitor tick that
first sees it gone, whatever the routing: ceil(d), or the next tick when
the job arrives at that tick, since it then departs after the monitor.
``_InfiniteServer`` keeps no departure queue: as each block is drawn,
every job departing by the horizon adds its response time to the sum of
the second its tick closes, with ``np.add.at``, and after warmup to the
run's, with ``np.add.accumulate``.  Both add one value at a time in
arrival order, so each sum has the bits of a scalar ``+=`` per job in
arrival order, which ``np.sum`` (pairwise) and ``math.fsum`` (exact)
would not.  Once a block's last arrival a is drawn, every later job
arrives and departs at or after a, so the control events up to a read
final counts.  Each job has an end tick, the first tick whose sample
leaves it out: the tick that closes it under cc, floor(a) + 2 under rps.
A tick's sample is the arrivals before it, a ``searchsorted`` count,
less the jobs whose end tick is at most it.

Every tick, and every evaluation that keeps the order, fires in numpy:
``_fast_forward`` fires them up to a or the next provisioning event,
whichever comes first, and stops at the first evaluation whose desired
count differs from the order, which the scalar section then fires with
the provisioning events; its monitor serves processor sharing only.  The
evaluation times are ``np.add.accumulate`` from the next one, with the
bits of the scalar ``t_eval += t_eva``.  An evaluation at t sees the
floor(t) ticks at or before it, the monitor firing first at equal times,
and its window sum is the difference of two int64 totals, which
``_desired_array`` turns into a count as ``_desired`` does.

No arrival is routed there: a container's jobs change a result only
once it is scaled down, when the ticks after that leave them out.  The
container popped from position j - 1 at t, ready since t_b, holds the
jobs that arrived in [t_b, t) with floor(u * j_a) = j - 1, j_a being the
ready count at their arrival.  So a scale-down applies that mask to the
recent arrivals, read with the ready-count history, and moves the end
tick of each job it finds to at most floor(t) + 1, the first tick after
t.  The moves are kept as differences per tick, which the block's
samples take at once and later blocks' as each is loaded.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from itertools import chain

import numpy as np

from .config import _DIST_DETERMINISTIC, METRIC_RPS, WORKLOAD_PROCESSOR_SHARING

# Random numbers drawn per Generator call.
_BLOCK = 4096

_INF = math.inf


def _arrival_blocks(arr_rng, route_rng, lam):
    """Each block of arrival times with the routing uniform of each
    arrival, the times starting from the last arrival of the block
    before.  A gap that overflows is +inf: an arrival after any horizon."""
    t_last = 0.0
    while True:
        # A decorator on a generator function would not cover its body.
        with np.errstate(over="ignore", invalid="ignore"):
            arr = arr_rng.standard_exponential(_BLOCK) / lam
            arr[0] += t_last
            np.cumsum(arr, out=arr)
        t_last = arr[-1].item()
        yield arr, route_rng.random(_BLOCK)


def _draws(draw):
    """The items of the iterables that draw() returns, one at a time:
    draw is called when an item is needed after the last one is used."""
    return chain.from_iterable(iter(draw, None))


def _desired(window_sum, n, tv, n_max):
    """Knative's KPA: the aggregate windowed metric, the mean of the
    last n samples, over the per-container target, rounded up and
    clamped to [1, n_max]; 1 before the first sample.  The top clamp
    comes first, as the ceiling of an infinite ratio raises."""
    q = window_sum / n / tv if n else 0.0
    return n_max if q > n_max else max(1, math.ceil(q))


@np.errstate(over="ignore")
def _desired_array(window_sums, n, tv, n_max):
    """``_desired`` over int64 arrays of window sums and sample counts,
    with the same bits: each sum and count is an exact integer below
    2**53, so each division is correctly rounded from the same values,
    and a ratio that overflows is +inf in both.  TestKernelOracle pins
    the two together."""
    q = window_sums / np.maximum(n, 1) / tv
    return np.minimum(np.maximum(np.ceil(q), 1), n_max)


def _fast_forward(cum, m0, samples, t_eval, t_eva, stop, window_len, tv, n_max, order):
    """Fire, in numpy, the monitor ticks and the evaluations up to stop
    until an evaluation changes order.

    m0 ticks have fired, and samples holds the samples of the ticks
    after them up to stop, whose running totals are written into cum
    after ``cum[m0]``: a total past the ticks fired is rewritten by the
    next call before any evaluation reads it.  The evaluation times are
    ``np.add.accumulate`` from t_eval, which adds left to right, so each
    has the bits of the scalar ``t_eval += t_eva``; at most ``_BLOCK`` of
    them are drawn up at a time, which bounds memory.  Returns the count
    of ticks fired, the time of the first evaluation left and whether it
    changes the order.
    """
    k = int(min(max((stop - t_eval) / t_eva + 1.0, 0.0), _BLOCK))
    evals = np.full(k + 1, t_eva)
    evals[0] = t_eval
    np.add.accumulate(evals, out=evals)
    # k estimates the count up to stop: rounding may put the last one
    # past stop, and a call that falls short leaves the rest to the next.
    while k and evals[k - 1] > stop:
        k -= 1
    # An evaluation at t > 0 sees the ticks at or before t, as the monitor
    # fires first at equal times: floor(t) ticks, and truncation floors.
    m = evals[:k].astype(np.int64)
    totals = cum[m0:m0 + samples.size + 1]
    totals[1:] = samples
    np.cumsum(totals, out=totals)
    n = np.minimum(m, window_len)
    changes = np.flatnonzero(_desired_array(cum[m] - cum[m - n], n, tv, n_max) != order)
    if changes.size:
        k = changes[0]
    # The ticks at or before both stop and the first evaluation left fire.
    t_next = evals[k].item()
    return math.floor(min(stop, t_next)) - m0, t_next, changes.size > 0


def _second_means(sec_rt, sec_n, wl_mean):
    """The mean response time and carried flag of each second from its
    sum and count: a second without completions carries the last mean
    forward, the workload mean before the first.  Each count is below
    2**53, so each mean has the bits of the scalar sum / count."""
    n = np.asarray(sec_n, dtype=np.int64)
    done = n > 0
    means = np.concatenate(([wl_mean], np.asarray(sec_rt, dtype=np.float64)[done] / n[done]))
    return means[np.cumsum(done)], (~done).astype(np.uint8)


class _InfiniteServer:
    """The arrivals of an infinite-server run, one block at a time, their
    response times and the stack of ready containers.

    Each block adds the response time of each job departing by the
    horizon to the sum of the second its tick closes, ``sec_rt`` (count
    ``sec_n``), and after warmup to the run's, in arrival order.  Each
    job also gets an end tick, the first monitor tick whose sample no
    longer counts it: under cc the tick that closes it, under rps
    floor(a) + 2 for an arrival at a.  The sample at tick k is the jobs
    that arrived before k less those whose end tick is at most k, and
    ``samples[k]`` holds it for each tick of the blocks loaded, the
    ``loaded`` ticks up to ``stop``, the last block's last arrival or the
    horizon if that comes first.  ``final`` says whether the last arrival
    lies past the horizon.  ``scale_up`` and ``scale_down`` move the
    stack at a provisioning event; a scale-down reads the run's
    ready-count history, ``j_times`` and ``j_counts``, from ``j_lo`` on.
    """

    def __init__(self, sim_cfg, blocks, svc_rng, j_times, j_counts):
        workload = sim_cfg.workload
        self.rps = sim_cfg.autoscaler.metric_kind == METRIC_RPS
        self.deterministic = workload.distribution == _DIST_DETERMINISTIC
        self.wl_mean = workload.mean_s
        self.duration, self.warmup = sim_cfg.duration_s, sim_cfg.warmup_s
        self.blocks, self.svc_rng = blocks, svc_rng
        # Response-time sum and count of the jobs each tick closes, at the
        # tick's second, the last entry taking those the last tick leaves
        # in flight; after warmup; of every job closed by the horizon.
        self.last = math.floor(self.duration) + 1
        self.sec_rt = np.zeros(self.last + 1)
        self.sec_n = np.zeros(self.last + 1, dtype=np.int64)
        self.rt_pw = 0.0
        self.n_pw = self.completions = 0
        # The jobs per end tick, which under cc is the tick that closes
        # them, and the scale-downs' moves of end ticks as differences: +1
        # at the new end tick and -1 at the old one.
        self.ends = np.zeros_like(self.sec_n) if self.rps else self.sec_n
        self.moves = np.zeros_like(self.sec_n)
        self.samples = np.zeros_like(self.sec_n)
        # Arrivals before the block, monitor ticks before it and the jobs
        # ended by the last of those.
        self.arr_base = self.loaded = self.gone = 0
        self.ticks = np.empty(0)
        # The arrivals a later scale-down may need, in arrival order, with
        # their end ticks and routing uniforms.
        self.w_arr = self.w_u = np.empty(0)
        self.w_end = np.empty(0, dtype=np.int64)
        # The time each ready container became ready, in stack order, and
        # the run's ready-count history, of which a scale-down needs the
        # entries from the last change before the first arrival kept.
        self.births = [-_INF] * sim_cfg.initial_replicas
        self.j_times, self.j_counts = j_times, j_counts
        self.j_lo = 0
        self._load()

    def _load(self):
        """Draw the next arrival block and count its monitor ticks."""
        arr, route = next(self.blocks)
        # a job arriving at +inf departs at +inf with a nan response time,
        # which only reaches the last entry
        with np.errstate(over="ignore", invalid="ignore"):
            if self.deterministic:
                dep = arr + self.wl_mean
            else:
                dep = arr + self.svc_rng.standard_exponential(arr.size) * self.wl_mean
            rt = dep - arr
        # A job departing at d is closed by tick ceil(d), or by the next
        # one when it arrived at that tick, since it then departs after the
        # monitor.  Its response time is added to that second's sum, and
        # after warmup to the run's, in arrival order.
        close = np.ceil(dep)
        np.add(close, 1, out=close, where=arr == close)
        np.minimum(close, self.last, out=close)
        close = close.astype(np.int64)
        np.add.at(self.sec_rt, close, rt)
        np.add.at(self.sec_n, close, 1)
        closes = dep <= self.duration
        self.completions += int(np.count_nonzero(closes))
        late = rt[closes & (dep > self.warmup)]
        self.rt_pw = np.add.accumulate(np.concatenate(([self.rt_pw], late)))[-1].item()
        self.n_pw += late.size
        if self.rps:
            # arrival times are positive, so truncation floors them
            end = np.minimum(arr, self.last - 2).astype(np.int64)
            end += 2
            np.add.at(self.ends, end, 1)
        else:
            end = close
        self.w_arr = np.concatenate((self.w_arr, arr))
        self.w_end = np.concatenate((self.w_end, end))
        self.w_u = np.concatenate((self.w_u, route))

        self.arr = arr
        t_last = arr[-1].item()
        self.final = t_last > self.duration
        self.stop = min(t_last, self.duration)
        # The jobs ended by the last tick so far; every job that ends by a
        # tick of the new block has arrived by its stop.
        if self.ticks.size:
            self.gone = self.arrived[-1] - self.samples[self.loaded]
        k = self.loaded
        self.ticks = ticks = np.arange(k + 1.0, math.floor(self.stop) + 1)
        self.loaded += ticks.size
        self.arrived = self.arr_base + np.searchsorted(arr, ticks)
        self._sample()

    def _sample(self):
        """Set the samples of the block's ticks: the arrivals before each
        less the jobs ended by it."""
        ticks = slice(self.loaded + 1 - self.ticks.size, self.loaded + 1)
        gone = np.cumsum(self.ends[ticks] + self.moves[ticks])
        gone += self.gone
        np.subtract(self.arrived, gone, out=self.samples[ticks])

    def refill(self):
        """Drop the leading arrivals whose end tick is at most
        floor(stop) + 1, which no later scale-down moves, as each comes
        after the stop; load the next block, and read the ready-count
        history from the last change before the first arrival kept."""
        keep = self.w_end > math.floor(self.stop) + 1
        lo = int(keep.argmax()) if keep.any() else keep.size
        self.w_arr, self.w_end, self.w_u = self.w_arr[lo:], self.w_end[lo:], self.w_u[lo:]
        self.arr_base += self.arr.size
        self._load()
        self.j_lo = bisect_right(self.j_times, self.w_arr[0].item(), self.j_lo) - 1

    def scale_up(self, t):
        """Push a container that is ready from t."""
        self.births.append(t)

    def scale_down(self, t):
        """Pop the newest container at t and move the end tick of each of
        its jobs to at most floor(t) + 1, the first tick after t: every
        tick at or before t has fired."""
        j = len(self.births)
        t_b = self.births.pop()
        lo, hi = np.searchsorted(self.w_arr, (t_b, t))
        arr = self.w_arr[lo:hi]
        times, counts = self.j_times[self.j_lo:], self.j_counts[self.j_lo:]
        j_a = np.array(counts)[np.searchsorted(times, arr, "right") - 1]
        on = (self.w_u[lo:hi] * j_a).astype(np.int64) == j - 1
        t1 = math.floor(t) + 1
        end = self.w_end[lo:hi][on]
        end = end[end > t1]
        np.subtract.at(self.moves, end, 1)
        self.moves[t1] += end.size
        self._sample()

    def finish(self):
        """Returns the per-second mean response times and carried flags,
        the post-warmup sum and count, and the arrivals and completions."""
        n = self.loaded
        sec_rt, sec_n = _second_means(self.sec_rt[1:n + 1], self.sec_n[1:n + 1], self.wl_mean)
        arrivals = self.arr_base + int(np.searchsorted(self.arr, self.duration, "right"))
        return sec_rt, sec_n, self.rt_pw, self.n_pw, arrivals, self.completions


def run_simulation(sim_cfg, arr_rng, svc_rng, prov_rng, route_rng):
    """Run the validated SimulationConfig sim_cfg on the four streams.

    Returns the per-second ready counts, windowed metric per container,
    mean response times and carried flags, then the post-warmup replica
    integral, response-time sum and completion count, and the arrivals,
    completions and jobs in flight at the horizon.
    """
    cfg = sim_cfg.autoscaler
    rps = cfg.metric_kind == METRIC_RPS
    tv, n_max, t_eva = cfg.target_value, cfg.n_max, cfg.t_eva_s
    mu_pro, mu_dep = cfg.mu_pro, cfg.mu_dep
    workload = sim_cfg.workload
    sharing = workload.kind == WORKLOAD_PROCESSOR_SHARING
    wl_mean = workload.mean_s
    lam, duration, warmup = sim_cfg.arrival_rate, sim_cfg.duration_s, sim_cfg.warmup_s
    # The run has floor(duration) monitor ticks, so a longer window never
    # fills, and one clamped to them fits an int64.
    window_len = min(cfg.window_length, math.floor(duration))
    init_replicas = sim_cfg.initial_replicas
    blocks = _arrival_blocks(arr_rng, route_rng, lam)
    prov = _draws(lambda: prov_rng.standard_exponential(_BLOCK).tolist())
    j_ready = init_replicas
    order = init_replicas
    # The ready count from each of its changes on, the first from the start.
    j_times = [-_INF]
    j_counts = [init_replicas]

    if sharing:
        # Container slots.  A slot is free when it is not ready and holds
        # no jobs; a provisioned container takes the lowest free slot, or
        # a new one at the end.  Arrivals this second per slot, None while
        # the slot is not ready.
        arr_count = [0] * init_replicas
        # The ready slots in the order they became ready: arrivals pick a
        # position, and scale-down pops the newest.
        by_birth = list(range(init_replicas))
        # Each arrival time with its routing uniform.  Every job that has
        # not left is still in its slot, so completions follow from the
        # arrival count at the end.
        arrival_draws = chain.from_iterable(zip(a.tolist(), u.tolist()) for a, u in blocks)
        t_arrival, u_route = next(arrival_draws)
        arrivals = 0

        def uniform_pairs():
            # A block's odd last uniform is left unused.
            u = svc_rng.random(_BLOCK).tolist()
            return zip(u[::2], u[1::2])

        # Service times, pre-multiplied by the mean, and the departures'
        # uniform pairs share the service stream, whose blocks are drawn
        # in the order the two use them up.
        svc = _draws(lambda: (svc_rng.standard_exponential(_BLOCK) * wl_mean).tolist())
        uni = _draws(uniform_pairs)
        # Arrival times of each slot's in-flight jobs, and the slots that
        # hold any, in slot order.
        ps_times = [[] for _ in range(init_replicas)]
        busy_slots = []
        t_dep = _INF
        # Response-time sum and count of each closed second, of the open
        # second, and after warmup.
        sec_rt = []
        sec_n = []
        rt_sum_sec = 0.0
        n_sec = 0
        rt_sum_pw = 0.0
        completions_pw = 0
    else:
        inf_server = _InfiniteServer(sim_cfg, blocks, svc_rng, j_times, j_counts)

    # Running totals of the per-second samples of the aggregate metric
    # over ready containers (in-flight sum for cc, arrival count for rps):
    # cum[k] is the total of the first k.  m ticks have fired, and the
    # next fires at m + 1.
    cum = np.zeros(math.floor(duration) + 1, dtype=np.int64)
    m = 0

    t_eval = t_eva
    t_prov = _INF
    # Earliest of the three control events, kept current by the branch
    # that moves any of them.
    t_ctrl = min(1.0, t_eval)

    while True:
        if sharing:
            # A departure fires at or before dep_stop, an arrival strictly
            # before arr_stop: ties go to the departure, then the control
            # event, and nothing fires after the horizon.
            if t_ctrl <= duration:
                dep_stop = arr_stop = t_ctrl
            else:
                dep_stop = duration
                arr_stop = math.nextafter(duration, _INF)

            while True:
                # Departures fire up to the next arrival, or up to the
                # stop when no arrival is left before it.  arr_stop is
                # dep_stop or the float after it, so an arrival before it
                # lies at or before dep_stop.
                t_next = t_arrival if t_arrival < arr_stop else dep_stop
                if t_dep <= t_next:
                    # --- departure ---
                    # Pick the departing container uniformly among busy
                    # ones, then the finishing job uniformly within it:
                    # exponential demands make every busy container
                    # equally likely to produce the next departure
                    # regardless of its job count.  A uniform u is below
                    # 1, and so is the rounded u * n for any count n < 2**53.
                    t = t_dep
                    pick_u, idx_u = next(uni)
                    pick = int(pick_u * len(busy_slots))
                    slot = busy_slots[pick]
                    jobs = ps_times[slot]
                    c = len(jobs)
                    idx = int(idx_u * c)
                    rt = t - jobs[idx]
                    jobs[idx] = jobs[-1]
                    jobs.pop()
                    if c == 1:
                        del busy_slots[pick]
                    if busy_slots:
                        t_dep = t + next(svc) / len(busy_slots)
                    else:
                        t_dep = _INF
                    rt_sum_sec += rt
                    n_sec += 1
                    if t > warmup:
                        rt_sum_pw += rt
                        completions_pw += 1
                    continue
                if t_arrival >= arr_stop:
                    break

                # --- arrival: to the ready container at a uniform position ---
                t = t_arrival
                slot = by_birth[int(u_route * j_ready)]
                if rps:
                    arr_count[slot] += 1
                jobs = ps_times[slot]
                if not jobs:
                    insort(busy_slots, slot)
                    t_dep = t + next(svc) / len(busy_slots)
                jobs.append(t)
                arrivals += 1
                t_arrival, u_route = next(arrival_draws)
        else:
            while True:
                # The counts are final up to the block's stop.
                while t_ctrl > inf_server.stop and not inf_server.final:
                    inf_server.refill()
                # Every tick, and every evaluation that keeps the order, fires
                # in numpy up to the stop or the next provisioning event.
                t_stop = min(inf_server.stop, t_prov)
                if min(m + 1.0, t_eval) > t_stop:
                    break
                ticks, t_eval, changed = _fast_forward(
                    cum, m, inf_server.samples[m + 1:inf_server.loaded + 1], t_eval, t_eva,
                    t_stop, window_len, tv, n_max, order)
                m += ticks
                t_ctrl = min(m + 1.0, t_eval, t_prov)
                if changed:
                    break

        # The next event is a control event, or nothing is left before
        # the horizon.
        if t_ctrl > duration:
            break
        t_from = -1.0
        if m + 1.0 <= t_ctrl:
            # --- per-second monitor (processor sharing only) ---
            sample = 0
            for k in by_birth:
                sample += arr_count[k] if rps else len(ps_times[k])
                arr_count[k] = 0
            # Close the second's response times.
            sec_rt.append(rt_sum_sec)
            sec_n.append(n_sec)
            rt_sum_sec = 0.0
            n_sec = 0
            cum[m + 1] = cum[m] + sample
            m += 1

        elif t_eval <= t_ctrl:
            # --- scale evaluator ---
            # The window holds the last n samples, none before the first
            # tick.
            n = min(m, window_len)
            desired = _desired((cum[m] - cum[m - n]).item(), n, tv, n_max)
            if desired != order:
                order = desired
                t_from = t_eval
            t_eval += t_eva

        else:
            # --- provisioning engine: one container becomes ready or leaves ---
            t = t_prov
            if j_ready < order:
                j_ready += 1
                if sharing:
                    # A free slot holds no jobs, and its arrival count
                    # starts at 0.
                    slot = 0
                    while slot < len(ps_times) and (ps_times[slot] or arr_count[slot] is not None):
                        slot += 1
                    if slot == len(ps_times):
                        arr_count.append(0)
                        ps_times.append([])
                    else:
                        arr_count[slot] = 0
                    by_birth.append(slot)
                else:
                    inf_server.scale_up(t)
            else:
                # Graceful scale-down of the newest ready container: it
                # finishes in-flight requests but gets no new ones.
                j_ready -= 1
                if sharing:
                    arr_count[by_birth.pop()] = None
                else:
                    inf_server.scale_down(t)
            j_times.append(t)
            j_counts.append(j_ready)
            t_from = t

        if t_from >= 0.0:
            # Next provisioning event after a new order or a finished
            # one: each missing container provisions at mu_pro, each
            # surplus one leaves at mu_dep.
            if j_ready == order:
                t_prov = _INF
            else:
                if j_ready < order:
                    rate = (order - j_ready) * mu_pro
                else:
                    rate = (j_ready - order) * mu_dep
                t_prov = t_from + next(prov) / rate
        t_ctrl = min(m + 1.0, t_eval, t_prov)

    if sharing:
        sec_rt, sec_n = _second_means(sec_rt, sec_n, wl_mean)
        completions = arrivals - sum(map(len, ps_times))
    else:
        sec_rt, sec_n, rt_sum_pw, completions_pw, arrivals, completions = inf_server.finish()

    # Each tick sees the ready count of the last change before it, as the
    # monitor fires first at equal times.
    k = np.arange(1, m + 1)
    tick_ready = np.array(j_counts)[np.searchsorted(j_times, k) - 1]
    # The replica-count integral after warmup: each count times the part
    # of its span in [warmup, duration], added in time order as a scalar
    # += per change would.
    spans = np.diff(np.clip(j_times + [duration], warmup, duration))
    area_replica = np.add.accumulate(j_counts * spans)[-1].item()

    # Reported per container: each tick's aggregate window over its ready
    # count.  The totals are below 2**53, so they convert exactly and each
    # value has the bits of the scalar window_sum / n / j_ready.
    n = np.minimum(k, window_len)
    tick_ov = (cum[k] - cum[k - n]) / n / tick_ready

    return (tick_ready, tick_ov, sec_rt, sec_n,
            area_replica, rt_sum_pw, completions_pw,
            arrivals, completions, arrivals - completions)
